package compass

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// SweepBench records one serial-vs-parallel measurement of the warm
// batch sweep: the same points run on one worker and on a pool, with
// host seconds, speedup, and a bit-equality verdict. Written as
// BENCH_sweep.json so the bench trajectory is machine-readable.
type SweepBench struct {
	// Batches lists the sweep points.
	Batches []int `json:"batches"`
	// WarmStores and Stores are the per-CPU store counts of the warm and
	// measured phases.
	WarmStores int `json:"warm_stores"`
	Stores     int `json:"stores"`
	// CPUs is the simulated processor count.
	CPUs int `json:"cpus"`
	// Workers is the parallel run's resolved pool size.
	Workers int `json:"workers"`
	// HostCores is runtime.GOMAXPROCS(0) at measurement time — the
	// speedup ceiling.
	HostCores int `json:"host_cores"`
	// SerialSeconds and ParallelSeconds are host wall times for the
	// whole sweep (shared warm phase included in both).
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	// Speedup is SerialSeconds / ParallelSeconds.
	Speedup float64 `json:"speedup"`
	// SimCycles is the total measured simulated cycles (identical for
	// both runs when Identical holds).
	SimCycles uint64 `json:"sim_cycles"`
	// Identical reports whether the serial and parallel result tables
	// were byte-for-byte equal — the determinism contract, measured.
	Identical bool `json:"identical"`
}

// RunSweepBench measures the batch sweep serially (one worker) and in
// parallel (workers; <=0 = GOMAXPROCS) and byte-compares the two result
// tables. The parallel run goes first so the serial run cannot look
// faster merely from a warmed host.
func RunSweepBench(cfg Config, batches []int, warmStores, stores, workers int) (SweepBench, error) {
	b := SweepBench{
		Batches:    batches,
		WarmStores: warmStores,
		Stores:     stores,
		CPUs:       cfg.CPUs,
		HostCores:  runtime.GOMAXPROCS(0),
	}

	t0 := time.Now()
	ppoints, pwarm, err := sweepPoints(cfg, batches, warmStores, stores, workers)
	if err != nil {
		return b, err
	}
	b.ParallelSeconds = time.Since(t0).Seconds()

	t0 = time.Now()
	spoints, swarm, err := sweepPoints(cfg, batches, warmStores, stores, 1)
	if err != nil {
		return b, err
	}
	b.SerialSeconds = time.Since(t0).Seconds()

	if b.ParallelSeconds > 0 {
		b.Speedup = b.SerialSeconds / b.ParallelSeconds
	}
	if workers <= 0 {
		workers = b.HostCores
	}
	if workers > len(batches) {
		workers = len(batches)
	}
	b.Workers = workers
	for _, p := range spoints {
		b.SimCycles += p.Measured
	}
	b.Identical = FormatSweepTable(spoints, swarm) == FormatSweepTable(ppoints, pwarm)
	return b, nil
}

// WriteFile writes the bench record as indented JSON.
func (b SweepBench) WriteFile(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// String is a one-line human summary.
func (b SweepBench) String() string {
	return fmt.Sprintf("sweep %d points: serial %.2fs, parallel %.2fs on %d workers (%d cores) — %.2fx, identical=%v",
		len(b.Batches), b.SerialSeconds, b.ParallelSeconds, b.Workers, b.HostCores, b.Speedup, b.Identical)
}

// sweepPoints runs the warm sweep on workers host cores; a failed point
// fails the bench, which measures complete sweeps only.
func sweepPoints(cfg Config, batches []int, warmStores, stores, workers int) ([]BatchSweepPoint, uint64, error) {
	points, failed, warmEnd, err := RunBatchSweepWarm(cfg, batches, warmStores, stores, GuardConfig{}, ExptOptions{Workers: workers})
	if err == nil && len(failed) > 0 {
		err = fmt.Errorf("sweep bench: %d points failed:\n%s", len(failed), FormatSweepFailures(failed))
	}
	return points, warmEnd, err
}
