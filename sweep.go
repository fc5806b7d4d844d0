package compass

import (
	"errors"
	"fmt"
	"strings"

	"compass/internal/expt"
	"compass/internal/frontend"
	"compass/internal/guard"
	"compass/internal/isa"
	"compass/internal/machine"
	"compass/internal/mem"
	"compass/internal/osserver"
	"compass/internal/stats"
)

// RunBatchSweep is the interleave-granularity experiment (§2): procs
// perform a fixed strided store sweep with `batch` references coalesced
// per event-port message. batch=1 is per-reference interleaving; larger
// batches approximate the paper's basic-block granularity, trading
// interleave fidelity for fewer frontend-backend rendezvous. Returns the
// simulated completion time (identical memory traffic regardless of
// batch, so the simulated cycles should barely move while host time
// drops).
func RunBatchSweep(cfg Config, batch, stores int) uint64 {
	m := machine.New(cfg)
	spawnSweepProcs(m, cfg.CPUs, 0, batch, stores)
	end := m.Sim.Run()
	return uint64(end)
}

// spawnSweepProcs spawns n strided-store processes named sweep<base+i>.
func spawnSweepProcs(m *machine.Machine, n, base, batch, stores int) {
	for i := 0; i < n; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("sweep%d", base+i), func(p *frontend.Proc) {
			os := osserver.For(p)
			sbase := os.Sbrk(1 << 20)
			p.SetBatch(batch)
			for j := 0; j < stores; j++ {
				p.Store(sbase+mem.VirtAddr((j*96+i*32)%(1<<20-8)), 4)
				p.Compute(isa.ALU(3))
			}
			p.SetBatch(1)
		})
	}
}

// BatchSweepPoint is one measurement of a warm-started batch sweep.
type BatchSweepPoint struct {
	// Batch is the references-per-event setting of this point.
	Batch int
	// End is the final simulated cycle of the resumed run.
	End uint64
	// Measured is the cycles this point actually simulated (End minus the
	// shared warm phase's end cycle).
	Measured uint64
	// Counters is the point's full backend counter set (cache hits,
	// traffic, ...) — part of the bit-equality surface the determinism
	// regression test compares between serial and parallel runs.
	Counters *stats.Counters
}

// SimCycles reports the point's measured cycles to the experiment
// engine's progress line (expt.Cycled).
func (p BatchSweepPoint) SimCycles() uint64 { return p.Measured }

// Progress is the experiment engine's progress-line update; see
// expt.Progress for fields.
type Progress = expt.Progress

// ExptOptions configures the parallel experiment engine behind the
// fan-out helpers (RunBatchSweepWarm, RunSeedCampaign).
type ExptOptions struct {
	// Workers sizes the host worker pool; <=0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives serialized progress updates.
	Progress func(Progress)
}

// SweepFailure is one batch point that produced no measurement in a
// guarded sweep.
type SweepFailure struct {
	// Batch is the failed point's references-per-event setting.
	Batch int
	// Kind classifies the failure.
	Kind guard.Kind
	// Reason is the failure's cause.
	Reason string
	// Bundle is the crash-repro bundle directory, if one was written.
	Bundle string
}

// RunBatchSweepWarm runs the batch sweep with every point resumed from one
// in-memory warm snapshot: the warm phase (warmStores strided stores per
// CPU) is simulated once, checkpointed, and each batch setting restores the
// snapshot and simulates only its measured phase. Against len(batches) cold
// starts, the total simulated cycles drop by (len(batches)-1) warm phases.
//
// The measured phases fan out across opts.Workers host cores, each on a
// private restored machine; points come back ordered by batches index —
// never completion order — and are bit-identical to the Workers=1 run.
// The warm phase and every point run in their own guard session, so one
// point's panic or stall costs that point, not the sweep. Returns the
// surviving points, the failed points' table rows, and the warm phase's
// end cycle.
func RunBatchSweepWarm(cfg Config, batches []int, warmStores, stores int, gcfg guard.Config, opts ExptOptions) ([]BatchSweepPoint, []SweepFailure, uint64, error) {
	m := machine.New(cfg)
	wsess := guard.NewSession(bundleSub(gcfg, "warm"))
	var (
		warmEnd uint64
		snap    *expt.Snapshot
	)
	if err := wsess.Run("warm", func() error {
		wsess.Attach(m.Sim)
		spawnSweepProcs(m, cfg.CPUs, 0, 1, warmStores)
		warmEnd = uint64(m.Sim.Run())
		var err error
		snap, err = expt.TakeSnapshot(m, nil)
		return err
	}); err != nil {
		// Every point resumes from the warm snapshot: no snapshot, no sweep.
		return nil, nil, 0, err
	}

	jobs := make([]expt.Job[BatchSweepPoint], len(batches))
	for i, b := range batches {
		b := b
		label := fmt.Sprintf("batch%d", b)
		pgcfg := bundleSub(gcfg, label)
		jobs[i] = expt.Job[BatchSweepPoint]{
			Name: label,
			// Every point simulates the same store count; weight them
			// equally by the expected measured cycles (~ stores).
			EstCycles: uint64(stores),
			Run: func() (BatchSweepPoint, error) {
				sess := guard.NewSession(pgcfg)
				var pt BatchSweepPoint
				err := sess.Run(label, func() error {
					rm, err := snap.Restore()
					if err != nil {
						return err
					}
					// Snapshot restore bypasses machine.New, so the session
					// attaches to the restored engine explicitly.
					sess.Attach(rm.Sim)
					spawnSweepProcs(rm, cfg.CPUs, cfg.CPUs, b, stores)
					end := uint64(rm.Sim.Run())
					c := rm.Sim.Counters()
					rm.FaultCounters(c)
					pt = BatchSweepPoint{Batch: b, End: end, Measured: end - warmEnd, Counters: c}
					return nil
				})
				return pt, err
			},
		}
	}
	rs := expt.Run(expt.Config{Workers: opts.Workers, Progress: opts.Progress}, jobs)

	var points []BatchSweepPoint
	var failed []SweepFailure
	for i, r := range rs {
		if r.Err != nil {
			f := SweepFailure{Batch: batches[i], Kind: guard.KindPanic, Reason: r.Err.Error()}
			var a *guard.Abort
			if errors.As(r.Err, &a) {
				f.Kind, f.Reason, f.Bundle = a.Kind, a.Reason, a.Bundle
			}
			failed = append(failed, f)
			continue
		}
		points = append(points, r.Value)
	}
	return points, failed, warmEnd, nil
}

// FormatSweepFailures renders a guarded sweep's failed-points table; empty
// when every point measured. Bundle paths are excluded (host-dependent).
func FormatSweepFailures(failed []SweepFailure) string {
	if len(failed) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %10s  %s\n", "batch", "kind", "reason")
	for _, f := range failed {
		fmt.Fprintf(&b, "%8d %10s  %s\n", f.Batch, f.Kind, f.Reason)
	}
	return b.String()
}

// FormatSweepTable renders sweep points as a deterministic table — the
// byte-equality surface for the serial-vs-parallel contract. The full
// per-point counter dump is included so a single flipped backend event
// anywhere breaks the comparison.
func FormatSweepTable(points []BatchSweepPoint, warmEnd uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "warm end %d\n", warmEnd)
	fmt.Fprintf(&b, "%8s %14s %14s\n", "batch", "end", "measured")
	for _, p := range points {
		fmt.Fprintf(&b, "%8d %14d %14d\n", p.Batch, p.End, p.Measured)
	}
	for _, p := range points {
		fmt.Fprintf(&b, "-- batch %d counters --\n", p.Batch)
		if p.Counters != nil {
			b.WriteString(p.Counters.String())
		}
	}
	return b.String()
}
