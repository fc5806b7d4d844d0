package compass

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"compass/internal/checkpoint"
	"compass/internal/machine"
)

// sameResult compares every deterministic Result field (Wall is host time
// and legitimately differs).
func sameResult(t *testing.T, ref, got Result) {
	t.Helper()
	if got.Cycles != ref.Cycles {
		t.Errorf("cycles: resumed %d, uninterrupted %d", got.Cycles, ref.Cycles)
	}
	if got.Profile != ref.Profile {
		t.Errorf("profile:\nresumed       %+v\nuninterrupted %+v", got.Profile, ref.Profile)
	}
	if g, r := got.Counters.String(), ref.Counters.String(); g != r {
		t.Errorf("counters diverge:\nresumed:\n%s\nuninterrupted:\n%s", g, r)
	}
	if !reflect.DeepEqual(got.Extra, ref.Extra) {
		t.Errorf("extra: resumed %v, uninterrupted %v", got.Extra, ref.Extra)
	}
	if got.Syscalls != ref.Syscalls {
		t.Errorf("syscalls diverge:\nresumed:\n%s\nuninterrupted:\n%s", got.Syscalls, ref.Syscalls)
	}
}

func tpccPhases() (TPCCConfig, TPCCConfig) {
	warm := DefaultTPCC()
	warm.Agents = 2
	warm.TxPerAgent = 4
	measured := warm
	measured.TxPerAgent = 6
	measured.Seed = warm.Seed + 1
	return warm, measured
}

// Resuming a TPCC warm snapshot and running the measured phase must
// produce bit-identical stats to the uninterrupted two-phase run.
func TestCheckpointResumeDeterministicTPCC(t *testing.T) {
	warm, measured := tpccPhases()
	cfg := DefaultConfig()
	cfg.CPUs = 2
	path := filepath.Join(t.TempDir(), "tpcc.ckpt")

	ref, err := RunPhased(cfg, []TPCCConfig{warm, measured}, 0, 0, Checkpoints{Save: path})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunPhased(cfg, []TPCCConfig{warm, measured}, 0, 0, Checkpoints{Resume: path})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, ref, got)
	// Like the cycles and the profile, the count covers both phases.
	if ref.Extra["transactions"] != float64(warm.Agents*warm.TxPerAgent+measured.Agents*measured.TxPerAgent) {
		t.Errorf("transactions = %f", ref.Extra["transactions"])
	}
}

// Same property for the web workload: warmed buffer cache, bound listener
// and populated log survive the snapshot.
func TestCheckpointResumeDeterministicSPECWeb(t *testing.T) {
	warm := DefaultSPECWeb()
	warm.Requests = 20
	measured := warm
	measured.Requests = 30
	measured.Seed = warm.Seed + 1
	cfg := DefaultConfig()
	cfg.CPUs = 2
	path := filepath.Join(t.TempDir(), "web.ckpt")

	ref, err := RunPhased(cfg, []SPECWebConfig{warm, measured}, 2, 4, Checkpoints{Save: path})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunPhased(cfg, []SPECWebConfig{warm, measured}, 2, 4, Checkpoints{Resume: path})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, ref, got)
	if ref.Extra["requests"] != float64(measured.Requests) {
		t.Errorf("requests = %f", ref.Extra["requests"])
	}
}

// The snapshot header must be inspectable without decoding the body and
// must carry the machine's config hash.
func TestCheckpointReadInfo(t *testing.T) {
	warm, measured := tpccPhases()
	cfg := DefaultConfig()
	cfg.CPUs = 2
	path := filepath.Join(t.TempDir(), "tpcc.ckpt")
	if _, err := RunPhased(cfg, []TPCCConfig{warm, measured}, 0, 0, Checkpoints{Save: path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inf, err := checkpoint.ReadInfo(f)
	if err != nil {
		t.Fatal(err)
	}
	if inf.Version != checkpoint.Version {
		t.Errorf("version = %d", inf.Version)
	}
	if inf.Cycle == 0 {
		t.Error("zero snapshot cycle")
	}
	if inf.ConfigHash != checkpoint.ConfigHash(cfg) {
		t.Error("config hash mismatch")
	}
	if inf.UserCycles == 0 || inf.KernelCycles == 0 {
		t.Errorf("empty stats summary: %+v", inf)
	}

	// The same file stamped with format version 1 — the layout before the
	// shard count and the syscall/pairing counters were dropped — must
	// fail resume with the version error, not a hash or decode mismatch.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(data[12:16], 1)
	old := filepath.Join(t.TempDir(), "v1.ckpt")
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("format version 1, want %d", checkpoint.Version)
	if _, err := RunPhased(cfg, []TPCCConfig{warm, measured}, 0, 0, Checkpoints{Resume: old}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("resume of a version-1 file: err = %v, want %q", err, want)
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	garbage := make([]byte, 256)
	copy(garbage, "not a checkpoint file at all...")
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := checkpoint.ReadInfo(f); !errors.Is(err, checkpoint.ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

// Configurations with live daemon state that cannot quiesce are refused,
// not silently mis-snapshotted.
func TestCheckpointGatesNonQuiescentConfigs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Preemptive = true
	m := machine.New(cfg)
	m.Sim.Run()
	if _, err := m.Checkpoint(); !errors.Is(err, machine.ErrNotCheckpointable) {
		t.Errorf("preemptive: err = %v, want ErrNotCheckpointable", err)
	}

	cfg = DefaultConfig()
	cfg.SyncdInterval = 100_000
	m = machine.New(cfg)
	if _, err := m.Checkpoint(); !errors.Is(err, machine.ErrNotCheckpointable) {
		t.Errorf("syncd: err = %v, want ErrNotCheckpointable", err)
	}
}

// A warm-started sweep simulates the warm phase once, so its total
// simulated cycles must come in below N cold runs of the same points.
func TestWarmBatchSweepSkipsWarmup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	batches := []int{1, 8, 64}
	const warmStores, stores = 400, 300

	points, _, warmEnd, err := RunBatchSweepWarm(cfg, batches, warmStores, stores, GuardConfig{}, ExptOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(batches) || warmEnd == 0 {
		t.Fatalf("points=%d warmEnd=%d", len(points), warmEnd)
	}
	warmTotal := warmEnd
	var coldTotal uint64
	for _, p := range points {
		if p.End <= warmEnd {
			t.Errorf("batch %d: end %d not past warm end %d", p.Batch, p.End, warmEnd)
		}
		if p.Measured != p.End-warmEnd {
			t.Errorf("batch %d: measured %d != end-warm %d", p.Batch, p.Measured, p.End-warmEnd)
		}
		warmTotal += p.Measured
		coldTotal += p.End // a cold run re-simulates the warm phase every point
	}
	if warmTotal >= coldTotal {
		t.Errorf("warm sweep simulated %d cycles, cold baseline %d", warmTotal, coldTotal)
	}
}

// Resume checks the snapshot against the caller's config: a warm file
// written for one machine must not silently run under another's name.
// The error names both hashes.
func TestCheckpointResumeRejectsConfigMismatch(t *testing.T) {
	warm, measured := tpccPhases()
	cfg := DefaultConfig()
	cfg.CPUs = 2
	path := filepath.Join(t.TempDir(), "tpcc.ckpt")
	if _, err := RunPhased(cfg, []TPCCConfig{warm, measured}, 0, 0, Checkpoints{Save: path}); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Arch = ArchCCNUMA
	other.CPUs = 4
	_, err := RunPhased(other, []TPCCConfig{warm, measured}, 0, 0, Checkpoints{Resume: path})
	saved, want := checkpoint.ConfigHash(cfg), checkpoint.ConfigHash(other)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%x", saved[:8])) ||
		!strings.Contains(err.Error(), fmt.Sprintf("%x", want[:8])) {
		t.Fatalf("resume under another config: err = %v, want a mismatch naming %x and %x", err, saved[:8], want[:8])
	}
}

// A restored machine re-runs the caller's Observe hook, as a fresh one
// does, so a resumed run under RunGuarded keeps its watchdog.
func TestCheckpointResumeCallsObserve(t *testing.T) {
	warm, measured := tpccPhases()
	cfg := DefaultConfig()
	cfg.CPUs = 2
	path := filepath.Join(t.TempDir(), "tpcc.ckpt")
	if _, err := RunPhased(cfg, []TPCCConfig{warm, measured}, 0, 0, Checkpoints{Save: path}); err != nil {
		t.Fatal(err)
	}
	var seen []*machine.Machine
	cfg.Observe = func(m *machine.Machine) { seen = append(seen, m) }
	if _, err := RunPhased(cfg, []TPCCConfig{warm, measured}, 0, 0, Checkpoints{Resume: path}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] == nil {
		t.Fatalf("Observe ran %d times on resume, want once on the restored machine", len(seen))
	}
}

// A warm-start file holds the state after the first phase, so resuming it
// into a one-phase run has nothing left to run: an error, not a Result
// read from phases that never ran.
func TestCheckpointResumeNeedsLaterPhase(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	warm := DefaultSPECWeb()
	warm.Requests = 20
	path := filepath.Join(t.TempDir(), "web.ckpt")
	if _, err := RunPhased(cfg, []SPECWebConfig{warm, warm}, 2, 4, Checkpoints{Save: path}); err != nil {
		t.Fatal(err)
	}
	_, err := RunPhased(cfg, []SPECWebConfig{warm}, 2, 4, Checkpoints{Resume: path})
	if err == nil || !strings.Contains(err.Error(), "leaves none of the run's 1 phases") {
		t.Fatalf("err = %v, want the no-phase-left error", err)
	}
}

// Nodes 0 means one node to machine.New, so a config that leaves it zero
// resumes its own snapshot — the resume hash check compares canonical
// configs, and auto-resume finds the file.
func TestCheckpointResumeZeroNodes(t *testing.T) {
	warm, measured := tpccPhases()
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Nodes = 0
	path := filepath.Join(t.TempDir(), "tpcc.ckpt")
	ref, err := RunPhased(cfg, []TPCCConfig{warm, measured}, 0, 0, Checkpoints{Save: path})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunPhased(cfg, []TPCCConfig{warm, measured}, 0, 0, Checkpoints{Resume: path})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, ref, got)

	dir := t.TempDir()
	if _, err := RunPhased(cfg, tpccSegments(measured, 2), 0, 0, Checkpoints{Dir: dir, Interval: 1}); err != nil {
		t.Fatal(err)
	}
	if latestAutoCkpt(dir, cfg) == "" {
		t.Fatal("auto-resume found no checkpoint written for the run's own config")
	}
}
