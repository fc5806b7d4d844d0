package compass

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"compass/internal/expt"
	"compass/internal/guard"
	"compass/internal/machine"
)

// Supervision is pure host-side observation: a guarded run whose watchdog
// never trips must return a Result byte-identical to the unguarded run's,
// fault table included. This is the gate that keeps the guard layer out
// of the simulation.
func TestGuardedRunMatchesUnguarded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Faults = faultPlan()
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 4

	want := resultTable(RunTPCC(cfg, w))

	res, err := RunGuarded(cfg, GuardConfig{Deadline: 5 * time.Minute, Stall: time.Minute}, "tpcc",
		Guarded(func(c Config) Result { return RunTPCC(c, w) }))
	if err != nil {
		t.Fatal(err)
	}
	if got := resultTable(res); got != want {
		t.Fatalf("guarded run differs from unguarded:\n--- unguarded ---\n%s\n--- guarded ---\n%s", want, got)
	}
}

// A guarded campaign with no failures renders byte-identically to the
// campaign under a zero GuardConfig — same summary table, same aggregated
// fault table, no quarantine section — and every point is byte-identical
// to an unsupervised run of its seed.
func TestGuardedCampaignMatchesUnguarded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Faults = faultPlan()
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 3
	runner := func(c Config) Result { return RunTPCC(c, w) }
	seeds := CampaignSeeds(11, 3)

	plain := RunSeedCampaign(cfg, seeds, GuardConfig{}, Guarded(runner), ExptOptions{Workers: 2})
	guarded := RunSeedCampaign(cfg, seeds, GuardConfig{Deadline: 5 * time.Minute}, Guarded(runner), ExptOptions{Workers: 2})

	if len(guarded.Failed) != 0 {
		t.Fatalf("clean campaign quarantined points: %+v", guarded.Failed)
	}
	if a, b := plain.String(), guarded.String(); a != b {
		t.Fatalf("campaign summaries differ:\n--- plain ---\n%s\n--- guarded ---\n%s", a, b)
	}
	if a, b := plain.FaultTable(), guarded.FaultTable(); a != b {
		t.Fatalf("aggregated fault tables differ:\n--- plain ---\n%s\n--- guarded ---\n%s", a, b)
	}
	for i, seed := range seeds {
		scfg := cfg
		scfg.Faults.Seed = seed
		if a, b := resultTable(runner(scfg)), resultTable(guarded.Points[i].Res); a != b {
			t.Fatalf("seed %d: guarded point differs from unsupervised run:\n--- unsupervised ---\n%s\n--- guarded ---\n%s", seed, a, b)
		}
	}
}

// A guarded batch sweep with no failures produces the same sweep table
// as an unsupervised warm sweep built by hand (one warm machine, one
// snapshot, each point restored and run in turn), per-point counters
// included.
func TestGuardedSweepMatchesUnguarded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	batches := []int{1, 8, 64}
	const warmStores, stores = 400, 300

	m := machine.New(cfg)
	spawnSweepProcs(m, cfg.CPUs, 0, 1, warmStores)
	warmEnd := uint64(m.Sim.Run())
	snap, err := expt.TakeSnapshot(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	var points []BatchSweepPoint
	for _, b := range batches {
		rm, err := snap.Restore()
		if err != nil {
			t.Fatal(err)
		}
		spawnSweepProcs(rm, cfg.CPUs, cfg.CPUs, b, stores)
		end := uint64(rm.Sim.Run())
		c := rm.Sim.Counters()
		rm.FaultCounters(c)
		points = append(points, BatchSweepPoint{Batch: b, End: end, Measured: end - warmEnd, Counters: c})
	}
	want := FormatSweepTable(points, warmEnd)

	gp, failed, gw, err := RunBatchSweepWarm(cfg, batches, warmStores, stores,
		GuardConfig{Deadline: 5 * time.Minute}, ExptOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("clean sweep failed points: %s", FormatSweepFailures(failed))
	}
	if got := FormatSweepTable(gp, gw); got != want {
		t.Fatalf("guarded sweep differs from unguarded:\n--- unguarded ---\n%s\n--- guarded ---\n%s", want, got)
	}
}

// The auto-checkpoint resume contract: a segmented run that crashes
// mid-way and is re-invoked resumes from its latest checkpoint and
// finishes with results byte-identical to an uninterrupted run of the
// same segment schedule — fault table included. The crash's bundle must
// carry the checkpoint it will resume from.
func TestAutoCkptCrashResumeByteIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Faults = faultPlan()
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 4

	segs := tpccSegments(w, 4)
	straight, err := RunPhased(cfg, segs, 0, 0, Checkpoints{Interval: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	_, err = RunGuarded(cfg, GuardConfig{BundleDir: t.TempDir()}, "tpcc",
		func(c Config, sess *guard.Session) (Result, error) {
			return RunPhased(c, segs, 0, 0, Checkpoints{Interval: 1, Dir: dir, Note: sess.NoteCheckpoint, CrashAfter: 2})
		})
	var a *guard.Abort
	if !errors.As(err, &a) || a.Kind != guard.KindPanic {
		t.Fatalf("crash attempt returned %v, want a contained panic", err)
	}
	if a.Bundle == "" {
		t.Fatal("crash attempt wrote no bundle")
	}
	m, err := guard.ReadBundle(a.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if m.Checkpoint == "" {
		t.Fatal("bundle carries no auto-checkpoint")
	}

	resumed, err := RunPhased(cfg, segs, 0, 0, Checkpoints{Interval: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if wt, gt := resultTable(straight), resultTable(resumed); wt != gt {
		t.Fatalf("straight and resumed runs differ:\n--- straight ---\n%s\n--- resumed ---\n%s", wt, gt)
	}
}

// The chaos-smoke acceptance path: a 4-seed guarded campaign with one
// crashing seed aggregates the three survivors, quarantines the fourth
// after Retries+1 attempts, and its crash-repro bundle replays through
// RunSpecGuarded to the identical failure.
func TestGuardedCampaignQuarantineAndBundleReplay(t *testing.T) {
	spec := RunSpec{
		Workload: "tpcc", CPUs: 2, RTC: true, Agents: 2, Tx: 3,
		Faults: "seed=7,disk.transient=0.3,net.drop=0.05",
		Chaos:  "crashseed=13",
	}
	gcfg := GuardConfig{Retries: 1, Backoff: time.Millisecond, BundleDir: t.TempDir()}
	seeds := CampaignSeeds(11, 4) // 11..14; seed 13 crashes
	camp, err := RunSpecCampaign(spec, seeds, gcfg, ExptOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	if len(camp.Points) != 3 {
		t.Fatalf("got %d surviving points, want 3: %s", len(camp.Points), camp.String())
	}
	for i, want := range []uint64{11, 12, 14} {
		if camp.Points[i].Seed != want {
			t.Fatalf("surviving seeds out of order: %+v", camp.Points)
		}
	}
	if len(camp.Failed) != 1 {
		t.Fatalf("got %d quarantined points, want 1: %s", len(camp.Failed), camp.FailureTable())
	}
	f := camp.Failed[0]
	if f.Seed != 13 || f.Attempts != 2 || f.Kind != guard.KindPanic {
		t.Fatalf("quarantine row %+v, want seed 13 after 2 panic attempts", f)
	}
	if f.Bundle == "" {
		t.Fatal("quarantined point has no bundle")
	}
	if !strings.Contains(camp.String(), "quarantined:") {
		t.Fatalf("campaign summary lacks the quarantine table:\n%s", camp.String())
	}

	m, err := guard.ReadBundle(f.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec.Seed != 13 {
		t.Fatalf("bundle spec seed %d, want the failed point's 13", m.Spec.Seed)
	}
	_, rerr := RunSpecGuarded(m.Spec, GuardConfig{})
	var ra *guard.Abort
	if !errors.As(rerr, &ra) {
		t.Fatalf("bundle replay returned %v, want a contained abort", rerr)
	}
	if ra.Kind != guard.KindPanic || ra.Reason != f.Reason {
		t.Fatalf("replay failure kind=%s reason=%q, original kind=%s reason=%q",
			ra.Kind, ra.Reason, f.Kind, f.Reason)
	}
}

// The block chaos plan exercises both hang classifications: with the RTC
// off the engine proves a true deadlock; with it on, the run spins on
// timer ticks until the watchdog's host deadline trips.
func TestChaosBlockClassification(t *testing.T) {
	w := DefaultTPCC()
	w.Agents = 1
	w.TxPerAgent = 1

	t.Run("deadlock", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.CPUs = 2
		cfg.RTC = false
		cfg.Observe = ObserveBlock()
		_, err := RunGuarded(cfg, GuardConfig{}, "block",
			Guarded(func(c Config) Result { return RunTPCC(c, w) }))
		var a *guard.Abort
		if !errors.As(err, &a) || a.Kind != guard.KindDeadlock {
			t.Fatalf("got %v, want a contained deadlock", err)
		}
		if !strings.Contains(a.Reason, "chaos-block") {
			t.Fatalf("deadlock reason does not name the blocked process: %q", a.Reason)
		}
	})

	t.Run("watchdog", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.CPUs = 2
		cfg.Observe = ObserveBlock()
		_, err := RunGuarded(cfg, GuardConfig{Deadline: time.Second}, "block",
			Guarded(func(c Config) Result { return RunTPCC(c, w) }))
		var a *guard.Abort
		if !errors.As(err, &a) || a.Kind != guard.KindWatchdog {
			t.Fatalf("got %v, want a watchdog abort", err)
		}
		if a.Cycle == 0 {
			t.Fatal("watchdog abort carries no cycle")
		}
	})
}

// Bundles written before the sharded backend was removed carry a
// "shards" field in their spec. encoding/json drops the unknown field,
// so such a bundle still decodes to the same run and replays to its
// bundled failure through the -repro path (ReadBundle + RunSpecGuarded).
func TestReproBundleIgnoresRemovedSpecField(t *testing.T) {
	dir := t.TempDir()
	manifest := `{
  "spec": {
    "workload": "tpcc", "cpus": 2, "arch": "", "nodes": 0, "placement": "",
    "sched": "", "rtc": true, "agents": 2, "tx": 3, "rows": 0, "requests": 0,
    "shards": 2,
    "faults": "seed=7,disk.transient=0.3,net.drop=0.05",
    "seed": 13,
    "chaos": "crashseed=13"
  },
  "label": "seed-13",
  "kind": "panic",
  "reason": "chaos",
  "cycle": 0
}
`
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := guard.ReadBundle(dir)
	if err != nil {
		t.Fatalf("bundle with a shards field did not decode: %v", err)
	}
	want := RunSpec{
		Workload: "tpcc", CPUs: 2, RTC: true, Agents: 2, Tx: 3,
		Faults: "seed=7,disk.transient=0.3,net.drop=0.05",
		Seed:   13,
		Chaos:  "crashseed=13",
	}
	if m.Spec != want {
		t.Fatalf("decoded spec %+v, want %+v", m.Spec, want)
	}
	_, err = RunSpecGuarded(m.Spec, GuardConfig{})
	var a *guard.Abort
	if !errors.As(err, &a) || a.Kind.String() != m.Kind {
		t.Fatalf("replay returned %v, want the bundled %s failure", err, m.Kind)
	}
}
