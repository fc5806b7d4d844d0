package compass

import (
	"path/filepath"
	"testing"
)

// faultPlan is a deliberately hostile but survivable plan: every rate is
// far above anything realistic so short test runs hit every site, and the
// retry budgets make the give-up probability negligible.
func faultPlan() FaultConfig {
	var f FaultConfig
	f.Seed = 7
	f.Disk.TransientRate = 0.3
	f.Disk.SlowRate = 0.1
	f.Disk.BadBlockRate = 0.01
	f.Disk.MaxRetries = 12
	f.Net.DropRate = 0.05
	f.Net.CorruptRate = 0.02
	f.Net.DupRate = 0.02
	f.Mem.ECCRate = 1e-4
	return f
}

// A zero fault plan leaves no trace: no counters, no table.
func TestFaultFreeHasNoFaultCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 2
	res := RunTPCC(cfg, w)
	if ft := res.FaultTable(); ft != "" {
		t.Errorf("fault-free run produced a fault table:\n%s", ft)
	}
}

// TPCC under disk and memory faults commits exactly the same transactions
// as the fault-free run — recovery is invisible to the application — but
// pays for it in simulated cycles.
func TestFaultsTPCCCorrectButSlower(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	w := DefaultTPCC()
	w.Agents = 2
	w.TxPerAgent = 6

	base := RunTPCC(cfg, w)
	fcfg := cfg
	fcfg.Faults = faultPlan()
	faulted := RunTPCC(fcfg, w)

	if got, want := faulted.Extra["transactions"], base.Extra["transactions"]; got != want {
		t.Errorf("transactions: faulted %v, fault-free %v", got, want)
	}
	if faulted.Cycles <= base.Cycles {
		t.Errorf("faulted run took %d cycles, fault-free %d — recovery must cost time",
			faulted.Cycles, base.Cycles)
	}
	if faulted.Counters.Get("fault.disk.transient") == 0 {
		t.Error("no transient disk faults injected")
	}
	if faulted.Counters.Get("fault.disk.retries") == 0 {
		t.Error("no disk retries recorded")
	}
	if faulted.Counters.Get("fault.mem.ecc") == 0 {
		t.Error("no ECC events recorded")
	}
	if n := faulted.Counters.Get("fault.disk.unrecoverable"); n != 0 {
		t.Errorf("%d unrecoverable disk errors — plan was supposed to be survivable", n)
	}
}

// SPECWeb under wire faults serves every request with the right bytes —
// the ARQ hides drops, corruption and duplicates — merely slower.
func TestFaultsSPECWebCorrectButSlower(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	w := DefaultSPECWeb()
	w.Requests = 20

	base := RunSPECWeb(cfg, w, 2, 4)
	fcfg := cfg
	fcfg.Faults = faultPlan()
	faulted := RunSPECWeb(fcfg, w, 2, 4)

	for _, key := range []string{"requests", "served", "bytes"} {
		if got, want := faulted.Extra[key], base.Extra[key]; got != want {
			t.Errorf("%s: faulted %v, fault-free %v", key, got, want)
		}
	}
	if faulted.Cycles <= base.Cycles {
		t.Errorf("faulted run took %d cycles, fault-free %d — recovery must cost time",
			faulted.Cycles, base.Cycles)
	}
	if faulted.Counters.Get("fault.net.drops") == 0 {
		t.Error("no wire drops injected")
	}
	if faulted.Counters.Get("fault.net.retransmits") == 0 {
		t.Error("no retransmits recorded")
	}
	if n := faulted.Extra["client.failures"]; n != 0 {
		t.Errorf("%v client give-ups — plan was supposed to be survivable", n)
	}
	if n := faulted.Counters.Get("fault.net.failures"); n != 0 {
		t.Errorf("%d host ARQ give-ups — plan was supposed to be survivable", n)
	}
}

// The fault plan is seeded, not sampled: two runs with the same seed are
// bit-identical in every statistic.
func TestFaultsDeterministicReplay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Faults = faultPlan()
	w := DefaultSPECWeb()
	w.Requests = 20

	a := RunSPECWeb(cfg, w, 2, 4)
	b := RunSPECWeb(cfg, w, 2, 4)
	sameResult(t, a, b)
}

// Fault state is checkpoint state: resuming a faulted TPCC warm snapshot
// replays exactly the fault sequence of the uninterrupted run.
func TestFaultsCheckpointDeterministicTPCC(t *testing.T) {
	warm, measured := tpccPhases()
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Faults = faultPlan()
	path := filepath.Join(t.TempDir(), "tpcc-faults.ckpt")

	ref, err := RunPhased(cfg, []TPCCConfig{warm, measured}, 0, 0, Checkpoints{Save: path})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunPhased(cfg, []TPCCConfig{warm, measured}, 0, 0, Checkpoints{Resume: path})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, ref, got)
	if ref.Counters.Get("fault.disk.transient") == 0 {
		t.Error("no transient disk faults injected across the checkpoint")
	}
}

// Same property for the web workload: ARQ counters, injector draw
// positions and the flap window all survive the snapshot.
func TestFaultsCheckpointDeterministicSPECWeb(t *testing.T) {
	warm := DefaultSPECWeb()
	warm.Requests = 20
	measured := warm
	measured.Requests = 30
	measured.Seed = warm.Seed + 1
	cfg := DefaultConfig()
	cfg.CPUs = 2
	cfg.Faults = faultPlan()
	path := filepath.Join(t.TempDir(), "web-faults.ckpt")

	ref, err := RunPhased(cfg, []SPECWebConfig{warm, measured}, 2, 4, Checkpoints{Save: path})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunPhased(cfg, []SPECWebConfig{warm, measured}, 2, 4, Checkpoints{Resume: path})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, ref, got)
	if ref.Counters.Get("fault.net.retransmits") == 0 {
		t.Error("no retransmits recorded across the checkpoint")
	}
	if ref.Extra["requests"] != float64(measured.Requests) {
		t.Errorf("requests = %v", ref.Extra["requests"])
	}
}
