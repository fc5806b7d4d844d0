package compass

import (
	"strings"
	"testing"
)

// TestTPCCNUMAAgentsRaceFree runs a short TPC-C on a 2-node CC-NUMA
// machine with four agents on four CPUs: the shape where agents enter
// the kernel and spawn connected children from concurrently running
// frontend goroutines. Its value is under -race (make race), where any
// unsynchronized write to shared OS-server or kernel state on those
// paths is reported.
func TestTPCCNUMAAgentsRaceFree(t *testing.T) {
	spec := RunSpec{Workload: "tpcc", CPUs: 4, Arch: "ccnuma", Nodes: 2, RTC: true, Agents: 4, Tx: 8}
	cfg, err := SpecConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultTPCC()
	w.Agents, w.TxPerAgent = spec.Agents, spec.Tx
	res := RunTPCC(cfg, w)
	if res.Cycles == 0 {
		t.Fatal("run simulated no cycles")
	}
	if !strings.Contains(res.Syscalls, "kreadv") && !strings.Contains(res.Syscalls, "kwritev") {
		t.Errorf("syscall profile lacks the TPC-C file calls:\n%s", res.Syscalls)
	}
}
