package compass

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"compass/internal/frontend"
	"compass/internal/stats"
)

// Table1Row pairs a measured profile with the paper's reported numbers.
type Table1Row struct {
	Profile stats.Profile
	// Paper values for side-by-side comparison.
	PaperUser, PaperOS, PaperIntr, PaperKernel float64
	// Syscalls is the measured per-kernel-call breakdown.
	Syscalls string
}

// Table1Scale shrinks the workloads for quick runs (1 = calibrated
// default; larger = longer, steadier profiles).
type Table1Scale struct {
	CPUs int
	// TPCC transactions per agent.
	TPCCTx int
	// TPCD rows.
	TPCDRows int
	// SPECWeb requests.
	WebRequests int
}

// DefaultTable1Scale matches the calibrated test scale.
func DefaultTable1Scale() Table1Scale {
	return Table1Scale{CPUs: 4, TPCCTx: 25, TPCDRows: 16384, WebRequests: 120}
}

// Table1 reproduces the paper's Table 1 ("User vs. OS time"): profiles of
// SPECWeb/httpd, TPCD/db and TPCC/db on a 4-way machine.
func Table1(scale Table1Scale) []Table1Row {
	cfg := DefaultConfig()
	cfg.CPUs = scale.CPUs
	// The paper profiled a real 4-way AIX SMP; the two-level snooping SMP
	// is the closest simulated target.
	cfg.Arch = ArchSMP

	web := DefaultSPECWeb()
	web.Requests = scale.WebRequests
	webRes := RunSPECWeb(cfg, web, scale.CPUs, scale.CPUs*2)

	dcfg := DefaultTPCD()
	dcfg.Rows = scale.TPCDRows
	dcfg.Agents = scale.CPUs
	tpcdRes := RunTPCD(cfg, dcfg)

	ccfg := DefaultTPCC()
	ccfg.TxPerAgent = scale.TPCCTx
	ccfg.Agents = scale.CPUs
	tpccRes := RunTPCC(cfg, ccfg)

	return []Table1Row{
		{Profile: webRes.Profile, PaperUser: 14.9, PaperOS: 85.1, PaperIntr: 37.8, PaperKernel: 47.3, Syscalls: webRes.Syscalls},
		{Profile: tpcdRes.Profile, PaperUser: 81, PaperOS: 19, PaperIntr: 8.6, PaperKernel: 10.4, Syscalls: tpcdRes.Syscalls},
		{Profile: tpccRes.Profile, PaperUser: 79, PaperOS: 21, PaperIntr: 14.6, PaperKernel: 6.4, Syscalls: tpccRes.Syscalls},
	}
}

// FormatTable1 renders rows like the paper's Table 1, with the paper's
// numbers alongside.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %10s %10s %12s %10s   (paper: user/OS = intr + kernel)\n",
		"benchmark", "user", "OS total", "interrupt", "kernel")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %9.1f%% %9.1f%% %11.1f%% %9.1f%%   (%.1f / %.1f = %.1f + %.1f)\n",
			r.Profile.Name, r.Profile.UserPct, r.Profile.OSPct,
			r.Profile.InterruptPct, r.Profile.KernelPct,
			r.PaperUser, r.PaperOS, r.PaperIntr, r.PaperKernel)
	}
	return b.String()
}

// SlowdownRow is one row of the paper's Tables 2/3: execution time and
// slowdown versus the raw run.
type SlowdownRow struct {
	Mode     string
	Wall     time.Duration
	Cycles   uint64
	Slowdown float64
}

// SlowdownResult is a Table-2/3 reproduction.
type SlowdownResult struct {
	HostProcs int
	Rows      []SlowdownRow
}

// Format renders the table.
func (s SlowdownResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "host GOMAXPROCS=%d\n", s.HostProcs)
	fmt.Fprintf(&b, "%-16s %14s %14s %10s\n", "backend", "wall(s)", "sim cycles", "slowdown")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-16s %14.3f %14d %9.1fx\n", r.Mode, r.Wall.Seconds(), r.Cycles, r.Slowdown)
	}
	return b.String()
}

// slowdownWorkload runs the Table 2/3 TPCD query (Q1+Q6 scan) once in the
// given mode and returns wall time and simulated cycles.
func slowdownWorkload(arch Arch, targetCPUs, agents, rows int, instrument bool) (time.Duration, uint64) {
	cfg := DefaultConfig()
	cfg.Arch = arch
	cfg.CPUs = targetCPUs
	cfg.SpinPorts = true // the paper's shared-memory message passing
	if arch == ArchCCNUMA || arch == ArchCOMA {
		cfg.Nodes = targetCPUs
	}
	w := DefaultTPCD()
	w.Rows = rows
	w.Agents = agents
	res := RunTPCDQueries(cfg, w, QueryScanAgg, instrument)
	return res.Wall, res.Cycles
}

// Slowdown reproduces the paper's Table 2 (hostProcs=1) and Table 3
// (hostProcs=4): the same TPCD query executed raw (simulation switch off),
// under the simple backend, and under the complex (CC-NUMA) backend. The
// target machine has targetCPUs processors; agents frontend processes run
// the query. Frontends execute host work proportional to their simulated
// compute (frontend.HostWork), which is what the raw baseline measures —
// as in the paper, where the raw run is the application executing
// natively.
func Slowdown(hostProcs, targetCPUs, agents, rows int) SlowdownResult {
	out := SlowdownResult{HostProcs: hostProcs}
	frontend.HostWork = 1.0
	defer func() { frontend.HostWork = 0 }()
	var rawWall, simpleWall, complexWall time.Duration
	var simpleCycles, complexCycles, rawCycles uint64
	withGOMAXPROCS(hostProcs, func() {
		rawWall, rawCycles = slowdownWorkload(ArchFixed, targetCPUs, agents, rows, false)
		simpleWall, simpleCycles = slowdownWorkload(ArchSimple, targetCPUs, agents, rows, true)
		complexWall, complexCycles = slowdownWorkload(ArchCCNUMA, targetCPUs, agents, rows, true)
	})
	out.Rows = []SlowdownRow{
		{Mode: "raw", Wall: rawWall, Cycles: rawCycles, Slowdown: 1},
		{Mode: "simple backend", Wall: simpleWall, Cycles: simpleCycles,
			Slowdown: float64(simpleWall) / float64(rawWall)},
		{Mode: "complex backend", Wall: complexWall, Cycles: complexCycles,
			Slowdown: float64(complexWall) / float64(rawWall)},
	}
	return out
}

// withGOMAXPROCS runs fn with the host parallelism temporarily pinned —
// the Table 2 (uniprocessor host) vs Table 3 (4-way SMP host) experiment.
func withGOMAXPROCS(n int, fn func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}
