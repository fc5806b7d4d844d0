// Package compass is a reproduction of COMPASS — the COMmercial PArallel
// Shared memory Simulator (Nanda et al., IPPS 1998) — an execution-driven
// simulator for commercial applications (OLTP, decision support, web
// serving) on shared-memory multiprocessors, with selective operating-
// system simulation.
//
// The package is the public facade: it assembles simulated machines
// (backend architecture models, kernel services, devices, OS server),
// runs the ported workloads (a DB2-like database engine under TPC-C-like
// and TPC-D-like loads, an Apache-like web server under a SPECWeb96-like
// trace), and regenerates the paper's evaluation tables.
//
// Quick start:
//
//	cfg := compass.DefaultConfig()
//	res := compass.RunTPCD(cfg, compass.TPCDConfig{Rows: 8192, Orders: 128, Agents: 4, PoolPages: 48, Seed: 7})
//	fmt.Println(res.Profile)
package compass

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"compass/internal/apps/db"
	"compass/internal/apps/httpd"
	"compass/internal/apps/splash"
	"compass/internal/apps/tier3"
	"compass/internal/apps/tpcc"
	"compass/internal/apps/tpcd"
	"compass/internal/core"
	"compass/internal/fault"
	"compass/internal/frontend"
	"compass/internal/machine"
	"compass/internal/mem"
	"compass/internal/specweb"
	"compass/internal/stats"
	"compass/internal/trace"
)

// Arch selects the simulated target architecture.
type Arch = machine.Arch

// Architecture constants.
const (
	// ArchFixed is a constant-latency memory model.
	ArchFixed = machine.ArchFixed
	// ArchSimple is the paper's simple backend (one cache level per CPU).
	ArchSimple = machine.ArchSimple
	// ArchSMP is a two-level-cache snooping-bus SMP.
	ArchSMP = machine.ArchSMP
	// ArchCCNUMA is the paper's complex backend (CC-NUMA directory).
	ArchCCNUMA = machine.ArchCCNUMA
	// ArchCOMA is a cache-only memory architecture.
	ArchCOMA = machine.ArchCOMA
)

// Placement constants (page home-node assignment, §3.3.1).
const (
	PlaceRoundRobin = mem.PlaceRoundRobin
	PlaceBlock      = mem.PlaceBlock
	PlaceFirstTouch = mem.PlaceFirstTouch
)

// Scheduler constants (§3.3.2).
const (
	SchedFCFS     = core.SchedFCFS
	SchedAffinity = core.SchedAffinity
)

// Config describes the simulated machine; see machine.Config for fields.
type Config = machine.Config

// DefaultConfig returns a 4-CPU simple-backend machine.
func DefaultConfig() Config { return machine.Default() }

// FaultConfig is the deterministic fault plan (Config.Faults); see
// fault.Config for fields. All-zero rates mean no injection.
type FaultConfig = fault.Config

// ParseFaultSpec parses a -faults command-line specification such as
// "seed=42,disk.transient=0.01,net.drop=0.02,mem.ecc=1e-6".
func ParseFaultSpec(spec string) (FaultConfig, error) { return fault.ParseSpec(spec) }

// Workload configuration aliases.
type (
	// TPCCConfig scales the OLTP workload.
	TPCCConfig = tpcc.Config
	// TPCDConfig scales the decision-support workload.
	TPCDConfig = tpcd.Config
	// SPECWebConfig scales the web fileset and trace.
	SPECWebConfig = specweb.Config
	// SORConfig scales the scientific grid solver.
	SORConfig = splash.SORConfig
)

// DefaultTPCC returns the calibrated TPCC scale.
func DefaultTPCC() TPCCConfig { return tpcc.DefaultConfig() }

// DefaultTPCD returns the calibrated TPCD scale.
func DefaultTPCD() TPCDConfig { return tpcd.DefaultConfig() }

// DefaultSPECWeb returns the calibrated SPECWeb scale.
func DefaultSPECWeb() SPECWebConfig { return specweb.DefaultConfig() }

// Result summarizes one simulation run.
type Result struct {
	// Name identifies the workload.
	Name string
	// Cycles is the final simulated time.
	Cycles uint64
	// Profile is the Table-1-style user/OS time breakdown.
	Profile stats.Profile
	// Counters are the backend's statistics (cache hits, traffic, ...).
	Counters *stats.Counters
	// Wall is the host execution time of the simulation.
	Wall time.Duration
	// Extra carries workload-specific numbers (requests served, ...).
	Extra map[string]float64
	// Syscalls is the per-kernel-call cycle breakdown (the paper's
	// "handful of OS calls" analysis), rendered as a table.
	Syscalls string
	// LoadTable is the per-class offered/completed and p50/p90/p99/p999
	// tail-latency table; empty unless the run used the open-loop
	// generator.
	LoadTable string
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%-14s %12d cycles  wall %8.2fs  %s",
		r.Name, r.Cycles, r.Wall.Seconds(), r.Profile.String())
}

// FaultTable renders the fault-injection and recovery counters; empty
// for a fault-free run.
func (r Result) FaultTable() string { return stats.FormatFaultTable(r.Counters) }

func finish(name string, m *machine.Machine, end uint64, wall time.Duration) Result {
	total := m.Sim.TotalAccount()
	res := Result{
		Name:     name,
		Cycles:   end,
		Profile:  stats.ProfileOf(name, &total),
		Counters: m.Sim.Counters(),
		Wall:     wall,
		Extra:    map[string]float64{},
		Syscalls: m.OS.FormatSyscallProfile(8),
	}
	m.FaultCounters(res.Counters)
	return res
}

// enableClientARQ arms the trace player's link-level retransmission when
// the machine injects network faults — the external client needs the
// same recovery discipline as the host stack.
func enableClientARQ(player *trace.Player, cfg Config) {
	fc := cfg.Faults
	fc.ApplyDefaults()
	if fc.NetEnabled() {
		player.EnableARQ(fc.Net)
	}
}

// RunTPCC runs the OLTP workload to completion.
func RunTPCC(cfg Config, w TPCCConfig) Result {
	m := machine.New(cfg)
	wl := tpcc.Setup(m.FS, w)
	for i := 0; i < w.Agents; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("agent%d", i), func(p *frontend.Proc) {
			wl.Agent(p, i)
		})
	}
	start := time.Now()
	end := m.Sim.Run()
	res := finish("TPCC/db", m, uint64(end), time.Since(start))
	res.Extra["transactions"] = float64(w.Agents * w.TxPerAgent)
	hits, misses := db.Stats(wl.Cat)
	res.Extra["pool.hits"] = float64(hits)
	res.Extra["pool.misses"] = float64(misses)
	return res
}

// TPCDQuery selects which decision-support queries a run executes.
type TPCDQuery int

// Query sets.
const (
	// QueryScanAgg runs Q1 + Q6 (partitioned scans).
	QueryScanAgg TPCDQuery = iota
	// QueryJoin runs the order/lineitem join.
	QueryJoin
	// QueryMmap runs the mmap-based scan.
	QueryMmap
)

// RunTPCD runs decision-support queries with w.Agents parallel agents.
func RunTPCD(cfg Config, w TPCDConfig) Result {
	return RunTPCDQueries(cfg, w, QueryScanAgg, true)
}

// RunTPCDQueries runs a chosen query mix; instrument=false runs with the
// simulation switch off (the paper's "raw" execution for Table 2).
func RunTPCDQueries(cfg Config, w TPCDConfig, q TPCDQuery, instrument bool) Result {
	m := machine.New(cfg)
	wl := tpcd.Setup(m.FS, w)
	pages := wl.LineitemPages()
	for i := 0; i < w.Agents; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("agent%d", i), func(p *frontend.Proc) {
			if !instrument {
				p.SetInstrumentation(false)
			}
			a := db.NewAgent(p, wl.Cat)
			first, last := pages*i/w.Agents, pages*(i+1)/w.Agents
			switch q {
			case QueryScanAgg:
				wl.Q1(p, a, first, last, 1500)
				wl.Q6(p, a, first, last, 100, 1800, 5, 30)
			case QueryJoin:
				wl.Q3Join(p, a, w.Orders*i/w.Agents, w.Orders*(i+1)/w.Agents, 2)
			case QueryMmap:
				if _, err := wl.QMmapScan(p, 1500); err != nil {
					panic(err)
				}
			}
			a.Close()
		})
	}
	start := time.Now()
	end := m.Sim.Run()
	name := "TPCD/db"
	if !instrument {
		name = "TPCD/raw"
	}
	res := finish(name, m, uint64(end), time.Since(start))
	res.Extra["rows"] = float64(w.Rows)
	return res
}

// RunSPECWeb runs the web server under the trace player.
func RunSPECWeb(cfg Config, w SPECWebConfig, workers, concurrency int) Result {
	m := machine.New(cfg)
	specweb.GenerateFileset(m.FS, w)
	reqs := specweb.GenerateTrace(w)
	hcfg := httpd.DefaultConfig()
	hcfg.Workers = workers
	m.FS.SetupCreate(hcfg.LogFile, nil)
	st := make([]httpd.Stats, workers)
	for i := 0; i < workers; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("httpd%d", i), func(p *frontend.Proc) {
			httpd.Worker(p, hcfg, &st[i])
		})
	}
	player := trace.NewPlayer(m.Sim, m.NIC, reqs, trace.PlayerConfig{
		Concurrency: concurrency,
		ThinkCycles: 20_000,
		Workers:     workers,
		Port:        hcfg.Port,
	})
	enableClientARQ(player, cfg)
	player.Start()
	start := time.Now()
	end := m.Sim.Run()
	res := finish("SPECWeb/httpd", m, uint64(end), time.Since(start))
	res.Extra["requests"] = float64(player.Completed)
	res.Extra["latency.mean"] = player.Latency.Mean()
	if player.ARQ() != nil {
		res.Extra["client.failures"] = float64(player.ClientFailures)
	}
	var served, bytes uint64
	for _, s := range st {
		served += s.Served
		bytes += s.BytesSent
	}
	res.Extra["served"] = float64(served)
	res.Extra["bytes"] = float64(bytes)
	return res
}

// RunSOR runs the scientific grid solver (the OS-light contrast workload).
func RunSOR(cfg Config, w SORConfig) Result {
	m := machine.New(cfg)
	s := splash.NewSOR(w)
	for i := 0; i < w.Procs; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("sor%d", i), func(p *frontend.Proc) {
			s.Worker(p, i)
		})
	}
	start := time.Now()
	end := m.Sim.Run()
	return finish("SOR/splash", m, uint64(end), time.Since(start))
}

// WithGOMAXPROCS runs fn with the host parallelism temporarily pinned —
// the Table 2 (uniprocessor host) vs Table 3 (4-way SMP host) experiment.
func WithGOMAXPROCS(n int, fn func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// Tier3Config scales the three-tier dynamic-content stack.
type Tier3Config = tier3.Config

// DefaultTier3 returns the calibrated three-tier scale.
func DefaultTier3() Tier3Config { return tier3.DefaultConfig() }

// RunTier3 runs the dynamic-content stack: trace-driven clients hit
// pre-forked web workers, which query a database tier over loopback
// connections (the full commercial-server composition of §1).
func RunTier3(cfg Config, w Tier3Config, requests int) Result {
	m := machine.New(cfg)
	wl := tier3.Setup(m.FS, w)
	st := make([]tier3.Stats, w.WebWorkers)
	for i := 0; i < w.DBWorkers; i++ {
		m.SpawnConnected(fmt.Sprintf("db%d", i), func(p *frontend.Proc) {
			wl.DBWorker(p)
		})
	}
	for i := 0; i < w.WebWorkers; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("web%d", i), func(p *frontend.Proc) {
			wl.WebWorker(p, &st[i])
		})
	}
	rng := rand.New(rand.NewSource(424242))
	reqs := make(trace.Trace, requests)
	for i := range reqs {
		key := rng.Intn(w.Rows)
		body := fmt.Sprintf("<html>key %d -> VAL %d</html>", key, wl.OracleValue(key))
		reqs[i] = trace.Request{Path: fmt.Sprintf("/dyn/%d", key), Size: len(body)}
	}
	player := trace.NewPlayer(m.Sim, m.NIC, reqs, trace.PlayerConfig{
		Concurrency: w.WebWorkers,
		ThinkCycles: 30_000,
		Workers:     w.WebWorkers,
		Port:        w.WebPort,
	})
	enableClientARQ(player, cfg)
	player.Start()
	start := time.Now()
	end := m.Sim.Run()
	res := finish("tier3", m, uint64(end), time.Since(start))
	res.Extra["requests"] = float64(player.Completed)
	res.Extra["latency.mean"] = player.Latency.Mean()
	if player.ARQ() != nil {
		res.Extra["client.failures"] = float64(player.ClientFailures)
	}
	var ok uint64
	for _, s := range st {
		ok += s.OK
	}
	res.Extra["ok"] = float64(ok)
	return res
}
