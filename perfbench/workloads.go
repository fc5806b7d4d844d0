package main

import (
	"fmt"
	"math"

	"compass"
	"compass/internal/apps/db"
	"compass/internal/apps/httpd"
	"compass/internal/apps/tpcc"
	"compass/internal/apps/tpcd"
	"compass/internal/frontend"
	"compass/internal/loadgen"
	"compass/internal/machine"
	"compass/internal/stats"
)

// workload is one benchmark workload. spec is the compassrun command line
// it equals at the default seed; load builds the workload's inputs and
// processes on an assembled machine (the facade's steps between machine
// assembly and Sim.Run) and returns the function that collects and checks
// the workload's own outputs once the run has ended.
type workload struct {
	name string
	// result is the facade's Result.Name, which the profile line carries.
	result string
	spec   compass.RunSpec
	load   func(m *machine.Machine, spec compass.RunSpec, s seeds) (finish func(o *outcome) error, err error)
	// facade runs the same configuration through the public entry point,
	// for the check that the benchmark's own assembly matches it.
	facade func(cfg compass.Config, spec compass.RunSpec, s seeds) (compass.Result, error)
}

// The workloads, chosen so that each layer an optimisation may target is
// carried by one workload and bypassed by another:
//   - oltp-numa is write- and coherence-heavy: the event-port round trip
//     and the directory/network model carry it; the event queue and the
//     network stack see little.
//   - dss-scan streams reads over a footprint far larger than the caches
//     with almost no sharing: the same memsys layer as oltp-numa with the
//     opposite read/write mix, plus the fs read path and row decode.
//   - web-flash is OS- and device-bound under an open-loop flash crowd:
//     the event queue, the min-clock scan, netstack, osserver and loadgen
//     are hot. It is the sharded backend's only lane tenant.
var workloads = []workload{
	{
		name:   "oltp-numa",
		result: "TPCC/db",
		spec:   compass.RunSpec{Workload: "tpcc", CPUs: 4, Arch: "ccnuma", Nodes: 2, RTC: true, Agents: 4, Tx: 150},
		load:   loadOLTP,
		facade: func(cfg compass.Config, spec compass.RunSpec, s seeds) (compass.Result, error) {
			return compass.RunTPCC(cfg, tpccConfig(spec, s)), nil
		},
	},
	{
		name:   "dss-scan",
		result: "TPCD/db",
		spec:   compass.RunSpec{Workload: "tpcd", CPUs: 4, Arch: "simple", RTC: true, Agents: 4, Rows: 131072},
		load:   loadDSS,
		facade: func(cfg compass.Config, spec compass.RunSpec, s seeds) (compass.Result, error) {
			return compass.RunTPCD(cfg, tpcdConfig(spec, s)), nil
		},
	},
	{
		name:   "web-flash",
		result: "load/httpd",
		spec: compass.RunSpec{Workload: "specweb", CPUs: 4, Arch: "simple", RTC: true, Agents: 4,
			Load: "requests=8000;class=web,clients=1000000,interval=1e9,burst=2,flash=2e7:2e7:4"},
		load: loadWeb,
		facade: func(cfg compass.Config, spec compass.RunSpec, s seeds) (compass.Result, error) {
			lc, err := loadConfig(spec, s)
			if err != nil {
				return compass.Result{}, err
			}
			return compass.RunLoadHTTPD(cfg, lc, spec.Agents)
		},
	},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seeds carries the benchmark seed to every seed site a workload reads.
// Benchmark seed n offsets each site's default, so seed 0 runs exactly
// what compassrun runs. The SPECWeb fileset/trace seed has no site here:
// web-flash is driven by the open-loop generator, whose catalogs and
// arrivals are keyed by the loadgen seed alone.
type seeds struct {
	tpcc, tpcd int64
	load       uint64
}

// defaultSeed reproduces compassrun's configurations; heldOutSeed is kept
// out of tuning, for checking a claimed gain on inputs it was not tuned on.
const (
	defaultSeed = 0
	heldOutSeed = 7919
)

func seedsFor(n int64) seeds {
	return seeds{
		tpcc: compass.DefaultTPCC().Seed + n,
		tpcd: compass.DefaultTPCD().Seed + n,
		load: uint64(n),
	}
}

func tpccConfig(spec compass.RunSpec, s seeds) compass.TPCCConfig {
	w := compass.DefaultTPCC()
	w.Agents, w.TxPerAgent, w.Seed = spec.Agents, spec.Tx, s.tpcc
	return w
}

func tpcdConfig(spec compass.RunSpec, s seeds) compass.TPCDConfig {
	w := compass.DefaultTPCD()
	w.Agents, w.Rows, w.Seed = spec.Agents, spec.Rows, s.tpcd
	return w
}

func loadConfig(spec compass.RunSpec, s seeds) (compass.LoadConfig, error) {
	lc, err := compass.ParseLoadSpec(spec.Load)
	if err != nil {
		return lc, err
	}
	lc.Seed = s.load
	return lc, nil
}

// loadOLTP is compass.RunTPCC's setup. After the measured run a verifier
// process checks, inside the simulation, that the district order ids, the
// global order counter and the order index agree.
func loadOLTP(m *machine.Machine, spec compass.RunSpec, s seeds) (func(*outcome) error, error) {
	w := tpccConfig(spec, s)
	wl := tpcc.Setup(m.FS, w)
	done := make([]bool, w.Agents)
	for i := 0; i < w.Agents; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("agent%d", i), func(p *frontend.Proc) {
			wl.Agent(p, i)
			done[i] = true
		})
	}
	return func(o *outcome) error {
		hits, misses := db.Stats(wl.Cat)
		o.poolHits, o.poolMisses = hits, misses
		tx := 0
		for _, d := range done {
			if d {
				tx += w.TxPerAgent
			}
		}
		if tx != w.Agents*w.TxPerAgent {
			return fmt.Errorf("transactions %d, want agents*tx = %d", tx, w.Agents*w.TxPerAgent)
		}
		var verr error
		m.SpawnConnected("verify", func(p *frontend.Proc) { verr = wl.VerifyOrders(p) })
		m.Sim.Run()
		return verr
	}, nil
}

// loadDSS is compass.RunTPCD's setup (Q1 + Q6 partitioned scans), keeping
// each agent's partial answers so they can be checked against the
// workload's host-side oracles.
func loadDSS(m *machine.Machine, spec compass.RunSpec, s seeds) (func(*outcome) error, error) {
	w := tpcdConfig(spec, s)
	wl := tpcd.Setup(m.FS, w)
	pages := wl.LineitemPages()
	q1 := make([]tpcd.Q1Result, w.Agents)
	q6 := make([]uint64, w.Agents)
	const cutoff, d0, d1, dc, qmax = 1500, 100, 1800, 5, 30
	for i := 0; i < w.Agents; i++ {
		i := i
		m.SpawnConnected(fmt.Sprintf("agent%d", i), func(p *frontend.Proc) {
			a := db.NewAgent(p, wl.Cat)
			first, last := pages*i/w.Agents, pages*(i+1)/w.Agents
			q1[i] = wl.Q1(p, a, first, last, cutoff)
			q6[i] = wl.Q6(p, a, first, last, d0, d1, dc, qmax)
			a.Close()
		})
	}
	return func(o *outcome) error {
		o.poolHits, o.poolMisses = db.Stats(wl.Cat)
		var got tpcd.Q1Result
		var rev uint64
		for i := range q1 {
			got.Count += q1[i].Count
			got.SumQty += q1[i].SumQty
			got.SumPrice += q1[i].SumPrice
			rev += q6[i]
		}
		if want := wl.HostQ1(cutoff); got != want {
			return fmt.Errorf("Q1 %+v, oracle %+v", got, want)
		}
		if want := wl.HostQ6(d0, d1, dc, qmax); rev != want {
			return fmt.Errorf("Q6 revenue %d, oracle %d", rev, want)
		}
		return nil
	}, nil
}

// loadWeb is compass.RunLoadHTTPD's setup: the static catalogs are
// materialized in the simulated filesystem, httpd workers listen, and the
// open-loop generator is armed. The configuration injects no faults, so
// the facade's client ARQ is never enabled.
func loadWeb(m *machine.Machine, spec compass.RunSpec, s seeds) (func(*outcome) error, error) {
	lc, err := loadConfig(spec, s)
	if err != nil {
		return nil, err
	}
	if err := lc.Validate(); err != nil {
		return nil, err
	}
	cats := make([]loadgen.Catalog, len(lc.Classes))
	for i, cl := range lc.Classes {
		sizes := cl.Sizes(lc.Seed, i)
		cats[i] = make(loadgen.Catalog, len(sizes))
		for j, sz := range sizes {
			cats[i][j] = loadgen.Object{Path: "/" + loadgen.ObjectPath(cl.Name, j), Size: sz}
			data := make([]byte, sz)
			for k := range data {
				data[k] = byte('a' + (j+k)%26)
			}
			m.FS.SetupCreate(loadgen.ObjectPath(cl.Name, j), data)
		}
	}
	hcfg := httpd.DefaultConfig()
	hcfg.Workers = spec.Agents
	m.FS.SetupCreate(hcfg.LogFile, nil)
	st := make([]httpd.Stats, spec.Agents)
	for i := range st {
		i := i
		m.SpawnConnected(fmt.Sprintf("httpd%d", i), func(p *frontend.Proc) {
			httpd.Worker(p, hcfg, &st[i])
		})
	}
	g, err := loadgen.New(m.Sim, m.NIC, lc, cats, spec.Agents, hcfg.Port)
	if err != nil {
		return nil, err
	}
	g.Start()
	return func(o *outcome) error {
		rows := g.Rows()
		o.loadTable = stats.FormatLoadTable(rows)
		for _, r := range rows {
			o.loadOffered += r.Offered
			o.loadFailed += r.Failed
			o.loadP99 = math.Max(o.loadP99, r.Latency.Quantile(0.99))
		}
		var served, notFound uint64
		for _, x := range st {
			served += x.Served
			notFound += x.NotFound
		}
		want := uint64(lc.Requests)
		switch {
		case g.Failed() != 0:
			return fmt.Errorf("loadgen failed %d requests", g.Failed())
		case g.BadBytes() != 0:
			return fmt.Errorf("loadgen saw %d bad response bytes", g.BadBytes())
		case g.Offered() != want || g.Completed() != want:
			return fmt.Errorf("offered %d, completed %d, want %d", g.Offered(), g.Completed(), want)
		case served != want || notFound != 0:
			return fmt.Errorf("served %d (%d not found), want %d", served, notFound, want)
		}
		return nil
	}, nil
}
