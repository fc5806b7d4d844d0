package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"compass"
	"compass/internal/coma"
	"compass/internal/comm"
	"compass/internal/core"
	"compass/internal/directory"
	"compass/internal/event"
	"compass/internal/frontend"
	"compass/internal/mem"
	"compass/internal/memsys"
	"compass/internal/noc"
	"compass/internal/snoop"
)

// countingModel counts every reference the backend hands its model.
type countingModel struct {
	memsys.Model
	n uint64
}

func (c *countingModel) Access(now event.Cycle, cpu int, pa mem.PhysAddr, write bool) event.Cycle {
	c.n++
	return c.Model.Access(now, cpu, pa, write)
}

// TestRefsCountsEveryModelAccess runs a tiny known reference mix on each
// of the five architectures and checks that refs counts exactly the
// references the backend handed the model, loads and stores apart.
func TestRefsCountsEveryModelAccess(t *testing.T) {
	const cpus, nodes, procs, loads, stores, rmws = 4, 2, 3, 40, 25, 7
	models := map[string]func(*mem.Physical) memsys.Model{
		"fixed":  func(*mem.Physical) memsys.Model { return &memsys.Fixed{Latency: 10} },
		"simple": func(*mem.Physical) memsys.Model { return snoop.New(snoop.SimpleConfig(cpus)) },
		"smp":    func(*mem.Physical) memsys.Model { return snoop.New(snoop.SMPConfig(cpus)) },
		"ccnuma": func(phys *mem.Physical) memsys.Model {
			cfg := directory.DefaultConfig(nodes, cpus/nodes)
			cfg.Net = noc.DefaultConfig(nodes)
			return directory.New(cfg, func(frame uint64, node int) int { return phys.Touch(frame, node) })
		},
		"coma": func(*mem.Physical) memsys.Model { return coma.New(coma.DefaultConfig(nodes, cpus/nodes)) },
	}
	for name, build := range models {
		t.Run(name, func(t *testing.T) {
			var counted *countingModel
			cfg := core.DefaultConfig()
			cfg.CPUs, cfg.CPUsPerNode, cfg.MemNodes, cfg.MemFrames = cpus, cpus/nodes, nodes, 1024
			cfg.NewModel = func(phys *mem.Physical, _ int) memsys.Model {
				counted = &countingModel{Model: build(phys)}
				return counted
			}
			s := core.New(cfg)
			for i := 0; i < procs; i++ {
				s.Spawn(fmt.Sprintf("p%d", i), func(p *frontend.Proc) {
					base := p.Call(50, func() any {
						va, err := s.Sbrk(p.ID(), 4096)
						if err != nil {
							panic(err)
						}
						return va
					}).(mem.VirtAddr)
					for j := 0; j < loads; j++ {
						p.Load(base+mem.VirtAddr(64*j%4096), 4)
					}
					for j := 0; j < stores; j++ {
						p.Store(base+mem.VirtAddr(32*j%4096), 4)
					}
					for j := 0; j < rmws; j++ {
						p.RMW(base, 4, comm.RMWAdd, 1, 0, false)
					}
				})
			}
			s.Run()
			c := s.Counters()
			if got := counted.Name(); got != name {
				t.Fatalf("model name %q, want %q", got, name)
			}
			if got, want := refs(c, name), uint64(procs*(loads+stores+rmws)); got != want || counted.n != want {
				t.Fatalf("refs %d, model saw %d, want %d", got, counted.n, want)
			}
			if name != "fixed" {
				if got := c.Get(name + ".loads"); got != procs*loads {
					t.Errorf("loads %d, want %d", got, procs*loads)
				}
				if got := c.Get(name + ".stores"); got != procs*(stores+rmws) {
					t.Errorf("stores %d, want %d (RMWs included)", got, procs*(stores+rmws))
				}
			}
		})
	}
}

// TestGoldenMatchesCompassrun checks, at the default seed, that the
// benchmark's own assembly of each workload, compassrun's entry point
// (RunSpecGuarded on the same RunSpec) and the recorded golden digest
// all agree, and that each run passes its output check.
func TestGoldenMatchesCompassrun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload twice at full size")
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		s := simulate(w, defaultSeed)
		if s.err != nil {
			t.Fatalf("%s: %v", w.name, s.err)
		}
		res, err := compass.RunSpecGuarded(w.spec, compass.GuardConfig{})
		if err != nil {
			t.Fatalf("%s: compassrun path: %v", w.name, err)
		}
		if got := resultDigest(res); got != s.digest || got != golden[w.name] {
			t.Errorf("%s: compassrun %s, benchmark %s, golden %s", w.name, got, s.digest, golden[w.name])
		}
	}
}

// TestSeedsReachEverySite checks that the benchmark seed offsets the TPCC,
// TPCD and loadgen seeds, and that seed 0 leaves compassrun's defaults.
func TestSeedsReachEverySite(t *testing.T) {
	for _, n := range []int64{defaultSeed, 1, heldOutSeed} {
		sd := seedsFor(n)
		oltp, _ := workloadNamed("oltp-numa")
		dss, _ := workloadNamed("dss-scan")
		web, _ := workloadNamed("web-flash")
		lc, err := loadConfig(web.spec, sd)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tpccConfig(oltp.spec, sd).Seed, compass.DefaultTPCC().Seed+n; got != want {
			t.Errorf("seed %d: tpcc seed %d, want %d", n, got, want)
		}
		if got, want := tpcdConfig(dss.spec, sd).Seed, compass.DefaultTPCD().Seed+n; got != want {
			t.Errorf("seed %d: tpcd seed %d, want %d", n, got, want)
		}
		if lc.Seed != uint64(n) {
			t.Errorf("seed %d: loadgen seed %d", n, lc.Seed)
		}
	}
}

// TestVerifyCountsFailures checks that a failed sample, a sample whose
// digest differs from an earlier one on the same seed, and a default-seed
// sample that differs from the golden digest all count as failed
// operations, while other seeds are not held to the golden digest.
func TestVerifyCountsFailures(t *testing.T) {
	ok := sample{seed: defaultSeed, digest: "a"}
	other := sample{seed: 1, digest: "z"}
	cases := []struct {
		samples []sample
		golden  string
		failed  int
	}{
		{[]sample{ok, ok, other}, "", 0},
		{[]sample{ok, other, ok}, "a", 0},
		{[]sample{ok, ok, other}, "b", 2},
		{[]sample{ok, {seed: defaultSeed, digest: "c"}, other}, "", 1},
		{[]sample{other, {seed: 1, digest: "y"}}, "a", 1},
		{[]sample{ok, {err: errors.New("boom")}}, "", 1},
	}
	for i, c := range cases {
		good, failed := verify(c.samples, c.golden)
		if failed != c.failed || len(good) != len(c.samples)-c.failed {
			t.Errorf("case %d: %d failed, %d good; want %d failed", i, failed, len(good), c.failed)
		}
	}
}
