package compass

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"compass/internal/apps/httpd"
	"compass/internal/apps/tier3"
	"compass/internal/checkpoint"
	"compass/internal/frontend"
	"compass/internal/fs"
	"compass/internal/loadgen"
	"compass/internal/machine"
	"compass/internal/stats"
)

// LoadConfig is the open-loop traffic plan (internal/loadgen); see
// loadgen.Config for fields and the -load grammar.
type LoadConfig = loadgen.Config

// ParseLoadSpec parses a -load command-line specification such as
// "seed=42,requests=400;class=web,clients=1000000,interval=1e9,flash=2e6:4e6:8".
func ParseLoadSpec(spec string) (LoadConfig, error) { return loadgen.ParseSpec(spec) }

// DefaultLoad returns a small single-class open-loop plan.
func DefaultLoad() LoadConfig {
	c := LoadConfig{
		Requests: 120,
		Classes:  []loadgen.ClassConfig{{Name: "web", Clients: 100_000, Interval: 2.5e8}},
	}
	c.ApplyDefaults()
	return c
}

// staticCatalogs derives the per-class object catalogs of a static-file
// plan — a pure function of the plan, so a resumed run rebuilds the
// identical catalogs without touching the restored filesystem.
func staticCatalogs(lc LoadConfig) []loadgen.Catalog {
	cats := make([]loadgen.Catalog, len(lc.Classes))
	for i, cl := range lc.Classes {
		sizes := cl.Sizes(lc.Seed, i)
		cat := make(loadgen.Catalog, len(sizes))
		for j, sz := range sizes {
			cat[j] = loadgen.Object{Path: "/" + loadgen.ObjectPath(cl.Name, j), Size: sz}
		}
		cats[i] = cat
	}
	return cats
}

// materializeStatic creates the catalog files in the simulated
// filesystem (fresh machines only; restored machines carry them).
func materializeStatic(filesys *fs.FS, lc LoadConfig, cats []loadgen.Catalog) {
	for i, cl := range lc.Classes {
		for j := range cats[i] {
			data := make([]byte, cats[i][j].Size)
			for k := range data {
				data[k] = byte('a' + (j+k)%26)
			}
			filesys.SetupCreate(loadgen.ObjectPath(cl.Name, j), data)
		}
	}
}

// tier3Catalogs derives per-class /dyn/<key> catalogs against the
// database tier, sized by the oracle so response bodies validate.
func tier3Catalogs(lc LoadConfig, w Tier3Config, wl *tier3.Workload) []loadgen.Catalog {
	cats := make([]loadgen.Catalog, len(lc.Classes))
	for i, cl := range lc.Classes {
		keys := cl.Keys(lc.Seed, i, w.Rows)
		cat := make(loadgen.Catalog, len(keys))
		for j, key := range keys {
			body := fmt.Sprintf("<html>key %d -> VAL %d</html>", key, wl.OracleValue(key))
			cat[j] = loadgen.Object{Path: fmt.Sprintf("/dyn/%d", key), Size: len(body)}
		}
		cats[i] = cat
	}
	return cats
}

// enableLoadARQ arms the generator's link-level retransmission when the
// machine injects network faults, exactly as the trace player does.
func enableLoadARQ(g *loadgen.Generator, cfg Config) {
	fc := cfg.Faults
	fc.ApplyDefaults()
	if fc.NetEnabled() {
		g.EnableARQ(fc.Net)
	}
}

// loadResult folds the generator's tallies and latency table into a
// finished Result.
func loadResult(name string, m *machine.Machine, g *loadgen.Generator, end uint64, wall time.Duration) Result {
	res := finish(name, m, end, wall)
	res.LoadTable = stats.FormatLoadTable(g.Rows())
	res.Extra["offered"] = float64(g.Offered())
	res.Extra["completed"] = float64(g.Completed())
	res.Extra["failed"] = float64(g.Failed())
	res.Extra["badbytes"] = float64(g.BadBytes())
	return res
}

// RunLoadHTTPD runs the web server under the open-loop generator: the
// million-client analogue of RunSPECWeb's closed-loop trace player.
func RunLoadHTTPD(cfg Config, lc LoadConfig, workers int) (Result, error) {
	res, _, err := runLoadHTTPD(cfg, lc, workers)
	return res, err
}

// runLoadHTTPD exposes the generator for tests that assert on pool
// behavior (memory proportional to in-flight requests, not clients).
func runLoadHTTPD(cfg Config, lc LoadConfig, workers int) (Result, *loadgen.Generator, error) {
	if err := lc.Validate(); err != nil {
		return Result{}, nil, err
	}
	m := machine.New(cfg)
	cats := staticCatalogs(lc)
	materializeStatic(m.FS, lc, cats)
	hcfg := httpd.DefaultConfig()
	hcfg.Workers = workers
	m.FS.SetupCreate(hcfg.LogFile, nil)
	st := make([]httpd.Stats, workers)
	spawnHTTPDWorkers(m, hcfg, st, 0)
	g, err := loadgen.New(m.Sim, m.NIC, lc, cats, workers, hcfg.Port)
	if err != nil {
		return Result{}, nil, err
	}
	enableLoadARQ(g, cfg)
	g.Start()
	start := time.Now()
	end := m.Sim.Run()
	res := loadResult("load/httpd", m, g, uint64(end), time.Since(start))
	var served, sent uint64
	for _, s := range st {
		served += s.Served
		sent += s.BytesSent
	}
	res.Extra["served"] = float64(served)
	res.Extra["bytes"] = float64(sent)
	return res, g, nil
}

// RunLoadTier3 runs the three-tier dynamic-content stack under the
// open-loop generator.
func RunLoadTier3(cfg Config, w Tier3Config, lc LoadConfig) (Result, error) {
	if err := lc.Validate(); err != nil {
		return Result{}, err
	}
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
	g, err := loadgen.New(m.Sim, m.NIC, lc, tier3Catalogs(lc, w, wl), w.WebWorkers, w.WebPort)
	if err != nil {
		return Result{}, err
	}
	enableLoadARQ(g, cfg)
	g.Start()
	start := time.Now()
	end := m.Sim.Run()
	res := loadResult("load/tier3", m, g, uint64(end), time.Since(start))
	var ok uint64
	for _, s := range st {
		ok += s.OK
	}
	res.Extra["ok"] = float64(ok)
	return res, nil
}

// loadSection names the generator's host-side state section in a
// checkpoint.
const loadSection = "loadgen"

// loadMeta is the loadgen checkpoint section: the worker-name base plus
// the generator's aggregate state (draw counters, tallies, histograms).
type loadMeta struct {
	WorkerBase int
	Gen        loadgen.State
}

// RunLoadHTTPDWithOptions runs the open-loop web workload in two
// phases: the warm plan, then the measured plan on the same machine and
// continued draw streams. The measured Requests budget is cumulative
// (it counts the warm phase's offered requests), so a warm plan of 100
// and a measured plan of 300 offer 200 requests in the second phase.
// Flash windows are absolute simulated cycles, so a window opened late
// in the warm phase is still surging when the measured phase resumes —
// including across a checkpoint (see RunOptions).
func RunLoadHTTPDWithOptions(cfg Config, warm, measured LoadConfig, workers int, opts RunOptions) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	if err := measured.Validate(); err != nil {
		return Result{}, err
	}
	hcfg := httpd.DefaultConfig()
	hcfg.Workers = workers
	var (
		m     *machine.Machine
		base  int
		state loadgen.State
	)
	start := time.Now()
	if opts.ResumeFrom != "" {
		var sections map[string][]byte
		var err error
		m, sections, err = restoreCheckpointFile(opts.ResumeFrom)
		if err != nil {
			return Result{}, err
		}
		raw, ok := sections[loadSection]
		if !ok {
			return Result{}, fmt.Errorf("compass: checkpoint has no %q section", loadSection)
		}
		var meta loadMeta
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&meta); err != nil {
			return Result{}, err
		}
		base = meta.WorkerBase
		state = meta.Gen
	} else {
		if err := warm.Validate(); err != nil {
			return Result{}, err
		}
		m = machine.New(cfg)
		warmCats := staticCatalogs(warm)
		materializeStatic(m.FS, warm, warmCats)
		m.FS.SetupCreate(hcfg.LogFile, nil)
		warmSt := make([]httpd.Stats, workers)
		spawnHTTPDWorkers(m, hcfg, warmSt, 0)
		warmGen, err := loadgen.New(m.Sim, m.NIC, warm, warmCats, workers, hcfg.Port)
		if err != nil {
			return Result{}, err
		}
		enableLoadARQ(warmGen, m.Cfg)
		warmGen.Start()
		m.Sim.Run()
		base = workers
		if state, err = warmGen.Snapshot(); err != nil {
			return Result{}, err
		}
		if opts.WarmupCheckpoint != "" {
			var meta bytes.Buffer
			if err := gob.NewEncoder(&meta).Encode(loadMeta{WorkerBase: base, Gen: state}); err != nil {
				return Result{}, err
			}
			if err := saveCheckpointFile(opts.WarmupCheckpoint, m,
				[]checkpoint.Section{{Name: loadSection, Data: meta.Bytes()}}); err != nil {
				return Result{}, err
			}
		}
	}

	st := make([]httpd.Stats, workers)
	spawnHTTPDWorkers(m, hcfg, st, base)
	g, err := loadgen.New(m.Sim, m.NIC, measured, staticCatalogs(measured), workers, hcfg.Port)
	if err != nil {
		return Result{}, err
	}
	if err := g.Restore(state); err != nil {
		return Result{}, err
	}
	enableLoadARQ(g, m.Cfg)
	g.Start()
	end := m.Sim.Run()
	res := loadResult("load/httpd", m, g, uint64(end), time.Since(start))
	var served, sent uint64
	for _, s := range st {
		served += s.Served
		sent += s.BytesSent
	}
	res.Extra["served"] = float64(served)
	res.Extra["bytes"] = float64(sent)
	return res, nil
}
