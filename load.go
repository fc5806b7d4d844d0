package compass

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"compass/internal/apps/httpd"
	"compass/internal/apps/tier3"
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

// addLoadStats records the generator's tallies and latency table.
func addLoadStats(res *Result, g *loadgen.Generator) {
	res.LoadTable = stats.FormatLoadTable(g.Rows())
	res.Extra["offered"] = float64(g.Offered())
	res.Extra["completed"] = float64(g.Completed())
	res.Extra["failed"] = float64(g.Failed())
	res.Extra["badbytes"] = float64(g.BadBytes())
}

// loadMeta is the loadgen checkpoint section: the worker-name base plus
// the generator's aggregate state (draw counters, tallies, histograms).
type loadMeta struct {
	WorkerBase int
	Gen        loadgen.State
}

// RunLoadHTTPD runs the web server under the open-loop generator: the
// million-client analogue of RunSPECWeb's closed-loop trace player.
func RunLoadHTTPD(cfg Config, lc LoadConfig, workers int) (Result, error) {
	res, _, err := runLoadHTTPD(cfg, []LoadConfig{lc}, workers, Checkpoints{})
	return res, err
}

// runLoadHTTPD is RunPhased's open-loop case. It also returns the last
// phase's generator, for tests that assert on pool behavior (memory
// proportional to in-flight requests, not clients).
func runLoadHTTPD(cfg Config, phases []LoadConfig, workers int, ck Checkpoints) (Result, *loadgen.Generator, error) {
	for _, lc := range phases {
		if err := lc.Validate(); err != nil {
			return Result{}, nil, err
		}
	}
	hcfg := httpd.DefaultConfig()
	hcfg.Workers = workers
	var (
		base  int
		st    []httpd.Stats
		g     *loadgen.Generator
		state *loadgen.State // the previous phase's generator, continued by the next
	)
	// continued snapshots the current generator for the next phase or a
	// checkpoint; a restored run has it from the checkpoint.
	continued := func() (*loadgen.State, error) {
		if g == nil {
			return state, nil
		}
		s, err := g.Snapshot()
		return &s, err
	}
	j := &job{
		name:   "load/httpd",
		phases: len(phases),
		spawn: func(m *machine.Machine, k int) (bool, error) {
			lc := phases[k]
			cats := staticCatalogs(lc)
			if k == 0 {
				materializeStatic(m.FS, lc, cats)
				m.FS.SetupCreate(hcfg.LogFile, nil)
			}
			prev, err := continued()
			if err != nil {
				return false, err
			}
			st = make([]httpd.Stats, workers)
			spawnHTTPDWorkers(m, hcfg, st, base)
			base += workers
			if g, err = loadgen.New(m.Sim, m.NIC, lc, cats, workers, hcfg.Port); err != nil {
				return false, err
			}
			if prev != nil {
				if err := g.Restore(*prev); err != nil {
					return false, err
				}
			}
			enableARQ(g, m.Cfg)
			g.Start()
			return true, nil
		},
		section: "loadgen",
		attach: func(raw []byte) error {
			var meta loadMeta
			err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&meta)
			base, state = meta.WorkerBase, &meta.Gen
			return err
		},
		save: func() ([]byte, error) {
			gen, err := continued()
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = gob.NewEncoder(&buf).Encode(loadMeta{WorkerBase: base, Gen: *gen})
			return buf.Bytes(), err
		},
		extra: func(res *Result) {
			addLoadStats(res, g)
			addHTTPDStats(res, st)
		},
	}
	res, err := drive(cfg, j, ck)
	return res, g, err
}

// RunLoadTier3 runs the three-tier dynamic-content stack under the
// open-loop generator.
func RunLoadTier3(cfg Config, w Tier3Config, lc LoadConfig) (Result, error) {
	if err := lc.Validate(); err != nil {
		return Result{}, err
	}
	st := make([]tier3.Stats, w.WebWorkers)
	var g *loadgen.Generator
	res, err := drive(cfg, &job{name: "load/tier3", phases: 1, spawn: func(m *machine.Machine, _ int) (bool, error) {
		wl := tier3.Setup(m.FS, w)
		spawnTier3(m, w, wl, st)
		var err error
		if g, err = loadgen.New(m.Sim, m.NIC, lc, tier3Catalogs(lc, w, wl), w.WebWorkers, w.WebPort); err != nil {
			return false, err
		}
		enableARQ(g, cfg)
		g.Start()
		return true, nil
	}}, Checkpoints{})
	if err != nil {
		return Result{}, err
	}
	addLoadStats(&res, g)
	addTier3Stats(&res, st)
	return res, nil
}
