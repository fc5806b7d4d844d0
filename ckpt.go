package compass

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"time"

	"compass/internal/apps/db"
	"compass/internal/apps/httpd"
	"compass/internal/apps/tpcc"
	"compass/internal/checkpoint"
	"compass/internal/frontend"
	"compass/internal/machine"
	"compass/internal/specweb"
	"compass/internal/trace"
)

// RunOptions controls warm-start checkpointing for the phased Run*
// variants. A phased run executes a warm phase (cache/pool/page-table
// warmup) to quiescence, then a measured phase on the same machine.
//
// With WarmupCheckpoint set, the machine state is snapshotted between the
// phases; with ResumeFrom set, the warm phase is skipped entirely and the
// measured phase runs on the restored machine. Restore is bit-deterministic:
// the resumed measured phase produces exactly the stats of the
// uninterrupted run.
type RunOptions struct {
	// WarmupCheckpoint, when non-empty, writes a snapshot file after the
	// warm phase completes.
	WarmupCheckpoint string
	// ResumeFrom, when non-empty, restores the warm phase from a snapshot
	// file instead of simulating it. Mutually exclusive with
	// WarmupCheckpoint.
	ResumeFrom string
}

func (o RunOptions) validate() error {
	if o.WarmupCheckpoint != "" && o.ResumeFrom != "" {
		return fmt.Errorf("compass: WarmupCheckpoint and ResumeFrom are mutually exclusive")
	}
	return nil
}

// tpccSection names the TPCC host-side state section in a checkpoint.
const tpccSection = "tpcc"

// specwebSection names the SPECWeb host-side state section.
const specwebSection = "specweb"

// specwebMeta is the SPECWeb checkpoint section: the next worker index, so
// resumed spawns continue the uninterrupted run's process-naming sequence.
type specwebMeta struct {
	WorkerBase int
}

func saveCheckpointFile(path string, m *machine.Machine, sections []checkpoint.Section) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := checkpoint.SaveSections(f, m, sections); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func restoreCheckpointFile(path string) (*machine.Machine, map[string][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return checkpoint.RestoreFull(f)
}

func spawnTPCCAgents(m *machine.Machine, wl *tpcc.Workload, base, n int) {
	for i := 0; i < n; i++ {
		idx := base + i
		m.SpawnConnected(fmt.Sprintf("agent%d", idx), func(p *frontend.Proc) {
			wl.Agent(p, idx)
		})
	}
}

// RunTPCCWithOptions runs the OLTP workload in two phases: a warm phase at
// the `warm` scale, then a measured phase at the `measured` scale on the
// same (warmed) machine. The measured config may change Agents, TxPerAgent,
// Seed and the transaction mix, but not the schema scale. See RunOptions
// for checkpointing between the phases.
func RunTPCCWithOptions(cfg Config, warm, measured TPCCConfig, opts RunOptions) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	var (
		m    *machine.Machine
		wl   *tpcc.Workload
		base int
	)
	start := time.Now()
	if opts.ResumeFrom != "" {
		var sections map[string][]byte
		var err error
		m, sections, err = restoreCheckpointFile(opts.ResumeFrom)
		if err != nil {
			return Result{}, err
		}
		state, ok := sections[tpccSection]
		if !ok {
			return Result{}, fmt.Errorf("compass: checkpoint has no %q section", tpccSection)
		}
		warmWL, b, err := tpcc.AttachRestore(state)
		if err != nil {
			return Result{}, err
		}
		base = b
		if wl, err = warmWL.WithConfig(measured); err != nil {
			return Result{}, err
		}
	} else {
		m = machine.New(cfg)
		warmWL := tpcc.Setup(m.FS, warm)
		spawnTPCCAgents(m, warmWL, 0, warm.Agents)
		m.Sim.Run()
		base = warm.Agents
		if opts.WarmupCheckpoint != "" {
			state, err := warmWL.SaveState(base)
			if err != nil {
				return Result{}, err
			}
			if err := saveCheckpointFile(opts.WarmupCheckpoint, m,
				[]checkpoint.Section{{Name: tpccSection, Data: state}}); err != nil {
				return Result{}, err
			}
		}
		var err error
		if wl, err = warmWL.WithConfig(measured); err != nil {
			return Result{}, err
		}
	}

	spawnTPCCAgents(m, wl, base, measured.Agents)
	end := m.Sim.Run()
	res := finish("TPCC/db", m, uint64(end), time.Since(start))
	res.Extra["transactions"] = float64(measured.Agents * measured.TxPerAgent)
	hits, misses := db.Stats(wl.Cat)
	res.Extra["pool.hits"] = float64(hits)
	res.Extra["pool.misses"] = float64(misses)
	return res, nil
}

func spawnHTTPDWorkers(m *machine.Machine, hcfg httpd.Config, st []httpd.Stats, base int) {
	for i := range st {
		i := i
		m.SpawnConnected(fmt.Sprintf("httpd%d", base+i), func(p *frontend.Proc) {
			httpd.Worker(p, hcfg, &st[i])
		})
	}
}

// RunSPECWebWithOptions runs the web workload in two phases: the `warm`
// trace against a freshly generated fileset, then the `measured` trace on
// the same machine — warmed buffer cache, bound listener, populated log.
// Worker processes exit between phases (goroutine state cannot be
// checkpointed) and fresh workers re-attach to the listener. See RunOptions
// for checkpointing between the phases.
func RunSPECWebWithOptions(cfg Config, warm, measured SPECWebConfig, workers, concurrency int, opts RunOptions) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	hcfg := httpd.DefaultConfig()
	hcfg.Workers = workers
	var (
		m    *machine.Machine
		base int
	)
	start := time.Now()
	if opts.ResumeFrom != "" {
		var sections map[string][]byte
		var err error
		m, sections, err = restoreCheckpointFile(opts.ResumeFrom)
		if err != nil {
			return Result{}, err
		}
		state, ok := sections[specwebSection]
		if !ok {
			return Result{}, fmt.Errorf("compass: checkpoint has no %q section", specwebSection)
		}
		var meta specwebMeta
		if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&meta); err != nil {
			return Result{}, err
		}
		base = meta.WorkerBase
	} else {
		m = machine.New(cfg)
		specweb.GenerateFileset(m.FS, warm)
		m.FS.SetupCreate(hcfg.LogFile, nil)
		warmSt := make([]httpd.Stats, workers)
		spawnHTTPDWorkers(m, hcfg, warmSt, 0)
		warmPlayer := trace.NewPlayer(m.Sim, m.NIC, specweb.GenerateTrace(warm), trace.PlayerConfig{
			Concurrency: concurrency,
			ThinkCycles: 20_000,
			Workers:     workers,
			Port:        hcfg.Port,
		})
		enableClientARQ(warmPlayer, m.Cfg)
		warmPlayer.Start()
		m.Sim.Run()
		base = workers
		if opts.WarmupCheckpoint != "" {
			var meta bytes.Buffer
			if err := gob.NewEncoder(&meta).Encode(specwebMeta{WorkerBase: base}); err != nil {
				return Result{}, err
			}
			if err := saveCheckpointFile(opts.WarmupCheckpoint, m,
				[]checkpoint.Section{{Name: specwebSection, Data: meta.Bytes()}}); err != nil {
				return Result{}, err
			}
		}
	}

	st := make([]httpd.Stats, workers)
	spawnHTTPDWorkers(m, hcfg, st, base)
	player := trace.NewPlayer(m.Sim, m.NIC, specweb.GenerateTrace(measured), trace.PlayerConfig{
		Concurrency: concurrency,
		ThinkCycles: 20_000,
		Workers:     workers,
		Port:        hcfg.Port,
	})
	enableClientARQ(player, m.Cfg)
	player.Start()
	end := m.Sim.Run()
	res := finish("SPECWeb/httpd", m, uint64(end), time.Since(start))
	res.Extra["requests"] = float64(player.Completed)
	res.Extra["latency.mean"] = player.Latency.Mean()
	if player.ARQ() != nil {
		res.Extra["client.failures"] = float64(player.ClientFailures)
	}
	var served, sent uint64
	for _, s := range st {
		served += s.Served
		sent += s.BytesSent
	}
	res.Extra["served"] = float64(served)
	res.Extra["bytes"] = float64(sent)
	return res, nil
}
