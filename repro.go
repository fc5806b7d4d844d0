package compass

import (
	"fmt"

	"compass/internal/guard"
	"compass/internal/machine"
)

// SpecConfig rebuilds the machine configuration a guard.RunSpec describes,
// after checking the whole spec (checkSpec). The simulation is a pure
// function of the spec, so a rebuilt config replays a bundled failure
// exactly.
func SpecConfig(spec RunSpec) (Config, error) {
	if err := checkSpec(spec); err != nil {
		return Config{}, err
	}
	cfg := DefaultConfig()
	if spec.CPUs > 0 {
		cfg.CPUs = spec.CPUs
	}
	if spec.Nodes > 0 {
		cfg.Nodes = spec.Nodes
	}
	switch spec.Arch {
	case "", "simple":
		cfg.Arch = ArchSimple
	case "fixed":
		cfg.Arch = ArchFixed
	case "smp":
		cfg.Arch = ArchSMP
	case "ccnuma":
		cfg.Arch = ArchCCNUMA
	case "coma":
		cfg.Arch = ArchCOMA
	default:
		return cfg, fmt.Errorf("compass: unknown arch %q", spec.Arch)
	}
	switch spec.Placement {
	case "", "round-robin":
		cfg.Placement = PlaceRoundRobin
	case "block":
		cfg.Placement = PlaceBlock
	case "first-touch":
		cfg.Placement = PlaceFirstTouch
	default:
		return cfg, fmt.Errorf("compass: unknown placement %q", spec.Placement)
	}
	switch spec.Sched {
	case "", "fcfs":
	case "affinity":
		cfg.Scheduler = SchedAffinity
	default:
		return cfg, fmt.Errorf("compass: unknown scheduler %q", spec.Sched)
	}
	cfg.Preemptive = spec.Preempt
	cfg.RTC = spec.RTC
	cfg.SyncdInterval = spec.Syncd
	cfg.MigrateThreshold = spec.Migrate
	if spec.Faults != "" {
		fc, err := ParseFaultSpec(spec.Faults)
		if err != nil {
			return cfg, fmt.Errorf("compass: spec faults: %w", err)
		}
		cfg.Faults = fc
	}
	if spec.Seed != 0 {
		cfg.Faults.Seed = spec.Seed
	}
	return cfg, nil
}

// checkSpec rejects a spec that cannot describe a run, before any machine
// is built: a typo must come back as a usage error, not as a crash (and a
// crash-repro bundle) from inside the simulation. Zero counts mean
// "default", so old bundle manifests keep decoding to the same runs.
func checkSpec(spec RunSpec) error {
	for _, f := range []struct {
		name string
		n    int
	}{
		{"cpus", spec.CPUs}, {"nodes", spec.Nodes}, {"agents", spec.Agents}, {"tx", spec.Tx},
		{"rows", spec.Rows}, {"requests", spec.Requests}, {"segments", spec.Segments},
	} {
		if f.n < 0 {
			return fmt.Errorf("compass: negative %s (%d)", f.name, f.n)
		}
	}
	cpus, nodes := spec.CPUs, spec.Nodes
	if cpus == 0 {
		cpus = DefaultConfig().CPUs
	}
	if nodes == 0 {
		nodes = 1
	}
	if cpus%nodes != 0 {
		return fmt.Errorf("compass: %d CPUs not divisible by %d nodes", cpus, nodes)
	}
	// Every TPC-D order owns Rows/Orders line items; fewer rows than
	// orders makes that zero, and the table setup divides by it.
	if orders := DefaultTPCD().Orders; spec.Workload == "tpcd" && spec.Rows > 0 && spec.Rows < orders {
		return fmt.Errorf("compass: tpcd needs at least %d rows (one per order), got %d", orders, spec.Rows)
	}
	if _, err := ParseChaosSpec(spec.Chaos); err != nil {
		return err
	}
	if spec.Load != "" {
		if _, err := ParseLoadSpec(spec.Load); err != nil {
			return fmt.Errorf("compass: spec load: %w", err)
		}
	}
	return nil
}

// specRun rebuilds the run a guard.RunSpec describes: the machine config,
// the workload runner (auto-checkpointed segments for tpcc, open-loop
// load for specweb/tier3) and the spec's chaos plan, which it wires into
// the config (the blocking process), the runner (the crash segment) and
// gcfg (the crash seed). gcfg.Spec is stamped so that the bundle written
// on a failure replays this exact run.
func specRun(spec RunSpec, gcfg *GuardConfig) (Config, GuardedRunner, error) {
	cfg, err := SpecConfig(spec)
	if err != nil {
		return cfg, nil, err
	}
	// SpecConfig has checked both strings.
	ch, _ := ParseChaosSpec(spec.Chaos)
	var lc LoadConfig
	if spec.Load != "" {
		lc, _ = ParseLoadSpec(spec.Load)
	}
	if ch.Block {
		prev := cfg.Observe
		block := ObserveBlock()
		cfg.Observe = func(m *machine.Machine) {
			if prev != nil {
				prev(m)
			}
			block(m)
		}
	}
	if hook := ch.ChaosPanicFor(cfg.Faults.Seed); hook != nil {
		gcfg.ChaosPanic = hook
	}
	gcfg.Spec = spec

	agents := spec.Agents
	switch spec.Workload {
	case "tpcc":
		w := DefaultTPCC()
		if agents > 0 {
			w.Agents = agents
		}
		if spec.Tx > 0 {
			w.TxPerAgent = spec.Tx
		}
		var ck Checkpoints
		if spec.Segments > 1 || spec.AutoCkptDir != "" {
			ck = Checkpoints{Dir: spec.AutoCkptDir, Interval: spec.AutoCkptInterval, CrashAfter: ch.CrashSegment}
		}
		phases := tpccSegments(w, spec.Segments)
		return cfg, func(c Config, sess *guard.Session) (Result, error) {
			ck := ck
			if sess != nil {
				ck.Note = sess.NoteCheckpoint
			}
			return RunPhased(c, phases, 0, 0, ck)
		}, nil
	case "tpcd":
		w := DefaultTPCD()
		if agents > 0 {
			w.Agents = agents
		}
		if spec.Rows > 0 {
			w.Rows = spec.Rows
		}
		return cfg, Guarded(func(c Config) Result { return RunTPCD(c, w) }), nil
	case "specweb":
		if agents <= 0 {
			agents = 4
		}
		if spec.Load != "" {
			return cfg, GuardedErr(func(c Config) (Result, error) { return RunLoadHTTPD(c, lc, agents) }), nil
		}
		w := DefaultSPECWeb()
		if spec.Requests > 0 {
			w.Requests = spec.Requests
		}
		return cfg, Guarded(func(c Config) Result { return RunSPECWeb(c, w, agents, agents*2) }), nil
	case "tier3":
		w := DefaultTier3()
		if spec.Load != "" {
			return cfg, GuardedErr(func(c Config) (Result, error) { return RunLoadTier3(c, w, lc) }), nil
		}
		requests := spec.Requests
		if requests <= 0 {
			requests = 120
		}
		return cfg, Guarded(func(c Config) Result { return RunTier3(c, w, requests) }), nil
	case "sor":
		if agents <= 0 {
			agents = 4
		}
		return cfg, Guarded(func(c Config) Result {
			return RunSOR(c, SORConfig{N: 64, Iters: 6, Procs: agents})
		}), nil
	default:
		return cfg, nil, fmt.Errorf("compass: unknown workload %q", spec.Workload)
	}
}

// RunSpecGuarded executes the single run a spec describes under full
// supervision — the engine behind both a normal `compassrun` invocation
// and `compassrun -repro <bundle>`.
func RunSpecGuarded(spec RunSpec, gcfg GuardConfig) (Result, error) {
	cfg, run, err := specRun(spec, &gcfg)
	if err != nil {
		return Result{}, err
	}
	return RunGuarded(cfg, gcfg, spec.Workload, run)
}

// RunSpecCampaign runs the spec's workload once per fault seed under
// supervision (RunSeedCampaign) — the engine behind `compassrun -seeds`.
// Each point's bundle carries the spec with that point's seed, so it
// replays through RunSpecGuarded.
func RunSpecCampaign(spec RunSpec, seeds []uint64, gcfg GuardConfig, opts ExptOptions) (CampaignResult, error) {
	cfg, run, err := specRun(spec, &gcfg)
	if err != nil {
		return CampaignResult{}, err
	}
	return RunSeedCampaign(cfg, seeds, gcfg, run, opts), nil
}
