package compass

import (
	"fmt"

	"compass/internal/machine"
)

// SpecConfig rebuilds the machine configuration a guard.RunSpec describes.
// The simulation is a pure function of the spec, so a rebuilt config
// replays a bundled failure exactly.
func SpecConfig(spec RunSpec) (Config, error) {
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

// SpecRunner rebuilds the workload runner a guard.RunSpec describes,
// including AutoCkpt segmentation (tpcc) and open-loop load generation
// (specweb/tier3). The chaos plan's crash-segment injection is wired here;
// the crash-seed and block injections live in SpecChaos.
func SpecRunner(spec RunSpec) (GuardedRunner, error) {
	ch, err := ParseChaosSpec(spec.Chaos)
	if err != nil {
		return nil, err
	}
	var lc LoadConfig
	if spec.Load != "" {
		if lc, err = ParseLoadSpec(spec.Load); err != nil {
			return nil, fmt.Errorf("compass: spec load: %w", err)
		}
	}
	switch spec.Workload {
	case "tpcc":
		w := DefaultTPCC()
		if spec.Agents > 0 {
			w.Agents = spec.Agents
		}
		if spec.Tx > 0 {
			w.TxPerAgent = spec.Tx
		}
		if spec.Segments > 1 || spec.AutoCkptDir != "" {
			return GuardedTPCCAuto(w, AutoCkpt{
				Interval:          spec.AutoCkptInterval,
				Dir:               spec.AutoCkptDir,
				Segments:          spec.Segments,
				ChaosCrashSegment: ch.CrashSegment,
			}), nil
		}
		return Guarded(func(c Config) Result { return RunTPCC(c, w) }), nil
	case "tpcd":
		w := DefaultTPCD()
		if spec.Agents > 0 {
			w.Agents = spec.Agents
		}
		if spec.Rows > 0 {
			w.Rows = spec.Rows
		}
		return Guarded(func(c Config) Result { return RunTPCD(c, w) }), nil
	case "specweb":
		agents := spec.Agents
		if agents <= 0 {
			agents = 4
		}
		if spec.Load != "" {
			return GuardedErr(func(c Config) (Result, error) { return RunLoadHTTPD(c, lc, agents) }), nil
		}
		w := DefaultSPECWeb()
		if spec.Requests > 0 {
			w.Requests = spec.Requests
		}
		return Guarded(func(c Config) Result { return RunSPECWeb(c, w, agents, agents*2) }), nil
	case "tier3":
		w := DefaultTier3()
		if spec.Load != "" {
			return GuardedErr(func(c Config) (Result, error) { return RunLoadTier3(c, w, lc) }), nil
		}
		requests := spec.Requests
		if requests <= 0 {
			requests = 120
		}
		return Guarded(func(c Config) Result { return RunTier3(c, w, requests) }), nil
	case "sor":
		procs := spec.Agents
		if procs <= 0 {
			procs = 4
		}
		return Guarded(func(c Config) Result {
			return RunSOR(c, SORConfig{N: 64, Iters: 6, Procs: procs})
		}), nil
	default:
		return nil, fmt.Errorf("compass: unknown workload %q", spec.Workload)
	}
}

// SpecChaos wires the spec's chaos plan into the config and guard config:
// the blocking process onto cfg.Observe and the crash-seed panic onto
// gcfg.ChaosPanic. (Crash-segment injection rides inside SpecRunner's
// AutoCkpt plan.)
func SpecChaos(spec RunSpec, cfg *Config, gcfg *GuardConfig) error {
	ch, err := ParseChaosSpec(spec.Chaos)
	if err != nil {
		return err
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
	return nil
}

// RunSpecGuarded executes the single run a spec describes under full
// supervision — the engine behind both a normal `compassrun` invocation
// and `compassrun -repro <bundle>`. The spec is stamped into gcfg so the
// bundle written on failure replays this exact run.
func RunSpecGuarded(spec RunSpec, gcfg GuardConfig) (Result, error) {
	cfg, err := SpecConfig(spec)
	if err != nil {
		return Result{}, err
	}
	run, err := SpecRunner(spec)
	if err != nil {
		return Result{}, err
	}
	if err := SpecChaos(spec, &cfg, &gcfg); err != nil {
		return Result{}, err
	}
	gcfg.Spec = spec
	return RunGuarded(cfg, gcfg, spec.Workload, run)
}
