package compass

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"compass/internal/frontend"
	"compass/internal/guard"
	"compass/internal/machine"
	"compass/internal/osserver"
)

// GuardConfig tunes run supervision; see guard.Config for fields.
type GuardConfig = guard.Config

// RunSpec is the CLI-level run description crash-repro bundles carry; see
// guard.RunSpec.
type RunSpec = guard.RunSpec

// GuardedRunner is a workload runner that may cooperate with its
// supervision session (auto-checkpointed runs note their checkpoints so an
// abort's bundle carries the latest one). Most runners ignore the session.
type GuardedRunner func(cfg Config, sess *guard.Session) (Result, error)

// Guarded adapts a plain runner to the supervised signature.
func Guarded(run func(Config) Result) GuardedRunner {
	return func(cfg Config, _ *guard.Session) (Result, error) { return run(cfg), nil }
}

// GuardedErr adapts an error-returning runner to the supervised signature.
func GuardedErr(run func(Config) (Result, error)) GuardedRunner {
	return func(cfg Config, _ *guard.Session) (Result, error) { return run(cfg) }
}

// RunGuarded executes one run under supervision: panics (workload bugs,
// engine deadlocks, watchdog aborts) come back as a classified
// *guard.Abort instead of crashing the process, and a crash-repro bundle
// is written when gcfg.BundleDir is set. The session attaches to every
// machine the runner constructs — the Observe hook threads it through
// entry points that build machines internally — so the watchdog and the
// dispatch ring see the machine actually running.
//
// Supervision is pure host-side observation: a guarded run that never
// trips returns a Result byte-identical to the unguarded run's.
func RunGuarded(cfg Config, gcfg guard.Config, label string, run GuardedRunner) (Result, error) {
	sess := guard.NewSession(gcfg)
	prev := cfg.Observe
	cfg.Observe = func(m *machine.Machine) {
		if prev != nil {
			prev(m)
		}
		sess.Attach(m.Sim)
	}
	var res Result
	err := sess.Run(label, func() error {
		r, e := run(cfg, sess)
		res = r
		return e
	})
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// bundleSub derives a per-attempt supervision config: the shared bundle
// root gains a unique subdirectory so concurrent attempts never collide.
func bundleSub(gcfg guard.Config, sub string) guard.Config {
	if gcfg.BundleDir != "" {
		gcfg.BundleDir = filepath.Join(gcfg.BundleDir, sub)
	}
	return gcfg
}

// ChaosConfig is a deterministic failure-injection plan for supervised
// runs — the chaos-smoke harness's knobs. All-zero injects nothing.
type ChaosConfig struct {
	// CrashSeed injects a host-side panic into the run (or campaign point)
	// whose effective fault seed equals this value. 0 = off.
	CrashSeed uint64
	// CrashSegment injects a panic after that many segments of an
	// auto-checkpointed run complete (1-based; see Checkpoints.CrashAfter).
	// 0 = off.
	CrashSegment int
	// Block spawns a process that blocks forever on an empty pipe: with the
	// RTC off the engine proves a deadlock; with it on, the run spins on
	// timer ticks until the watchdog's deadline trips.
	Block bool
}

// ParseChaosSpec parses a -chaos specification: comma-separated
// "crashseed=N", "crashsegment=N", "block", with N a non-negative decimal
// integer. Anything else — an unknown element, a sign, trailing bytes —
// is an error, so a typo never silently injects (or fails to inject) a
// fault.
func ParseChaosSpec(spec string) (ChaosConfig, error) {
	var c ChaosConfig
	for _, part := range strings.Split(spec, ",") {
		key, val, hasVal := strings.Cut(part, "=")
		var err error
		switch {
		case part == "":
			continue
		case part == "block":
			c.Block = true
		case key == "crashseed" && hasVal:
			c.CrashSeed, err = strconv.ParseUint(val, 10, 64)
		case key == "crashsegment" && hasVal:
			var n uint64
			n, err = strconv.ParseUint(val, 10, 31)
			c.CrashSegment = int(n)
		default:
			err = errors.New("unknown element")
		}
		if err != nil {
			return ChaosConfig{}, fmt.Errorf("compass: bad -chaos element %q", part)
		}
	}
	return c, nil
}

// ChaosPanicFor returns the guard.Config injection hook for a chaos plan:
// it panics when the supervised attempt's label matches the crash seed.
// Campaign points are labeled "seed<N>"; single runs use the workload name,
// so CrashSeed also matches when the base config's fault seed equals it.
func (c ChaosConfig) ChaosPanicFor(baseSeed uint64) func(string) {
	if c.CrashSeed == 0 {
		return nil
	}
	target := fmt.Sprintf("seed%d", c.CrashSeed)
	return func(label string) {
		if label == target || (baseSeed == c.CrashSeed && label != "") {
			panic(fmt.Sprintf("chaos: injected panic for %s", target))
		}
	}
}

// ObserveBlock returns a machine.Config.Observe hook that spawns the
// chaos blocking process (ChaosConfig.Block).
func ObserveBlock() func(*machine.Machine) {
	return func(m *machine.Machine) {
		m.SpawnConnected("chaos-block", func(p *frontend.Proc) {
			t := osserver.For(p)
			r, _ := t.Pipe(16)
			// Nobody ever writes: the read blocks for the rest of the run.
			t.PipeRead(r, 1)
		})
	}
}
