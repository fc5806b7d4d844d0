package compass

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"compass/internal/checkpoint"
	"compass/internal/machine"
	"compass/internal/stats"
)

// Checkpoints is the checkpoint policy of a phased run (RunPhased). A
// phased run executes its phases in order on one machine, each to
// quiescence: goroutine stacks cannot be serialized, so a phase boundary
// is the only point a run can checkpoint at. Restore is bit-deterministic:
// a resumed run produces exactly the results of the uninterrupted run of
// the same phases. The zero value checkpoints nothing.
type Checkpoints struct {
	// Save, when non-empty, writes a warm-start snapshot file after the
	// first phase.
	Save string
	// Resume, when non-empty, restores this snapshot, which must have been
	// written for the run's config, and runs only the phases after it.
	// Mutually exclusive with Save.
	Resume string
	// Dir receives an auto-NNN.ckpt file at each phase boundary at least
	// Interval simulated cycles after the last one (Interval 0 writes
	// none). A run with Dir set resumes from the newest file there written
	// for its config, which is how a failed supervised run retries cheaply.
	Dir      string
	Interval uint64
	// Note, when non-nil, observes each checkpoint file written (the guard
	// session uses it so crash bundles carry the latest one).
	Note func(path string)
	// CrashAfter, when > 0, panics after that many phases complete (after
	// the boundary checkpoint is written) — the chaos-smoke harness's crash
	// point for exercising resume-on-failure.
	CrashAfter int
}

// A job is one workload as drive sees it.
type job struct {
	name   string // the Result's Name
	phases int
	// spawn starts phase k's processes and traffic; false means the phase
	// has no work and is skipped. Phase 0 only ever runs on a fresh
	// machine, so it also creates the workload's files.
	spawn func(m *machine.Machine, k int) (bool, error)
	// section names the workload's host state in a checkpoint (its handles
	// into the simulated files); save encodes it at a phase boundary and
	// attach rebinds it on a restored machine.
	section string
	save    func() ([]byte, error)
	attach  func(state []byte) error
	// extra fills in the workload's Result.Extra after the last phase.
	extra func(res *Result)
}

// autoSection names the auto-checkpoint metadata section.
const autoSection = "autockpt"

// autoMeta is the auto-checkpoint section: which phase a resumed run
// continues from, and the boundary cycle (for interval accounting).
type autoMeta struct {
	NextSegment int
	Cycle       uint64
}

// drive runs a job's phases under a checkpoint policy and finishes the
// Result. It is the one place a run's machine is built or restored, so
// the restore checks hold for every workload. Wall counts host time in
// the simulation loop only.
func drive(cfg Config, j *job, ck Checkpoints) (Result, error) {
	if ck.Save != "" && ck.Resume != "" {
		return Result{}, errors.New("compass: Save and Resume are mutually exclusive")
	}
	resume := ck.Resume
	if resume == "" && ck.Dir != "" {
		resume = latestAutoCkpt(ck.Dir, cfg)
	}
	var (
		m        *machine.Machine
		first    int    // first phase to run
		end      uint64 // simulated time at the last phase boundary
		lastCkpt uint64 // cycle of the last auto checkpoint
		seq      int    // number of the next auto checkpoint file
		wall     time.Duration
	)
	if resume == "" {
		m = machine.New(cfg)
	} else {
		var sections map[string][]byte
		var err error
		if m, sections, err = restoreCheckpoint(resume, cfg); err != nil {
			return Result{}, err
		}
		state, ok := sections[j.section]
		if !ok {
			return Result{}, fmt.Errorf("compass: checkpoint %s has no %q section", resume, j.section)
		}
		if err := j.attach(state); err != nil {
			return Result{}, err
		}
		// A warm-start file follows the first phase; an auto checkpoint
		// records where it was taken.
		first = 1
		if raw, ok := sections[autoSection]; ok {
			var meta autoMeta
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&meta); err != nil {
				return Result{}, fmt.Errorf("compass: auto checkpoint metadata: %w", err)
			}
			first, end, lastCkpt, seq = meta.NextSegment, meta.Cycle, meta.Cycle, meta.NextSegment
		}
		if first >= j.phases {
			return Result{}, fmt.Errorf("compass: checkpoint %s leaves none of the run's %d phases to run", resume, j.phases)
		}
	}

	for k := first; k < j.phases; k++ {
		ran, err := j.spawn(m, k)
		if err != nil {
			return Result{}, err
		}
		if ran {
			start := time.Now()
			end = uint64(m.Sim.Run())
			wall += time.Since(start)
		}
		if k == 0 && ck.Save != "" {
			if err := saveCheckpoint(ck.Save, m, j, nil, ck.Note); err != nil {
				return Result{}, err
			}
		}
		if k < j.phases-1 && ck.Dir != "" && ck.Interval > 0 && end-lastCkpt >= ck.Interval {
			if err := os.MkdirAll(ck.Dir, 0o755); err != nil {
				return Result{}, err
			}
			path := filepath.Join(ck.Dir, fmt.Sprintf("auto-%03d.ckpt", seq))
			if err := saveCheckpoint(path, m, j, &autoMeta{NextSegment: k + 1, Cycle: end}, ck.Note); err != nil {
				return Result{}, err
			}
			seq, lastCkpt = seq+1, end
		}
		if ck.CrashAfter > 0 && k+1 == ck.CrashAfter {
			panic(fmt.Sprintf("chaos: injected crash after segment %d", k+1))
		}
	}

	total := m.Sim.TotalAccount()
	res := Result{
		Name:     j.name,
		Cycles:   end,
		Profile:  stats.ProfileOf(j.name, &total),
		Counters: m.Sim.Counters(),
		Wall:     wall,
		Extra:    map[string]float64{},
		Syscalls: m.OS.FormatSyscallProfile(8),
	}
	m.FaultCounters(res.Counters)
	if j.extra != nil {
		j.extra(&res)
	}
	return res, nil
}

// runOnce is drive's one-phase case for workloads that are never
// checkpointed: start builds the workload on a fresh machine.
func runOnce(cfg Config, name string, start func(m *machine.Machine)) Result {
	return mustRun(drive(cfg, &job{name: name, phases: 1, spawn: func(m *machine.Machine, _ int) (bool, error) {
		start(m)
		return true, nil
	}}, Checkpoints{}))
}

// mustRun unwraps a run that cannot fail: without checkpoints, drive errs
// only where a workload's own setup does, and the one-phase entry
// points that use it have none.
func mustRun(res Result, err error) Result {
	if err != nil {
		panic(err)
	}
	return res
}

// ckptHash reads the config hash from a checkpoint file's header.
func ckptHash(path string) ([32]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return [32]byte{}, err
	}
	defer f.Close()
	info, err := checkpoint.ReadInfo(f)
	return info.ConfigHash, err
}

// restoreCheckpoint restores the machine a checkpoint file holds, with its
// host-side sections. The file must have been written for cfg: a snapshot
// of another machine shape would run a different experiment under the
// caller's name. The Observe hook re-runs on the restored machine (a
// snapshot cannot carry it), so supervision attaches to it as it does to a
// freshly built one.
func restoreCheckpoint(path string, cfg Config) (*machine.Machine, map[string][]byte, error) {
	got, err := ckptHash(path)
	if err != nil {
		return nil, nil, err
	}
	if want := checkpoint.ConfigHash(cfg); got != want {
		return nil, nil, fmt.Errorf("compass: checkpoint %s has config hash %x, the run's config hashes to %x",
			path, got[:8], want[:8])
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	m, sections, err := checkpoint.RestoreFull(f)
	if err == nil && cfg.Observe != nil {
		cfg.Observe(m)
	}
	return m, sections, err
}

// saveCheckpoint writes a quiescent machine and the job's host state to
// path; an auto checkpoint also carries its metadata section.
func saveCheckpoint(path string, m *machine.Machine, j *job, meta *autoMeta, note func(string)) error {
	state, err := j.save()
	if err != nil {
		return err
	}
	sections := []checkpoint.Section{{Name: j.section, Data: state}}
	if meta != nil {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(*meta); err != nil {
			return err
		}
		sections = append(sections, checkpoint.Section{Name: autoSection, Data: buf.Bytes()})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := checkpoint.SaveSections(f, m, sections); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if note != nil {
		note(path)
	}
	return nil
}

// latestAutoCkpt returns the newest auto-NNN.ckpt in dir whose config
// hash matches cfg, or "". Unreadable or mismatched files are skipped,
// not fatal — a stale directory must never poison a fresh run.
func latestAutoCkpt(dir string, cfg Config) string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ""
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && len(n) > 9 && n[:5] == "auto-" && filepath.Ext(n) == ".ckpt" {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	want := checkpoint.ConfigHash(cfg)
	for _, n := range names {
		path := filepath.Join(dir, n)
		if got, err := ckptHash(path); err == nil && got == want {
			return path
		}
	}
	return ""
}

// RunPhased runs a workload in phases on one machine under a checkpoint
// policy. Cycles, Profile and Counters cover every phase, as the machine
// does.
//
//   - TPC-C: the first phase's config shapes the schema; later phases may
//     change Agents, TxPerAgent, Seed and the transaction mix (workers and
//     concurrency are unused). Extra counts every phase's transactions.
//   - SPECWeb: each phase replays its own trace against the first phase's
//     fileset, with workers server processes and concurrency clients;
//     fresh server processes re-attach to the bound listener each phase.
//     Extra's tallies are the last phase's.
//   - Open-loop load: each phase continues the previous phase's generator
//     with workers server processes. Requests budgets are cumulative and
//     flash windows are absolute cycles, so a surge open at a boundary is
//     still open after it, across a checkpoint too.
func RunPhased[W TPCCConfig | SPECWebConfig | LoadConfig](cfg Config, phases []W, workers, concurrency int, ck Checkpoints) (Result, error) {
	if len(phases) == 0 {
		return Result{}, errors.New("compass: a phased run needs at least one phase")
	}
	switch p := any(phases).(type) {
	case []TPCCConfig:
		return drive(cfg, tpccJob(p), ck)
	case []SPECWebConfig:
		return drive(cfg, specwebJob(p, workers, concurrency), ck)
	default:
		res, _, err := runLoadHTTPD(cfg, any(phases).([]LoadConfig), workers, ck)
		return res, err
	}
}
