package compass

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"compass/internal/apps/db"
	"compass/internal/apps/tpcc"
	"compass/internal/checkpoint"
	"compass/internal/guard"
	"compass/internal/machine"
)

// AutoCkpt configures periodic auto-checkpointing for supervised runs.
//
// Goroutine stacks cannot be serialized, so a run can only checkpoint at a
// quiescent boundary (no live workload processes). RunTPCCAuto manufactures
// such boundaries deterministically: it splits the transaction budget into
// Segments equal slices, runs each slice to completion on the same machine,
// and writes a checkpoint between slices whenever at least Interval
// simulated cycles have passed since the last one. The segment schedule is
// a pure function of the configuration — an uninterrupted segmented run and
// one resumed from any of its own checkpoints execute identical work and
// produce byte-identical results.
type AutoCkpt struct {
	// Interval is the minimum number of simulated cycles between
	// checkpoints. 0 disables checkpoint writing (the run still executes
	// segmented when Segments > 1).
	Interval uint64
	// Dir receives auto-NNN.ckpt files and is scanned on start for a
	// matching checkpoint to resume from. Empty disables both.
	Dir string
	// Segments is the number of quiescent slices (default 1 — a plain run
	// with no checkpoint opportunities).
	Segments int
	// Note, when non-nil, observes each written checkpoint path (the guard
	// session uses it so crash bundles carry the latest checkpoint).
	Note func(path string)
	// ChaosCrashSegment, when > 0, panics after that many segments complete
	// (1-based, after the boundary checkpoint is written) — the chaos-smoke
	// harness's crash point for exercising resume-on-failure.
	ChaosCrashSegment int
}

func (a AutoCkpt) segments() int {
	if a.Segments <= 0 {
		return 1
	}
	return a.Segments
}

// autoSection names the auto-checkpoint metadata section.
const autoSection = "autockpt"

// autoMeta is the auto-checkpoint section: which segment a resumed run
// continues from, and the boundary cycle (for interval accounting).
type autoMeta struct {
	NextSegment int
	Cycle       uint64
}

// latestAutoCkpt scans dir for the newest auto-NNN.ckpt whose config hash
// matches cfg. Unreadable or mismatched files are skipped, not fatal — a
// stale directory must never poison a fresh run.
func latestAutoCkpt(dir string, cfg Config) (string, bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", false
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
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		info, err := checkpoint.ReadInfo(f)
		f.Close()
		if err == nil && info.ConfigHash == want {
			return path, true
		}
	}
	return "", false
}

// RunTPCCAuto runs the OLTP workload in AutoCkpt mode: segmented execution
// with periodic checkpoints at quiescent boundaries, and automatic resume
// from the latest matching checkpoint in ac.Dir. With Segments <= 1 and no
// prior checkpoint it performs exactly RunTPCC's work.
//
// Resume is how failed supervised runs retry cheaply: the campaign retry
// loop just calls the runner again, and the runner finds its own latest
// checkpoint and skips the completed segments.
func RunTPCCAuto(cfg Config, w TPCCConfig, ac AutoCkpt) (Result, error) {
	segs := ac.segments()
	start := time.Now()

	var (
		cur      *tpcc.Workload // workload bound to the machine's current state
		base     int            // next agent index (naming + RNG stream continuity)
		firstSeg int
		lastCkpt uint64
		ckptSeq  int
	)
	var m *machine.Machine
	if ac.Dir != "" {
		if path, ok := latestAutoCkpt(ac.Dir, cfg); ok {
			mm, sections, err := restoreCheckpointFile(path)
			if err != nil {
				return Result{}, err
			}
			state, ok := sections[tpccSection]
			if !ok {
				return Result{}, fmt.Errorf("compass: auto checkpoint has no %q section", tpccSection)
			}
			var meta autoMeta
			if err := gob.NewDecoder(bytes.NewReader(sections[autoSection])).Decode(&meta); err != nil {
				return Result{}, fmt.Errorf("compass: auto checkpoint metadata: %w", err)
			}
			restored, b, err := tpcc.AttachRestore(state)
			if err != nil {
				return Result{}, err
			}
			// Restored machines do not re-run the Observe hook (the snapshot
			// cannot carry it); re-invoke it so supervision re-attaches.
			if cfg.Observe != nil {
				cfg.Observe(mm)
			}
			cur, base = restored, b
			firstSeg, lastCkpt = meta.NextSegment, meta.Cycle
			ckptSeq = meta.NextSegment
			m = mm
		}
	}
	if m == nil {
		m = machine.New(cfg)
		cur = tpcc.Setup(m.FS, w)
	}

	end := lastCkpt
	for k := firstSeg; k < segs; k++ {
		lo, hi := w.TxPerAgent*k/segs, w.TxPerAgent*(k+1)/segs
		if hi > lo {
			segCfg := w
			segCfg.TxPerAgent = hi - lo
			segWL, err := cur.WithConfig(segCfg)
			if err != nil {
				return Result{}, err
			}
			spawnTPCCAgents(m, segWL, base, w.Agents)
			base += w.Agents
			end = uint64(m.Sim.Run())
			cur = segWL
		}
		if k < segs-1 && ac.Dir != "" && ac.Interval > 0 && end-lastCkpt >= ac.Interval {
			if err := os.MkdirAll(ac.Dir, 0o755); err != nil {
				return Result{}, err
			}
			state, err := cur.SaveState(base)
			if err != nil {
				return Result{}, err
			}
			var meta bytes.Buffer
			if err := gob.NewEncoder(&meta).Encode(autoMeta{NextSegment: k + 1, Cycle: end}); err != nil {
				return Result{}, err
			}
			path := filepath.Join(ac.Dir, fmt.Sprintf("auto-%03d.ckpt", ckptSeq))
			ckptSeq++
			if err := saveCheckpointFile(path, m, []checkpoint.Section{
				{Name: tpccSection, Data: state},
				{Name: autoSection, Data: meta.Bytes()},
			}); err != nil {
				return Result{}, err
			}
			lastCkpt = end
			if ac.Note != nil {
				ac.Note(path)
			}
		}
		if ac.ChaosCrashSegment > 0 && k+1 == ac.ChaosCrashSegment {
			panic(fmt.Sprintf("chaos: injected crash after segment %d", k+1))
		}
	}

	res := finish("TPCC/db", m, end, time.Since(start))
	res.Extra["transactions"] = float64(w.Agents * w.TxPerAgent)
	hits, misses := db.Stats(cur.Cat)
	res.Extra["pool.hits"] = float64(hits)
	res.Extra["pool.misses"] = float64(misses)
	return res, nil
}

// GuardedTPCCAuto builds the supervised runner for AutoCkpt mode: it wires
// the session's checkpoint notebook into the run so crash bundles carry the
// latest auto-checkpoint.
func GuardedTPCCAuto(w TPCCConfig, ac AutoCkpt) GuardedRunner {
	return func(cfg Config, sess *guard.Session) (Result, error) {
		a := ac
		if sess != nil {
			prev := a.Note
			a.Note = func(path string) {
				if prev != nil {
					prev(path)
				}
				sess.NoteCheckpoint(path)
			}
		}
		return RunTPCCAuto(cfg, w, a)
	}
}
