package analysis_test

import (
	"go/token"
	"path/filepath"
	"testing"

	"compass/internal/analysis"
)

func diag(analyzer, file, msg string) analysis.Diagnostic {
	return analysis.Diagnostic{
		Analyzer: analyzer,
		Pos:      token.Position{Filename: file, Line: 1, Column: 1},
		Message:  msg,
	}
}

func TestBaselineMissingFileIsEmpty(t *testing.T) {
	b, err := analysis.LoadBaseline(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	if len(b.Findings) != 0 {
		t.Fatalf("expected empty baseline, got %d findings", len(b.Findings))
	}
}

func TestBaselineRoundTripAndFilter(t *testing.T) {
	accepted := []analysis.Diagnostic{
		diag("evtclosure", "internal/dev/dev.go", "closure captures n"),
		diag("evtclosure", "internal/dev/dev.go", "closure captures n"), // same finding twice: count budget
		diag("snapfields", "internal/fs/fs.go", "field FS.x not covered"),
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := analysis.WriteBaseline(path, accepted); err != nil {
		t.Fatalf("WriteBaseline: %v", err)
	}
	b, err := analysis.LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	if len(b.Findings) != 3 {
		t.Fatalf("round trip kept %d findings, want 3", len(b.Findings))
	}

	// One accepted finding recurs, one is fixed (goes stale), one new
	// finding appears, and a third instance of the doubled finding
	// exceeds its count budget.
	now := []analysis.Diagnostic{
		diag("evtclosure", "internal/dev/dev.go", "closure captures n"),
		diag("evtclosure", "internal/dev/dev.go", "closure captures n"),
		diag("evtclosure", "internal/dev/dev.go", "closure captures n"),
		diag("detwallclock", "internal/core/sim.go", "time.Now in simulation package core"),
	}
	fresh, suppressed, stale := b.Filter(now)
	if suppressed != 2 {
		t.Errorf("suppressed = %d, want 2", suppressed)
	}
	if len(fresh) != 2 {
		t.Fatalf("fresh = %d findings, want 2 (budget overflow + new)", len(fresh))
	}
	for _, f := range fresh {
		if f.Analyzer != "evtclosure" && f.Analyzer != "detwallclock" {
			t.Errorf("unexpected fresh finding from %s", f.Analyzer)
		}
	}
	if len(stale) != 1 || stale[0].Analyzer != "snapfields" {
		t.Fatalf("stale = %+v, want the one snapfields entry", stale)
	}
}

// TestBaselineNewAnalyzerKinds round-trips findings from the call-graph
// analyzer (allochot) next to the per-package ones: baseline identity
// is (analyzer, file, message), so allochot entries budget, suppress and
// go stale exactly like the others'.
func TestBaselineNewAnalyzerKinds(t *testing.T) {
	accepted := []analysis.Diagnostic{
		diag("detmaprange", "internal/loadgen/loadgen.go", "range over map g.inflight feeds the event queue in loadgen.(*Generator).onFail"),
		diag("allochot", "internal/loadgen/loadgen.go", "fmt.Sprintf boxes every operand into an interface on the event-dispatch hot path"),
		diag("allochot", "internal/loadgen/loadgen.go", "fmt.Sprintf boxes every operand into an interface on the event-dispatch hot path"),
		diag("snapfields", "internal/loadgen/loadgen.go", "field class.left not covered by the snapshot"),
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := analysis.WriteBaseline(path, accepted); err != nil {
		t.Fatalf("WriteBaseline: %v", err)
	}
	b, err := analysis.LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	if len(b.Findings) != 4 {
		t.Fatalf("round trip kept %d findings, want 4", len(b.Findings))
	}

	// The detmaprange entry recurs, one allochot instance is fixed (the
	// leftover budget is reported stale so the file shrinks), the
	// snapfields entry is fixed entirely (stale), and a same-file
	// allochot finding with a different message is fresh: the message
	// is part of the identity.
	now := []analysis.Diagnostic{
		diag("detmaprange", "internal/loadgen/loadgen.go", "range over map g.inflight feeds the event queue in loadgen.(*Generator).onFail"),
		diag("allochot", "internal/loadgen/loadgen.go", "fmt.Sprintf boxes every operand into an interface on the event-dispatch hot path"),
		diag("allochot", "internal/loadgen/loadgen.go", "make(map) allocates on the event-dispatch hot path"),
	}
	fresh, suppressed, stale := b.Filter(now)
	if suppressed != 2 {
		t.Errorf("suppressed = %d, want 2", suppressed)
	}
	if len(fresh) != 1 || fresh[0].Message != "make(map) allocates on the event-dispatch hot path" {
		t.Fatalf("fresh = %+v, want only the new-message allochot finding", fresh)
	}
	if len(stale) != 2 {
		t.Fatalf("stale = %+v, want the leftover allochot budget and the fixed snapfields entry", stale)
	}
	staleBy := map[string]bool{}
	for _, e := range stale {
		staleBy[e.Analyzer] = true
	}
	if !staleBy["allochot"] || !staleBy["snapfields"] {
		t.Fatalf("stale = %+v, want one allochot and one snapfields entry", stale)
	}
}
