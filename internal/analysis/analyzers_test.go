package analysis_test

import (
	"testing"

	"compass/internal/analysis"
	"compass/internal/analysis/analysistest"
)

// The fixtures under testdata/src use GOPATH-style import paths
// ("internal/core", "internal/event", ...) so the analyzers classify
// them exactly like the real module's packages. Each fixture contains
// deliberately broken invariants marked with // want comments plus the
// legal forms (escape hatches included), which must stay silent.

func TestDetwallclock(t *testing.T) {
	analysistest.Run(t, analysis.Detwallclock, "internal/core", "hostutil")
}

func TestDetmaprange(t *testing.T) {
	analysistest.Run(t, analysis.Detmaprange, "maprange")
}

func TestSnapfields(t *testing.T) {
	analysistest.Run(t, analysis.Snapfields, "snapgood", "snapbad")
}

func TestEvtclosure(t *testing.T) {
	analysistest.Run(t, analysis.Evtclosure, "internal/dev", "internal/fs", "internal/loadgen")
}

// The call-graph analyzer gets its own fixture tree nested as
// allochot/internal/loadgen: the import path still ends in
// internal/loadgen, so package classification (sim package, hot
// package) matches the real module while its want expectations stay
// isolated from the shared fixtures.

func TestAllochot(t *testing.T) {
	analysistest.Run(t, analysis.Allochot, "allochot/internal/loadgen")
}
