// Command compassvet is the project's determinism, snapshot-completeness
// and allocation-discipline checker: a multichecker over the
// internal/analysis suite (detwallclock, detmaprange, snapfields,
// evtclosure, allochot).
//
// Usage:
//
//	compassvet [-run a,b] [-json] [-baseline file] [-write-baseline] [-fail-stale] [packages]
//
// With no packages, ./... is checked. Exit status is 0 when clean,
// 1 when non-baselined findings exist, 2 on a driver error.
//
// The baseline file (default compassvet.baseline.json when present)
// holds findings a past review accepted; matching findings are
// suppressed but counted, and entries that no longer match anything
// are reported as stale so the file shrinks over time. With
// -fail-stale, stale entries this run actually re-checked (their
// analyzer ran and their package was analyzed) are an error too, so CI
// keeps the baseline tight instead of letting it fossilize. Identity
// is (analyzer, file, message) — line numbers move with unrelated
// edits and are deliberately excluded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"strings"

	"compass/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jsonOut       = flag.Bool("json", false, "emit findings as a JSON array instead of text")
		baselinePath  = flag.String("baseline", "compassvet.baseline.json", "baseline file of accepted findings")
		writeBaseline = flag.Bool("write-baseline", false, "write the current findings to the baseline file and exit")
		runList       = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		failStale     = flag.Bool("fail-stale", false, "exit nonzero when the baseline holds entries this run re-checked and no longer produces")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: compassvet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *runList != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*runList, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "compassvet: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "compassvet: %v\n", err)
		return 2
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compassvet: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compassvet: %v\n", err)
		return 2
	}
	// Stable, repo-relative paths keep baselines portable across
	// checkouts and make findings clickable from the module root.
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}

	if *writeBaseline {
		if err := analysis.WriteBaseline(*baselinePath, diags); err != nil {
			fmt.Fprintf(os.Stderr, "compassvet: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "compassvet: wrote %d finding(s) to %s\n", len(diags), *baselinePath)
		return 0
	}

	baseline, err := analysis.LoadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compassvet: %v\n", err)
		return 2
	}
	fresh, suppressed, stale := baseline.Filter(diags)

	if *jsonOut {
		type finding struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		}
		out := make([]finding, 0, len(fresh))
		for _, d := range fresh {
			out = append(out, finding{d.Analyzer, d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "compassvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range fresh {
			fmt.Println(d.String())
		}
	}
	if suppressed > 0 {
		fmt.Fprintf(os.Stderr, "compassvet: %d baselined finding(s) suppressed\n", suppressed)
	}
	// A baseline entry is only provably stale when this run actually
	// re-checked it: its analyzer ran and its file's package was in the
	// analyzed set. Partial runs (-run filter, a package subset) stay
	// quiet about the rest.
	ranAnalyzer := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ranAnalyzer[a.Name] = true
	}
	analyzedDirs := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		dir := p.Dir
		if rel, err := filepath.Rel(cwd, dir); err == nil && !strings.HasPrefix(rel, "..") {
			dir = rel
		}
		analyzedDirs[filepath.ToSlash(dir)] = true
	}
	staleCount := 0
	for _, e := range stale {
		if !ranAnalyzer[e.Analyzer] || !analyzedDirs[path.Dir(filepath.ToSlash(e.File))] {
			continue
		}
		staleCount++
		fmt.Fprintf(os.Stderr, "compassvet: stale baseline entry (no longer matches): %s %s: %s\n", e.Analyzer, e.File, e.Message)
	}
	if len(fresh) > 0 {
		fmt.Fprintf(os.Stderr, "compassvet: %d finding(s)\n", len(fresh))
		return 1
	}
	if *failStale && staleCount > 0 {
		fmt.Fprintf(os.Stderr, "compassvet: %d stale baseline entr%s; prune %s or rerun with -write-baseline\n",
			staleCount, plural(staleCount, "y", "ies"), *baselinePath)
		return 1
	}
	return 0
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
