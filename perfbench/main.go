// Command perfbench is the repository benchmark: it runs one commercial
// workload on the simulator, repeatedly and one simulation at a time, for
// a fixed host-time budget, checks every run's simulated output, and
// prints the benchmark's metrics. The last line of standard output is a
// JSON record:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"refs_per_s": {"value": 712345.6, "unit": "1/s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 they are the per-layer ones, from traced
// runs plus isolation legs that time each layer's calls on inputs shaped
// by the workload's own counts. Run it through run.sh, which builds it
// from source:
//
//	bash perfbench/run.sh --workload oltp-numa --seed 0 --seconds 30 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

//go:embed golden.json
var goldenJSON []byte

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the benchmark's result line.
type record struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "oltp-numa | dss-scan | web-flash")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (%d reproduces compassrun's inputs; %d is held out for checking claims)", defaultSeed, heldOutSeed))
	seconds := flag.Float64("seconds", 30, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = per-layer metrics")
	flag.Parse()

	w, ok := workloadNamed(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: golden.json: %v\n", err)
		os.Exit(1)
	}

	host := hostFacts()
	fmt.Printf("host gomaxprocs=%d nproc=%d go=%s commit=%s source=%s\n",
		host.GOMAXPROCS, host.NumCPU, host.GoVersion, host.Commit, host.Source)
	var rec record
	if *trace == 1 {
		rec = layerRun(w, *seed, *seconds, golden[w.name], host)
	} else {
		rec = endToEnd(w, *seed, *seconds, golden[w.name])
	}
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %16.6g %s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
