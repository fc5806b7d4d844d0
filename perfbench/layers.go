package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"compass"
	"compass/internal/event"
)

// Leg sizes: enough operations that a leg's timer reads well above its
// resolution, few enough that all five legs fit in a few seconds.
const (
	roundTripOps = 100_000
	scanOps      = 1_000_000
	taskOps      = 1_000_000
	translateOps = 2_000_000
	accessOps    = 1 << 19
)

// replayTolerance is how far the access leg's L1 hit ratio may sit from
// the run's before the leg is flagged as not resembling the workload.
const replayTolerance = 0.1

// pairing records, for each per-layer metric, the end-to-end metric it
// should move and on which workload; it is printed with the trace so a
// reader can check a claimed gain against the layer that should carry it.
var pairing = map[string]string{
	"comm.roundtrip_ns":          "refs_per_s, cpu_ns_per_ref on all three; most on oltp-numa",
	"comm.scan_ns":               "refs_per_s on web-flash; flat on dss-scan",
	"event.task_ns":              "refs_per_s on web-flash only",
	"mem.translate_ns":           "refs_per_s on all three",
	"memsys.access_ns":           "refs_per_s on oltp-numa (ccnuma) and dss-scan (simple); small on web-flash",
	"setup.load_ms":              "setup_s on all three (tpcc.Setup, tpcd.Setup, catalog files)",
	"layers.attributed_share":    "reported, not gated: the rest is frontend, osserver/fs/netstack bodies and Go scheduling",
	"memsys.replay_l1_hit_ratio": "none: checks that the access leg's stream resembles the run",
}

// span is one timed interval around a call the benchmark makes into a
// layer. Spans of one simulation share its run id; legs have run -1.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Run    int     `json:"run"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) add(name, parent string, run int, start, end time.Time) {
	ms := func(x time.Time) float64 { return float64(x.Sub(t.origin).Nanoseconds()) / 1e6 }
	t.spans = append(t.spans, span{name, parent, run, ms(start), ms(end)})
}

func (t *tracer) sample(run int, s sample) {
	t.add("setup", "", run, s.start, s.running)
	t.add("setup.assemble", "setup", run, s.start, s.assembled)
	t.add("setup.load", "setup", run, s.assembled, s.running)
	t.add("run", "", run, s.running, s.ran)
	t.add("collect", "", run, s.ran, s.collected)
	t.add("check", "", run, s.collected, s.checked)
}

// leg times one isolation leg and records its span.
func (t *tracer) leg(name string, fn func() (int, time.Duration)) float64 {
	start := time.Now()
	ns := timeLeg(fn)
	t.add(name, "", -1, start, time.Now())
	return ns
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func l1HitRatio(o *outcome) float64 { return ratio(o.counters.Get(o.model+".l1.hits"), o.refs()) }

// layerRun measures the per-layer metrics: exact counts from a traced
// simulation, host ns per call from the isolation legs, and the spans of
// the traced simulations, which alternate with untraced ones for half the
// budget so that the tracing overhead can be reported.
func layerRun(w workload, seed int64, seconds float64, golden string, h host) record {
	tr := &tracer{origin: time.Now()}
	var plain, traced []sample
	budget := time.Duration(seconds / 2 * float64(time.Second))
	for len(traced) < 2 || time.Since(tr.origin) < budget {
		debug.FreeOSMemory()
		p := simulate(w, subSeed(seed, len(plain)))
		plain = append(plain, p)
		if p.err != nil {
			break
		}
		debug.FreeOSMemory()
		s := simulate(w, p.seed)
		tr.sample(len(traced), s)
		traced = append(traced, s)
		if s.err != nil {
			break
		}
	}
	all := append(append([]sample(nil), plain...), traced...)
	_, failed := verify(all, golden)
	rec := record{Correct: failed == 0, Attempted: len(all), Failed: failed, Metrics: map[string]metric{}}
	if failed > 0 {
		return rec
	}

	// The facade must simulate exactly what the benchmark's own assembly
	// does, or the benchmark measures something else.
	cfg, err := compass.SpecConfig(w.spec)
	if err == nil {
		var res compass.Result
		if res, err = w.facade(cfg, w.spec, seedsFor(seed)); err == nil && resultDigest(res) != traced[0].digest {
			err = fmt.Errorf("facade digest %s, benchmark %s", resultDigest(res), traced[0].digest)
		}
	}
	rec.Attempted++
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: facade check: %v\n", err)
		rec.Correct = false
		rec.Failed++
		return rec
	}

	o := traced[0].out
	n := o.refs()
	loads := o.counters.Get(o.model + ".loads")
	storeShare := 1 - ratio(loads, n)
	tasks := o.counters.Get("backend.tasks")
	remote, local := o.counters.Get("ccnuma.miss.remote"), o.counters.Get("ccnuma.miss.local")
	put := func(name string, v float64, unit string) { rec.Metrics[name] = metric{v, unit} }
	put("memsys.refs", float64(n), "count")
	put("memsys.load_share", ratio(loads, n), "ratio")
	put("memsys.l1_hit_ratio", l1HitRatio(&o), "ratio")
	put("memsys.invalidations_per_kref", 1000*ratio(o.counters.Get(o.model+".invalidations"), n), "count")
	put("memsys.remote_miss_share", ratio(remote, remote+local), "ratio")
	put("core.rmw_share", ratio(o.counters.Get("sync.rmw"), n), "ratio")
	put("core.ctxswitches", float64(o.counters.Get("sched.ctxswitches")), "count")
	put("core.interrupts", float64(o.counters.Get("intr.delivered")), "count")
	put("core.vm_faults", float64(o.counters.Get("vm.faults")), "count")
	put("event.tasks", float64(tasks), "count")
	put("event.tasks_per_kref", 1000*ratio(tasks, n), "count")
	put("osserver.syscalls", float64(o.syscalls), "count")
	put("osserver.os_cycle_share", o.profile.OSPct/100, "ratio")
	put("db.pool_hit_ratio", ratio(o.poolHits, o.poolHits+o.poolMisses), "ratio")
	put("loadgen.offered", float64(o.loadOffered), "count")
	put("loadgen.failed", float64(o.loadFailed), "count")
	put("loadgen.p99_cycles", o.loadP99, "cycles")

	var setupAsm, setupLoad, runPlain, runTraced []float64
	for i, s := range traced {
		setupAsm = append(setupAsm, float64(s.assembled.Sub(s.start).Nanoseconds())/1e6)
		setupLoad = append(setupLoad, float64(s.running.Sub(s.assembled).Nanoseconds())/1e6)
		runTraced = append(runTraced, s.run().Seconds())
		runPlain = append(runPlain, plain[i].run().Seconds())
	}
	put("setup.assemble_ms", median(setupAsm), "ms")
	put("setup.load_ms", median(setupLoad), "ms")
	put("trace.overhead", median(runTraced)/median(runPlain)-1, "ratio")

	rng := rand.New(rand.NewSource(seed))
	rt := tr.leg("leg.comm.roundtrip", func() (int, time.Duration) { return roundTrip(o.ports, roundTripOps) })
	sc := tr.leg("leg.comm.scan", func() (int, time.Duration) { return scan(o.ports, scanOps) })
	tk := tr.leg("leg.event.task", func() (int, time.Duration) {
		return tasksLeg(rng, o.ports+o.cpus, float64(o.cycles)/float64(tasks), taskOps)
	})
	tl := tr.leg("leg.mem.translate", func() (int, time.Duration) { return translate(rng, o.frames, storeShare, translateOps) })
	var st *stream
	var replayL1 float64
	ac := tr.leg("leg.memsys.access", func() (int, time.Duration) {
		ops, d, l1 := access(cfg, int(o.frames), func(frames []uint64) *stream {
			if st == nil {
				gap := o.profile.TotalCycles / n
				st = newStream(rng, o.cpus, frames, accessOps, storeShare, l1HitRatio(&o), ratio(o.counters.Get(o.model+".invalidations"), n), event.Cycle(gap))
			}
			return st
		})
		replayL1 = l1
		return ops, d
	})
	put("comm.roundtrip_ns", rt, "ns")
	put("comm.scan_ns", sc, "ns")
	put("event.task_ns", tk, "ns")
	put("mem.translate_ns", tl, "ns")
	put("memsys.access_ns", ac, "ns")
	put("memsys.replay_l1_hit_ratio", replayL1, "ratio")
	if gap := math.Abs(replayL1 - l1HitRatio(&o)); gap > replayTolerance {
		fmt.Printf("flag: %s access leg L1 hit ratio %.3f is %.3f from the run's %.3f\n", w.name, replayL1, gap, l1HitRatio(&o))
	}
	attributed := float64(n)*(rt+tl+ac) + float64(tasks)*(sc+tk)
	put("layers.attributed_share", attributed/(median(runTraced)*1e9), "ratio")

	if err := writeTrace(w.name, seed, h, tr.spans, rec.Metrics); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: trace: %v\n", err)
	}
	for _, k := range sortedKeys(pairing) {
		fmt.Printf("pairing %-28s -> %s\n", k, pairing[k])
	}
	return rec
}

// writeTrace writes the spans, host facts and per-layer metrics of a
// traced run as JSON under .bench_build/trace.
func writeTrace(name string, seed int64, h host, spans []span, metrics map[string]metric) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Host     host              `json:"host"`
		Spans    []span            `json:"spans"`
		Metrics  map[string]metric `json:"metrics"`
	}{name, seed, h, spans, metrics}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)), b, 0o644)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
