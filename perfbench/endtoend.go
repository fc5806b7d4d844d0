package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// minSamples is the fewest simulations a run measures, however short its
// budget: medians need several.
const minSamples = 3

// subSeed is the workload seed of sample i in a run with benchmark seed n.
// Every sample simulates other inputs, so that a run's figures average
// over inputs instead of hinging on one: between TPC-C seeds, lock
// contention alone moves the reference count by a third. Sample 0 runs
// seed n itself.
func subSeed(n int64, i int) int64 { return n + int64(i)*1_000_003 }

// measure runs w back to back, sample i on subSeed(seed, i), until the
// budget is spent. Every sample starts from a collected heap, returned
// to the operating system, so that neither the previous sample's garbage
// nor its resident memory is charged to it.
//
// A warm-up simulation of seed itself comes first and is returned as
// out[0], with warmup set; the budget starts after it. It grows the heap
// and the runtime's lazy state, which a fresh process lacks, and since
// sample 0 simulates the same inputs, verify checks in every run that
// the two digests agree.
func measure(w workload, seed int64, budget time.Duration) (out []sample) {
	var start time.Time
	for len(out) <= minSamples || time.Since(start) < budget {
		debug.FreeOSMemory()
		var s sample
		if len(out) == 0 {
			s = simulate(w, seed)
			s.warmup = true
		} else {
			s = simulate(w, subSeed(seed, len(out)-1))
		}
		out = append(out, s)
		if s.err != nil {
			// A failed simulation may leave frontend goroutines blocked;
			// stop rather than measure on top of them.
			break
		}
		report(len(out)-1, s)
		if s.warmup {
			start = time.Now()
		}
	}
	return out
}

// report prints one sample's figures on standard error.
func report(i int, s sample) {
	fmt.Fprintf(os.Stderr, "sample %2d seed %d: setup %7.2fms  run %6.3fs  cpu %6.3fs  %9.0f refs/s  %8d allocs  mem %5.1f+%5.1fMiB  goroutines %d  %s\n",
		i, s.seed, float64(s.setup().Microseconds())/1e3, s.run().Seconds(), s.cpu.Seconds(),
		float64(s.out.refs())/s.run().Seconds(), s.allocs, s.baseMiB, s.peakMiB-s.baseMiB, runtime.NumGoroutine(), s.digest[:12])
}

// verify marks each sample that failed its own output check, that ran the
// default seed and differs from the golden digest (when given), or whose
// digest differs from an earlier sample's on the same seed: a simulation
// is a pure function of its inputs. It returns the good samples and the
// number of failed ones, and reports every failure on standard error.
func verify(samples []sample, golden string) (good []sample, failed int) {
	first := map[int64]string{}
	for i, s := range samples {
		err := s.err
		if err == nil {
			d, seen := first[s.seed]
			switch {
			case seen && d != s.digest:
				err = fmt.Errorf("seed %d: digest %s differs from an earlier run's %s", s.seed, s.digest, d)
			case s.seed == defaultSeed && golden != "" && s.digest != golden:
				err = fmt.Errorf("digest %s, golden %s", s.digest, golden)
			case !seen:
				first[s.seed] = s.digest
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: sample %d failed: %v\n", i, err)
			failed++
			continue
		}
		good = append(good, s)
	}
	return good, failed
}

// endToEnd measures the end-to-end metrics with tracing off.
func endToEnd(w workload, seed int64, seconds float64, golden string) record {
	samples := measure(w, seed, time.Duration(seconds*float64(time.Second)))
	good, failed := verify(samples, golden)
	rec := record{Correct: failed == 0, Attempted: len(samples), Failed: failed, Metrics: map[string]metric{}}
	if len(good) <= 1 {
		return rec
	}
	// Medians over the samples shrug off both a host hiccup and the rare
	// seed whose run is several times heavier than the rest.
	var rate, cpu, allocs, setup, peak []float64
	for _, s := range good {
		if s.warmup {
			continue
		}
		n := float64(s.out.refs())
		rate = append(rate, n/s.run().Seconds())
		cpu = append(cpu, float64(s.cpu.Nanoseconds())/n)
		allocs = append(allocs, float64(s.allocs)/n)
		setup = append(setup, s.setup().Seconds())
		peak = append(peak, s.peakMiB-s.baseMiB)
	}
	rec.Metrics["refs_per_s"] = metric{median(rate), "1/s"}
	rec.Metrics["cpu_ns_per_ref"] = metric{median(cpu), "ns"}
	rec.Metrics["allocs_per_ref"] = metric{median(allocs), "count"}
	rec.Metrics["setup_s"] = metric{median(setup), "s"}
	// A simulation's peak is what it adds to the memory held when it
	// started, on top of what the fresh process held before its first one:
	// metadata a heavy simulation leaves mapped is not charged to the next.
	rec.Metrics["peak_rss_mb"] = metric{samples[0].baseMiB + median(peak), "MiB"}
	return rec
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
