package compass

import (
	"fmt"
	"strings"
	"testing"
)

// SpecConfig rejects a spec that cannot describe a run before any machine
// is built, so compassrun exits with a usage error instead of a crash
// report. Zero still means "default".
func TestSpecConfigRejectsBadSpecs(t *testing.T) {
	base := RunSpec{Workload: "tpcc", RTC: true}
	for _, tc := range []struct {
		name string
		edit func(*RunSpec)
		want string // "" = accepted
	}{
		{"defaults", func(*RunSpec) {}, ""},
		{"negative cpus", func(s *RunSpec) { s.CPUs = -2 }, "negative cpus"},
		{"negative nodes", func(s *RunSpec) { s.Nodes = -1 }, "negative nodes"},
		{"negative agents", func(s *RunSpec) { s.Agents = -1 }, "negative agents"},
		{"negative tx", func(s *RunSpec) { s.Tx = -1 }, "negative tx"},
		{"negative rows", func(s *RunSpec) { s.Rows = -1 }, "negative rows"},
		{"negative requests", func(s *RunSpec) { s.Requests = -5 }, "negative requests"},
		{"negative segments", func(s *RunSpec) { s.Segments = -1 }, "negative segments"},
		{"cpus not divisible by nodes", func(s *RunSpec) { s.Arch, s.Nodes, s.CPUs = "ccnuma", 3, 4 }, "4 CPUs not divisible by 3 nodes"},
		{"default cpus not divisible by nodes", func(s *RunSpec) { s.Arch, s.Nodes = "ccnuma", 3 }, "4 CPUs not divisible by 3 nodes"},
		{"nodes divide cpus", func(s *RunSpec) { s.Arch, s.Nodes, s.CPUs = "ccnuma", 2, 4 }, ""},
		{"tpcd fewer rows than orders", func(s *RunSpec) { s.Workload, s.Rows = "tpcd", 255 }, "at least 256 rows"},
		{"tpcd one row per order", func(s *RunSpec) { s.Workload, s.Rows = "tpcd", 256 }, ""},
		{"tpcd default rows", func(s *RunSpec) { s.Workload = "tpcd" }, ""},
		{"bad chaos", func(s *RunSpec) { s.Chaos = "crashseed=5x" }, "bad -chaos element"},
		{"bad load", func(s *RunSpec) { s.Load = "class=web,rate=x" }, "spec load"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.edit(&spec)
			_, err := SpecConfig(spec)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestParseChaosSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want ChaosConfig
		bad  bool
	}{
		{spec: ""},
		{spec: "block", want: ChaosConfig{Block: true}},
		{spec: "crashseed=5", want: ChaosConfig{CrashSeed: 5}},
		{spec: "crashsegment=2,block", want: ChaosConfig{CrashSegment: 2, Block: true}},
		{spec: "crashseed=13,,crashsegment=1,", want: ChaosConfig{CrashSeed: 13, CrashSegment: 1}},
		{spec: "crashseed=5x", bad: true},
		{spec: "crashseed=", bad: true},
		{spec: "crashseed=-1", bad: true},
		{spec: "crashseed=+1", bad: true},
		{spec: "crashsegment=-3", bad: true},
		{spec: "crashsegment=2 ", bad: true},
		{spec: "blocked", bad: true},
		{spec: "block=1", bad: true},
		{spec: "crashseed", bad: true},
	} {
		got, err := ParseChaosSpec(tc.spec)
		if tc.bad {
			if err == nil {
				t.Errorf("%q: accepted as %+v", tc.spec, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%q: got %+v, %v; want %+v", tc.spec, got, err, tc.want)
		}
	}
}

// formatChaos renders a plan in the -chaos grammar.
func formatChaos(c ChaosConfig) string {
	var parts []string
	if c.CrashSeed != 0 {
		parts = append(parts, fmt.Sprintf("crashseed=%d", c.CrashSeed))
	}
	if c.CrashSegment != 0 {
		parts = append(parts, fmt.Sprintf("crashsegment=%d", c.CrashSegment))
	}
	if c.Block {
		parts = append(parts, "block")
	}
	return strings.Join(parts, ",")
}

// FuzzParseChaosSpec: the parser never panics, an error returns the zero
// plan, and an accepted plan is non-negative and survives a round trip
// through its canonical rendering.
func FuzzParseChaosSpec(f *testing.F) {
	for _, s := range []string{"", "block", "crashseed=5", "crashsegment=2,block", "crashseed=13,,crashsegment=1,",
		"crashseed=5x", "crashsegment=-3", "crashseed=18446744073709551616", "block=1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseChaosSpec(spec)
		if err != nil {
			if c != (ChaosConfig{}) {
				t.Fatalf("error %v returned non-zero plan %+v", err, c)
			}
			return
		}
		if c.CrashSegment < 0 {
			t.Fatalf("%q parsed to negative crash segment %d", spec, c.CrashSegment)
		}
		again, err := ParseChaosSpec(formatChaos(c))
		if err != nil || again != c {
			t.Fatalf("%q: round trip of %+v gave %+v, %v", spec, c, again, err)
		}
	})
}
