package netpipe

import (
	"math"
	"strings"
	"testing"
	"time"
)

// quickSizes keeps unit tests fast; benchmarks use DefaultSizes.
var quickSizes = []int{1, 64, 4096, 65536}

func runQuick(t *testing.T, mode Mode) Series {
	t.Helper()
	s, err := Run(Config{Mode: mode, Sizes: quickSizes, Reps: 50, Warmup: 4})
	if err != nil {
		t.Fatalf("Run(%v): %v", mode, err)
	}
	return s
}

func TestModeString(t *testing.T) {
	if ModeDirect.String() != "direct" || ModeNone.String() != "crcp-none" || ModeBkmrk.String() != "crcp-bkmrk" {
		t.Error("mode names changed")
	}
	if Mode(9).String() != "mode(9)" {
		t.Error("unknown mode formatting")
	}
}

func TestAllModesProduceSaneSeries(t *testing.T) {
	for _, mode := range []Mode{ModeDirect, ModeNone, ModeBkmrk} {
		s := runQuick(t, mode)
		if len(s.Points) != len(quickSizes) {
			t.Fatalf("%v: %d points", mode, len(s.Points))
		}
		for i, p := range s.Points {
			if p.Size != quickSizes[i] {
				t.Errorf("%v point %d size = %d", mode, i, p.Size)
			}
			if p.Latency <= 0 || p.Latency > time.Second {
				t.Errorf("%v size %d latency = %v", mode, p.Size, p.Latency)
			}
			if p.Bandwidth <= 0 {
				t.Errorf("%v size %d bandwidth = %v", mode, p.Size, p.Bandwidth)
			}
		}
		// Bandwidth grows with message size (monotone-ish: compare ends).
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if last.Bandwidth <= first.Bandwidth {
			t.Errorf("%v: bandwidth did not grow with size: %v .. %v", mode, first.Bandwidth, last.Bandwidth)
		}
	}
}

// Compare is pure arithmetic over two aligned series, so it is checked
// on synthetic points with exact expected overheads. The live overhead
// of the C/R-enabled stack is a wall-clock measurement; it is gated by
// the paired probe in crbench, not asserted here.
func TestCompareAlignsSizes(t *testing.T) {
	base := Series{Mode: ModeDirect, Points: []Point{
		{Size: 1, Latency: 10 * time.Microsecond, Bandwidth: 0.1},
		{Size: 64, Latency: 20 * time.Microsecond, Bandwidth: 3.2},
		{Size: 4096, Latency: 40 * time.Microsecond, Bandwidth: 100},
	}}
	test := Series{Mode: ModeNone, Points: []Point{
		{Size: 1, Latency: 11 * time.Microsecond, Bandwidth: 0.09},
		{Size: 64, Latency: 20 * time.Microsecond, Bandwidth: 3.2},
		{Size: 4096, Latency: 30 * time.Microsecond, Bandwidth: 125},
	}}
	ovh, err := Compare(base, test)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	want := []Overhead{
		{Size: 1, BaseLatency: 10 * time.Microsecond, TestLatency: 11 * time.Microsecond, LatencyPct: 10, BandwidthPct: -10},
		{Size: 64, BaseLatency: 20 * time.Microsecond, TestLatency: 20 * time.Microsecond, LatencyPct: 0, BandwidthPct: 0},
		{Size: 4096, BaseLatency: 40 * time.Microsecond, TestLatency: 30 * time.Microsecond, LatencyPct: -25, BandwidthPct: 25},
	}
	if len(ovh) != len(want) {
		t.Fatalf("overheads = %d, want %d", len(ovh), len(want))
	}
	for i, o := range ovh {
		w := want[i]
		if o.Size != w.Size || o.BaseLatency != w.BaseLatency || o.TestLatency != w.TestLatency ||
			math.Abs(o.LatencyPct-w.LatencyPct) > 1e-9 || math.Abs(o.BandwidthPct-w.BandwidthPct) > 1e-9 {
			t.Errorf("overhead %d = %+v, want %+v", i, o, w)
		}
	}
	// Mismatched series are rejected.
	if _, err := Compare(base, Series{Mode: ModeNone, Points: base.Points[:1]}); err == nil {
		t.Error("Compare accepted length mismatch")
	}
	bad := Series{Mode: ModeNone, Points: append([]Point{}, base.Points...)}
	bad.Points[0].Size = 3
	if _, err := Compare(base, bad); err == nil {
		t.Error("Compare accepted size mismatch")
	}
}

func TestDefaultSizesShape(t *testing.T) {
	sizes := DefaultSizes()
	if sizes[0] != 1 || sizes[len(sizes)-1] != 1<<22 {
		t.Errorf("sizes = %v..%v", sizes[0], sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != sizes[i-1]*2 {
			t.Errorf("sizes not doubling at %d", i)
		}
	}
}

func TestWriters(t *testing.T) {
	s := runQuick(t, ModeNone)
	var b strings.Builder
	WriteTable(&b, s)
	out := b.String()
	if !strings.Contains(out, "crcp-none") || !strings.Contains(out, "bytes") {
		t.Errorf("table output: %q", out)
	}
	base := runQuick(t, ModeDirect)
	ovh, err := Compare(base, s)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	WriteComparison(&b, base, s, ovh)
	if !strings.Contains(b.String(), "lat-ovh%") {
		t.Errorf("comparison output: %q", b.String())
	}
}
