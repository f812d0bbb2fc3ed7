package stats

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestBasicDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); !almost(v, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); !almost(s, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", s)
	}
	if m := Min(xs); m != 2 {
		t.Errorf("Min = %v, want 2", m)
	}
	if m := Max(xs); m != 9 {
		t.Errorf("Max = %v, want 9", m)
	}
	if s := Sum(xs); s != 40 {
		t.Errorf("Sum = %v, want 40", s)
	}
}

func TestEmptyInputsGiveNaN(t *testing.T) {
	for name, v := range map[string]float64{
		"Mean":     Mean(nil),
		"Variance": Variance(nil),
		"Median":   Median(nil),
		"Min":      Min(nil),
		"Max":      Max(nil),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s(nil) = %v, want NaN", name, v)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("Median odd = %v, want 2", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("Median even = %v, want 2.5", m)
	}
	xs := []float64{10, 20, 30, 40, 50}
	if p := Percentile(xs, 0); p != 10 {
		t.Errorf("P0 = %v, want 10", p)
	}
	if p := Percentile(xs, 100); p != 50 {
		t.Errorf("P100 = %v, want 50", p)
	}
	if p := Percentile(xs, 25); p != 20 {
		t.Errorf("P25 = %v, want 20", p)
	}
	// Input must not be mutated.
	xs2 := []float64{3, 1, 2}
	Median(xs2)
	if !reflect.DeepEqual(xs2, []float64{3, 1, 2}) {
		t.Error("Median mutated its input")
	}
}

func TestCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPos := []float64{2, 4, 6, 8, 10}
	yNeg := []float64{10, 8, 6, 4, 2}
	if c := Correlation(x, yPos); !almost(c, 1, 1e-12) {
		t.Errorf("perfect positive correlation = %v, want 1", c)
	}
	if c := Correlation(x, yNeg); !almost(c, -1, 1e-12) {
		t.Errorf("perfect negative correlation = %v, want -1", c)
	}
	if c := Correlation(x, []float64{5, 5, 5, 5, 5}); !math.IsNaN(c) {
		t.Errorf("constant series correlation = %v, want NaN", c)
	}
	if c := Correlation(x, []float64{1, 2}); !math.IsNaN(c) {
		t.Errorf("mismatched lengths = %v, want NaN", c)
	}
}

func TestCorrelationBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rngFloats(seed, 20)
		s := rngFloats(seed+1, 20)
		c := Correlation(r, s)
		return math.IsNaN(c) || (c >= -1-1e-9 && c <= 1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// rngFloats produces deterministic pseudo-random values for property tests.
func rngFloats(seed int64, n int) []float64 {
	x := uint64(seed)*2654435761 + 1
	out := make([]float64, n)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = float64(x%10000) / 100
	}
	return out
}

func TestDiscardOutliers(t *testing.T) {
	xs := []float64{10, 11, 9, 10, 12, 1000}
	got := DiscardOutliers(xs, 1)
	for _, v := range got {
		if v == 1000 {
			t.Error("outlier not discarded")
		}
	}
	if len(got) != 5 {
		t.Errorf("kept %d values, want 5", len(got))
	}
	// All-equal input: nothing discarded.
	same := []float64{5, 5, 5}
	if got := DiscardOutliers(same, 1); len(got) != 3 {
		t.Errorf("constant input filtered to %d values, want 3", len(got))
	}
}

// TestDiscardOutliersAdversarial drives the filter through the
// degenerate inputs the probe layer's Repeat path can produce: empty
// runs, single probes, identical timings, and k values that would keep
// nothing. The guarantees under test: never panic, never return NaN,
// never invent values, and keep everything when spread is zero.
func TestDiscardOutliersAdversarial(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		k    float64
		want int // kept count; -1 means "just the invariants"
	}{
		{"empty", nil, 2, 0},
		{"single", []float64{7}, 2, 1},
		{"single zero k", []float64{7}, 0, 1},
		{"all identical", []float64{3, 3, 3, 3}, 1, 4},
		{"all identical zero k", []float64{3, 3, 3}, 0, 3},
		{"two far apart zero k", []float64{1, 100}, 0, -1},
		{"huge k keeps all", []float64{1, 2, 3, 1e9}, 1e12, 4},
		{"negative values", []float64{-5, -5, -5, -1000}, 1, 3},
		{"tiny spread", []float64{1, 1 + 1e-15, 1 - 1e-15}, 3, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := map[float64]bool{}
			for _, x := range tc.xs {
				in[x] = true
			}
			got := DiscardOutliers(tc.xs, tc.k)
			if tc.want >= 0 && len(got) != tc.want {
				t.Errorf("kept %d values, want %d (got %v)", len(got), tc.want, got)
			}
			for _, v := range got {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("non-finite survivor %v", v)
				}
				if !in[v] {
					t.Errorf("survivor %v was not in the input", v)
				}
			}
			if len(got) > len(tc.xs) {
				t.Errorf("filter grew the sample: %d -> %d", len(tc.xs), len(got))
			}
		})
	}
}

func TestSignTest(t *testing.T) {
	a := []float64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	b := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	plus, minus, p := SignTest(a, b)
	if plus != 10 || minus != 0 {
		t.Errorf("signs = (%d, %d), want (10, 0)", plus, minus)
	}
	if p > 0.01 {
		t.Errorf("one-sided dominance p = %v, want < 0.01", p)
	}
	// Balanced differences: p should be large.
	c := []float64{1, 2, 1, 2, 1, 2}
	d := []float64{2, 1, 2, 1, 2, 1}
	_, _, p2 := SignTest(c, d)
	if p2 < 0.5 {
		t.Errorf("balanced p = %v, want >= 0.5", p2)
	}
	// All ties.
	_, _, p3 := SignTest([]float64{1, 1}, []float64{1, 1})
	if p3 != 1 {
		t.Errorf("all-ties p = %v, want 1", p3)
	}
}

// TestSignTestAdversarial covers the paired-comparison edge cases:
// empty and single-pair inputs, mismatched lengths (extra entries must
// be ignored, not read), all-identical pairs, and the requirement that
// p is always a probability — finite and within [0, 1] — so callers can
// threshold it without NaN checks.
func TestSignTestAdversarial(t *testing.T) {
	cases := []struct {
		name      string
		a, b      []float64
		wantPlus  int
		wantMinus int
		wantP     float64 // -1 means "any valid probability"
	}{
		{"both empty", nil, nil, 0, 0, 1},
		{"single tie", []float64{4}, []float64{4}, 0, 0, 1},
		{"single win", []float64{5}, []float64{4}, 1, 0, 1},
		{"all identical pairs", []float64{2, 2, 2}, []float64{2, 2, 2}, 0, 0, 1},
		{"a longer than b", []float64{9, 9, 9, 9}, []float64{1}, 1, 0, 1},
		{"b longer than a", []float64{1}, []float64{9, 9, 9, 9}, 0, 1, 1},
		{"strong dominance", []float64{9, 9, 9, 9, 9, 9, 9, 9}, []float64{1, 1, 1, 1, 1, 1, 1, 1}, 8, 0, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plus, minus, p := SignTest(tc.a, tc.b)
			if plus != tc.wantPlus || minus != tc.wantMinus {
				t.Errorf("signs = (%d, %d), want (%d, %d)", plus, minus, tc.wantPlus, tc.wantMinus)
			}
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Errorf("p = %v, want a probability in [0, 1]", p)
			}
			if tc.wantP >= 0 && !almost(p, tc.wantP, 1e-12) {
				t.Errorf("p = %v, want %v", p, tc.wantP)
			}
		})
	}
}

func TestRunningMatchesTwoPass(t *testing.T) {
	f := func(seed int64) bool {
		xs := rngFloats(seed, 50)
		var r Running
		for _, x := range xs {
			r.Add(x)
		}
		return almost(r.Mean(), Mean(xs), 1e-9) &&
			almost(r.Variance(), Variance(xs), 1e-6) &&
			r.Min() == Min(xs) && r.Max() == Max(xs) &&
			r.N() == int64(len(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunningReset(t *testing.T) {
	var r Running
	r.Add(5)
	r.Reset()
	if r.N() != 0 || !math.IsNaN(r.Mean()) {
		t.Error("Reset did not clear state")
	}
}

func TestExpAvg(t *testing.T) {
	e := NewExpAvg(0.5)
	if !math.IsNaN(e.Value()) {
		t.Error("empty ExpAvg should be NaN")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Errorf("first value = %v, want 10", e.Value())
	}
	e.Add(20)
	if !almost(e.Value(), 15, 1e-12) {
		t.Errorf("after 20: %v, want 15", e.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid alpha")
		}
	}()
	NewExpAvg(0)
}

func TestCluster2Bimodal(t *testing.T) {
	// Probe-time-like data: microseconds vs milliseconds.
	xs := []float64{3, 4, 3.5, 5000, 4800, 3.2, 5100, 4}
	res := Cluster2(xs)
	if len(res.LowIdx) != 5 || len(res.HighIdx) != 3 {
		t.Fatalf("groups = (%d, %d), want (5, 3)", len(res.LowIdx), len(res.HighIdx))
	}
	for _, i := range res.LowIdx {
		if xs[i] > 10 {
			t.Errorf("value %v misclassified as low", xs[i])
		}
	}
	for _, i := range res.HighIdx {
		if xs[i] < 1000 {
			t.Errorf("value %v misclassified as high", xs[i])
		}
	}
	if res.Separation() < 100 {
		t.Errorf("Separation = %v, want large", res.Separation())
	}
}

func TestCluster2Degenerate(t *testing.T) {
	res := Cluster2(nil)
	if len(res.LowIdx) != 0 || len(res.HighIdx) != 0 {
		t.Error("empty input should give empty groups")
	}
	res = Cluster2([]float64{7})
	if len(res.LowIdx) != 1 || len(res.HighIdx) != 0 {
		t.Error("single value should be one low group")
	}
	res = Cluster2([]float64{5, 5, 5})
	if len(res.LowIdx) != 3 || len(res.HighIdx) != 0 {
		t.Error("constant values should be one group")
	}
	if !math.IsNaN(res.Separation()) {
		t.Error("Separation of one group should be NaN")
	}
}

func TestCluster2PartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		xs := rngFloats(seed, 30)
		res := Cluster2(xs)
		// Partition covers all indices exactly once.
		all := append(append([]int(nil), res.LowIdx...), res.HighIdx...)
		if len(all) != len(xs) {
			return false
		}
		sort.Ints(all)
		for i, v := range all {
			if v != i {
				return false
			}
		}
		// Order statistic: every low value <= every high value.
		if len(res.HighIdx) > 0 {
			maxLow := math.Inf(-1)
			for _, i := range res.LowIdx {
				if xs[i] > maxLow {
					maxLow = xs[i]
				}
			}
			for _, i := range res.HighIdx {
				if xs[i] < maxLow {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCluster2ThresholdSeparates(t *testing.T) {
	xs := []float64{1, 2, 100, 101}
	res := Cluster2(xs)
	for _, i := range res.LowIdx {
		if xs[i] > res.Threshold {
			t.Errorf("low value %v above threshold %v", xs[i], res.Threshold)
		}
	}
	for _, i := range res.HighIdx {
		if xs[i] <= res.Threshold {
			t.Errorf("high value %v not above threshold %v", xs[i], res.Threshold)
		}
	}
}

func TestHistogram(t *testing.T) {
	counts, width := Histogram([]float64{0, 1, 2, 3, 9.9, -5, 15}, 0, 10, 5)
	if width != 2 {
		t.Errorf("width = %v, want 2", width)
	}
	want := []int{3, 2, 0, 0, 2} // -5 clamps to bin 0; 15 clamps to bin 4
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
}
