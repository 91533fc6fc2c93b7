package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Known sample variance of this classic data set is 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 {
		t.Error("single observation summary wrong")
	}
}

func TestSummaryMergeEquivalentToSequential(t *testing.T) {
	prop := func(xs, ys []float64) bool {
		clean := func(in []float64) []float64 {
			out := make([]float64, 0, len(in))
			for _, v := range in {
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					out = append(out, math.Mod(v, 1e6))
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a, b, whole Summary
		a.AddAll(xs)
		b.AddAll(ys)
		whole.AddAll(xs)
		whole.AddAll(ys)
		a.Merge(b)
		if a.N() != whole.N() {
			return false
		}
		if a.N() == 0 {
			return true
		}
		tol := 1e-6 * (1 + math.Abs(whole.Mean()))
		if math.Abs(a.Mean()-whole.Mean()) > tol {
			return false
		}
		tolV := 1e-6 * (1 + whole.Variance())
		return math.Abs(a.Variance()-whole.Variance()) <= tolV
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummaryMergeEmptySides(t *testing.T) {
	var empty, full Summary
	full.AddAll([]float64{1, 2, 3})
	cp := full
	cp.Merge(empty)
	if cp.N() != 3 || cp.Mean() != 2 {
		t.Error("merging empty should be identity")
	}
	var e2 Summary
	e2.Merge(full)
	if e2.N() != 3 || e2.Mean() != 2 {
		t.Error("merging into empty should copy")
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v, want slope 2, intercept 1", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLineNoisy(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9} // ~2x
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 0.1 {
		t.Errorf("slope = %v, want ~2", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %v, want > 0.99", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x should error")
	}
}

func TestFitLineConstantY(t *testing.T) {
	fit, err := FitLine([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.R2 != 1 {
		t.Errorf("constant y: %+v", fit)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	h.Add(0.05) // bin 0
	h.Add(0.15) // bin 1
	h.Add(0.999)
	h.Add(-5) // clamps to bin 0
	h.Add(7)  // clamps to bin 9
	if h.Total() != 5 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[9] != 2 {
		t.Errorf("counts = %v", h.Counts)
	}
	if math.Abs(h.Fraction(0)-0.4) > 1e-12 {
		t.Errorf("Fraction(0) = %v", h.Fraction(0))
	}
	if math.Abs(h.BinCenter(0)-0.05) > 1e-12 {
		t.Errorf("BinCenter(0) = %v", h.BinCenter(0))
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Pearson(xs, []float64{2, 4, 6, 8}); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect positive correlation = %v", got)
	}
	if got := Pearson(xs, []float64{8, 6, 4, 2}); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect negative correlation = %v", got)
	}
	if got := Pearson(xs, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("zero-variance correlation = %v", got)
	}
	if got := Pearson([]float64{1}, []float64{1}); got != 0 {
		t.Errorf("degenerate input = %v", got)
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.AddAll([]float64{1, 2, 3})
	if got := s.String(); got == "" {
		t.Error("String should be non-empty")
	}
}
