package reputation

import (
	"reflect"
	"testing"
)

// TestMaxIterExhaustedIdenticalAcrossExecutors pins the branch of the power
// iteration that stops on the iteration budget rather than on Epsilon: with
// MaxIter=3 the workspace runs exactly 3 rounds, cold and warm, reports
// Converged == false and the right Warm flag, and a cold budget-stopped
// vector is bit-identical to the dense reference stopped at the same budget
// — on the churned graph below and on every differential-grid case.
func TestMaxIterExhaustedIdenticalAcrossExecutors(t *testing.T) {
	for _, cold := range []bool{true, false} {
		cfg := DefaultEigenTrust()
		cfg.MaxIter = 3
		cfg.ColdStart = cold
		g := randomLogGraph(t, 80, 0.1, 61)
		ws := NewEigenTrustWorkspace()
		for step := 0; step < 3; step++ {
			got, err := ws.Compute(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := ws.LastStats()
			if st.Iterations != 3 || st.Converged || st.Warm != (!cold && step > 0) {
				t.Fatalf("cold=%v step %d: stats %+v, want 3 unconverged rounds", cold, step, st)
			}
			if cold {
				want, err := EigenTrustDense(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(append([]float64(nil), got...), want) {
					t.Fatalf("step %d: budget-stopped vector diverges from the dense reference", step)
				}
			}
			// Heavy value churn so a warm start is still far from the new
			// fixed point and cannot converge inside the budget.
			for i := 0; i < 40; i++ {
				if err := g.AddTrust(i, firstEdge(t, g, i), 25); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, c := range differentialCases() {
		cfg := c.config()
		cfg.MaxIter = 3
		g := c.graph(t)
		got, err := EigenTrust(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EigenTrustDense(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d/d=%g/a=%g/seed=%d: budget-stopped vector diverges from the dense reference",
				c.n, c.density, c.damping, c.seed)
		}
	}
}
