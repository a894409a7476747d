package sim_test

import (
	"testing"

	"csspgo/internal/pgo"
	"csspgo/internal/sim"
	"csspgo/internal/workloads"
)

// TestRunAllocatesNothing pins the allocation-free loop: once a first run
// has sized the register stack, frame stack and snapshot buffers, a
// PMU-off Run allocates nothing, calls, tail calls and all.
func TestRunAllocatesNothing(t *testing.T) {
	for _, name := range []string{"hhvm", "adretriever"} {
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pgo.Build(w.Files, pgo.BuildConfig{})
		if err != nil {
			t.Fatal(err)
		}
		m := sim.New(res.Bin, sim.DefaultCostParams(), sim.PMUConfig{})
		for _, req := range w.Eval {
			if _, err := m.Run(req...); err != nil {
				t.Fatal(err)
			}
		}
		req := w.Eval[0]
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := m.Run(req...); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per Run after warm-up, want 0", name, allocs)
		}
	}
}
