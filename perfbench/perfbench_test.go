package main

import (
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"csspgo/internal/obs"
	"csspgo/internal/workloads"
)

// unattributedBoundPct is the share of traced op time the ledger may leave
// outside every layer's self time.
const unattributedBoundPct = 5

// deterministic reports whether a per-layer metric is a work counter that
// must repeat exactly for a seed.
func deterministic(name string) bool {
	for _, suffix := range []string{".instructions", ".samples", ".ranges", "_inlines", ".text_bytes", "profdata.bytes", ".cycles", ".probes", ".contexts", ".inlined", ".promoted"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

func TestRequestBoundsMatchGenerators(t *testing.T) {
	for name, bound := range requestBounds {
		w, err := workloads.Load(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		var max int64
		for _, req := range append(append([][]int64(nil), w.Train...), w.Eval...) {
			for _, v := range req {
				if v < 0 || v >= bound {
					t.Fatalf("%s: generator request value %d outside [0, %d)", name, v, bound)
				}
				if v > max {
					max = v
				}
			}
		}
		if max < bound/2 {
			t.Errorf("%s: generator values reach only %d; the bound %d looks stale", name, max, bound)
		}
	}
}

func TestSeedDrawsStreamsOfTheGeneratorsShape(t *testing.T) {
	for _, name := range rebuildPrograms {
		w, err := workloads.Load(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		a, err := loadProgram(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := loadProgram(name, 1)
		b, _ := loadProgram(name, 2)
		if !reflect.DeepEqual(a.train, again.train) || !reflect.DeepEqual(a.eval, again.eval) {
			t.Errorf("%s: the same seed drew different streams", name)
		}
		if reflect.DeepEqual(a.train, b.train) || reflect.DeepEqual(a.eval, b.eval) {
			t.Errorf("%s: seeds 1 and 2 drew the same stream", name)
		}
		for _, s := range []struct {
			got, gen [][]int64
		}{{a.train, w.Train}, {a.eval, w.Eval}, {b.train, w.Train}, {b.eval, w.Eval}} {
			if len(s.got) != len(s.gen) {
				t.Fatalf("%s: drew %d requests, generator has %d", name, len(s.got), len(s.gen))
			}
			for _, req := range s.got {
				if len(req) != len(s.gen[0]) {
					t.Fatalf("%s: drew arity %d, generator has %d", name, len(req), len(s.gen[0]))
				}
				for _, v := range req {
					if v < 0 || v >= requestBounds[name] {
						t.Fatalf("%s: drew %d outside [0, %d)", name, v, requestBounds[name])
					}
				}
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	stages := []obs.Stage{
		{Name: "build", WallNS: 100},
		{Name: "build/irgen", WallNS: 10},
		{Name: "build/optimize", WallNS: 70},
		{Name: "build/optimize/opt.inference", WallNS: 40},
		{Name: "build/optimize/opt.inline", WallNS: 20},
		{Name: "build/codegen", WallNS: 15},
		{Name: "sim.eval", WallNS: 50},
	}
	want := map[string]int64{"pgo.build": 5, "irgen": 10, "opt": 70, "codegen": 15, "sim.eval": 50}
	if got := selfTimes(stages); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := rankLayers(want); got[0].module != "opt" || got[1].module != "sim" || got[1].ns != 50 {
		t.Errorf("rankLayers = %v, want opt then sim first", got)
	}
	if got := largestPass(stages); got != "inference" {
		t.Errorf("largestPass = %q, want inference", got)
	}
}

// TestTracedRunsRepeat runs one traced pass of each workload twice on the
// same seed. The decomposition check inside each run must pass, the work
// counters must repeat exactly, the ledger must be a valid run report, and
// the unattributed share must stay under its bound.
func TestTracedRunsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			ledger := filepath.Join(t.TempDir(), "ledger.json")
			first, err := run(name, 7, 1e-9, 1, ledger, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			second, err := run(name, 7, 1e-9, 1, ledger, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Correct || !second.Correct {
				t.Fatalf("traced run failed: %+v / %+v", first, second)
			}
			counted := 0
			for k, v := range first.Metrics {
				if deterministic(k) {
					counted++
					if second.Metrics[k] != v {
						t.Errorf("%s: %v then %v", k, v, second.Metrics[k])
					}
				}
			}
			if counted < 15 {
				t.Errorf("only %d deterministic counters compared", counted)
			}
			if u := first.Metrics["unattributed.pct"].Value; u >= unattributedBoundPct {
				t.Errorf("unattributed.pct = %.2f, bound %d", u, unattributedBoundPct)
			}
			rep, err := obs.ReadReport(ledger)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Stages) == 0 || len(rep.Metrics) == 0 {
				t.Errorf("ledger has %d stages and %d metrics", len(rep.Stages), len(rep.Metrics))
			}
		})
	}
}

// TestSpeedupsRepeat checks the end-to-end speedups are the same for a seed
// on every run, and that fig6 and rebuild, which build the same binaries,
// agree on them.
func TestSpeedupsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig6 twice")
	}
	var runs []*output
	for _, name := range []string{"fig6", "fig6", "rebuild"} {
		out, err := run(name, 7, 1e-9, 0, "", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Failed != 0 {
			t.Fatalf("%s: %+v", name, out)
		}
		runs = append(runs, out)
	}
	for _, k := range []string{"speedup.csspgo_vs_autofdo", "speedup.probeonly_vs_autofdo"} {
		a, b, c := runs[0].Metrics[k].Value, runs[1].Metrics[k].Value, runs[2].Metrics[k].Value
		if a != b || a != c || a <= 0 {
			t.Errorf("%s: fig6 %v then %v, rebuild %v", k, a, b, c)
		}
	}
}
