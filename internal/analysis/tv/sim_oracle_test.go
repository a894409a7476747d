package tv_test

import (
	"fmt"
	"testing"

	"csspgo/internal/analysis/tv"
	"csspgo/internal/fuzzgen"
	"csspgo/internal/pgo"
	"csspgo/internal/sim"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// The interpreter and the simulator share no code: one walks IR blocks,
// the other executes the linked binary codegen made from that IR. After a
// full profile-guided build (FullCS: inlining, ICP, layout, splitting,
// TCE) both must agree on every request's return value and final global
// memory. This is the simulator's safety net against a faster loop that
// drifts from the IR's meaning.

// agreeOnRequests runs every request on a fresh process image in both
// executors and compares the outcomes.
func agreeOnRequests(t *testing.T, name string, res *pgo.BuildResult, reqs [][]int64) {
	t.Helper()
	m := sim.New(res.Bin, sim.DefaultCostParams(), sim.PMUConfig{})
	for _, req := range reqs {
		m.Reset()
		got, err := m.Run(req...)
		if err != nil {
			t.Fatalf("%s sim%v: %v", name, req, err)
		}
		want := tv.Interpret(res.IR, req)
		if want.Status != tv.StatusOK {
			t.Fatalf("%s interp%v: status %q", name, req, want.Status)
		}
		if got != want.Ret {
			t.Fatalf("%s input %v: sim returned %d, interpreter %d", name, req, got, want.Ret)
		}
		if h := tv.GlobalsHash(m.Globals()); h != want.GlobalHash {
			t.Fatalf("%s input %v: global memory differs (sim %#x, interpreter %#x)", name, req, h, want.GlobalHash)
		}
	}
}

func TestInterpreterMatchesSimulatorOnWorkloads(t *testing.T) {
	for _, name := range append(workloads.ServerNames(), "clangish", "dispatcher") {
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := pgo.Pipeline(w.Files, pgo.FullCS, w.Train)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reqs := w.Eval
		if testing.Short() && len(reqs) > 8 {
			reqs = reqs[:8]
		}
		agreeOnRequests(t, name, res, reqs)
	}
}

func TestInterpreterMatchesSimulatorOnRandomPrograms(t *testing.T) {
	inputs := [][]int64{{0, 0}, {1, 3}, {17, 5}, {100, 42}, {-7, 9}, {999, 1}}
	for seed := int64(1); seed <= 12; seed++ {
		src := fuzzgen.Program(seed)
		f, err := source.Parse("fuzz.ml", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, _, err := pgo.Pipeline([]*source.File{f}, pgo.FullCS, inputs)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		agreeOnRequests(t, fmt.Sprintf("seed %d", seed), res, inputs)
	}
}
