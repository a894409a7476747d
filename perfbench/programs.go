package main

import (
	"fmt"
	"hash/fnv"

	"csspgo/internal/codegen"
	"csspgo/internal/irgen"
	"csspgo/internal/machine"
	"csspgo/internal/sim"
	"csspgo/internal/source"
	"csspgo/internal/workloads"
)

// scale is the request-stream scale the benchmark loads every program at:
// the one `cmd/experiments` runs Fig. 6 at.
const scale = 2

// requestBounds mirrors each generator's request value range (values are
// drawn from [0, bound)). The generators keep it private;
// TestRequestBoundsMatchGenerators pins this table to them.
var requestBounds = map[string]int64{
	"adfinder":    10000,
	"adranker":    3000,
	"adretriever": 50000,
	"clangish":    100000,
	"haas":        100000,
	"hhvm":        100000,
}

// program is one workload generator's sources with request streams drawn
// from the benchmark seed, plus the oracle's expected eval results.
type program struct {
	name  string
	files []*source.File
	train [][]int64
	eval  [][]int64
	// want holds the result of every eval request on the unoptimized,
	// profile-free binary, run in order on one machine.
	want []int64
}

// loadProgram generates the named program and replaces the generator's
// request streams with streams drawn from seed that keep the generator's
// request count, arity and value range. Program sources stay the
// generator's own.
func loadProgram(name string, seed uint64) (*program, error) {
	w, err := workloads.Load(name, scale)
	if err != nil {
		return nil, err
	}
	bound, ok := requestBounds[name]
	if !ok {
		return nil, fmt.Errorf("no request bound for program %q", name)
	}
	return &program{
		name:  name,
		files: w.Files,
		train: drawStream(streamSeed(seed, name, "train"), len(w.Train), len(w.Train[0]), bound),
		eval:  drawStream(streamSeed(seed, name, "eval"), len(w.Eval), len(w.Eval[0]), bound),
	}, nil
}

// streamSeed derives an independent stream seed for one (program, stream)
// pair from the benchmark seed.
func streamSeed(seed uint64, name, stream string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x1f%s", name, stream)
	return splitmix(seed ^ h.Sum64())
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// drawStream builds n requests of the given arity with values in [0, bound).
func drawStream(seed uint64, n, arity int, bound int64) [][]int64 {
	x := seed
	out := make([][]int64, n)
	for i := range out {
		req := make([]int64, arity)
		for j := range req {
			x = splitmix(x)
			req[j] = int64(x % uint64(bound))
		}
		out[i] = req
	}
	return out
}

// buildOracle lowers the program straight to machine code, with no
// optimization pass, no probes and no profile, and records its result for
// every eval request. It shares irgen, codegen and sim with the builds under
// test but none of the optimizer, so an optimizer or profile bug shows as a
// mismatch.
func (p *program) buildOracle() error {
	irp, err := irgen.Lower(p.files...)
	if err != nil {
		return fmt.Errorf("%s: oracle lower: %w", p.name, err)
	}
	bin, err := codegen.Lower(irp, codegen.Options{StripProbeMeta: true})
	if err != nil {
		return fmt.Errorf("%s: oracle codegen: %w", p.name, err)
	}
	p.want, _, err = runEval(bin, p.eval)
	if err != nil {
		return fmt.Errorf("%s: oracle run: %w", p.name, err)
	}
	return nil
}

// runEval runs the requests in order on a fresh PMU-off machine, the way
// pgo.Evaluate does, and returns every result with the run's stats.
func runEval(bin *machine.Prog, reqs [][]int64) ([]int64, sim.Stats, error) {
	m := sim.New(bin, sim.DefaultCostParams(), sim.PMUConfig{})
	out := make([]int64, len(reqs))
	for i, req := range reqs {
		v, err := m.Run(req...)
		if err != nil {
			return nil, sim.Stats{}, fmt.Errorf("request %d: %w", i, err)
		}
		out[i] = v
	}
	return out, m.Stats(), nil
}

// checkBinary re-runs a binary the benchmark built on the eval requests and
// compares every result with the oracle. It returns the run's cycle count.
func (p *program) checkBinary(bin *machine.Prog) (uint64, error) {
	got, st, err := runEval(bin, p.eval)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", p.name, err)
	}
	for i := range got {
		if got[i] != p.want[i] {
			return 0, fmt.Errorf("%s: eval request %d returned %d, oracle says %d", p.name, i, got[i], p.want[i])
		}
	}
	return st.Cycles, nil
}
