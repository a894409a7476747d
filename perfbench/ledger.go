package main

import (
	"sort"
	"strings"

	"csspgo/internal/machine"
	"csspgo/internal/obs"
	"csspgo/internal/pgo"
	"csspgo/internal/preinline"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

// ledger records a traced run: a span around every layer call the benchmark
// makes (plus the spans pgo.Build already opens when handed a trace), the
// deterministic work counters each layer returns, and the heap bytes
// allocated inside each layer's calls.
type ledger struct {
	tr     *obs.Trace
	counts map[string]float64 // work counters summed over the run's ops
	alloc  map[string]uint64  // heap bytes allocated inside layer calls, by module
	ops    int
	opNS   int64 // summed wall time of the traced ops
	// encodeNS is the time spent encoding the ops' profiles, measured
	// outside the ops: it is the benchmark's check, not the ops' work.
	encodeNS int64
}

func newLedger() *ledger {
	return &ledger{
		tr:     obs.NewTrace(),
		counts: map[string]float64{},
		alloc:  map[string]uint64{},
	}
}

// do runs one layer call under a top-level span named after the layer and
// charges the heap bytes it allocated to the layer's module.
func (l *ledger) do(layer string, fn func()) {
	before := heapAllocs()
	sp := l.tr.Span(layer)
	fn()
	sp.End()
	l.alloc[module(layer)] += heapAllocs() - before
}

// call is do for a layer call that can fail.
func (l *ledger) call(layer string, fn func() error) (err error) {
	l.do(layer, func() { err = fn() })
	return err
}

// build runs pgo.Build with the ledger's trace, which records the build's
// own irgen, probe_insert, optimize/opt.<pass> and codegen spans, and counts
// the build's work.
func (l *ledger) build(files []*source.File, cfg pgo.BuildConfig) (*pgo.BuildResult, error) {
	cfg.Trace = l.tr
	before := heapAllocs()
	res, err := pgo.Build(files, cfg)
	// The opt boundary sits inside pgo.Build, so the whole build's
	// allocation is charged to opt, the layer that dominates it.
	l.alloc["opt"] += heapAllocs() - before
	if err != nil {
		return nil, err
	}
	l.counts["opt.sample_inlines"] += float64(res.Stats.SampleInlines)
	l.counts["opt.static_inlines"] += float64(res.Stats.StaticInlines)
	l.counts["opt.inference_adjust"] += float64(res.Stats.InferenceAdjust)
	l.counts["codegen.text_bytes"] += float64(res.Bin.TextSize)
	if cfg.Probes {
		for _, f := range res.FreshIR.Funcs {
			l.counts["probe.probes"] += float64(f.NumProbes)
		}
	}
	return res, nil
}

// module names the module a layer span belongs to.
func module(layer string) string {
	if i := strings.IndexByte(layer, '.'); i > 0 {
		return layer[:i]
	}
	return layer
}

// stageLayer maps a stage path of the run report to its layer. pgo.Build's
// child spans are the compiler layers; its own remainder is pgo glue. Every
// other top-level span is a layer call the benchmark made.
func stageLayer(path string) string {
	top, rest, _ := strings.Cut(path, "/")
	if top != "build" {
		return top
	}
	switch child, _, _ := strings.Cut(rest, "/"); child {
	case "":
		return "pgo.build"
	case "irgen":
		return "irgen"
	case "probe_insert":
		return "probe"
	case "optimize":
		return "opt"
	case "codegen":
		return "codegen"
	default:
		return "pgo.build"
	}
}

// selfTimes folds the stage table into each layer's self time in ns: a
// stage's wall time minus the wall time of its direct child stages, summed
// by layer.
func selfTimes(stages []obs.Stage) map[string]int64 {
	childNS := map[string]int64{}
	for _, st := range stages {
		if i := strings.LastIndexByte(st.Name, '/'); i > 0 {
			childNS[st.Name[:i]] += st.WallNS
		}
	}
	out := map[string]int64{}
	for _, st := range stages {
		out[stageLayer(st.Name)] += st.WallNS - childNS[st.Name]
	}
	return out
}

// optPasses are the opt passes the ledger reports one by one.
var optPasses = []string{"inference", "sample-inline", "inline", "simplify-cfg", "dce", "licm", "unroll", "layout"}

// layerMetrics is the per-layer metric set of a traced run, every value per
// op. It also returns the layer self times the ledger ranks.
func (l *ledger) layerMetrics(stages []obs.Stage, gcPct, overheadPct float64) (map[string]float64, map[string]int64) {
	self := selfTimes(stages)
	stageNS := map[string]int64{}
	var covered int64
	for _, st := range stages {
		stageNS[st.Name] = st.WallNS
		if !strings.Contains(st.Name, "/") {
			covered += st.WallNS
		}
	}
	ops := float64(l.ops)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	per := func(name string) float64 { return l.counts[name] / ops }
	mb := func(mod string) float64 { return float64(l.alloc[mod]) / (1 << 20) / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m := map[string]float64{
		"irgen.ms":                  ms(self["irgen"]),
		"probe.ms":                  ms(self["probe"]),
		"probe.probes":              per("probe.probes"),
		"opt.ms":                    ms(self["opt"]),
		"opt.sample_inlines":        per("opt.sample_inlines"),
		"opt.static_inlines":        per("opt.static_inlines"),
		"opt.inference_adjust":      per("opt.inference_adjust"),
		"codegen.ms":                ms(self["codegen"]),
		"codegen.text_bytes":        per("codegen.text_bytes"),
		"sim.eval.ms":               ms(self["sim.eval"]),
		"sim.eval.instructions":     per("sim.eval.instructions"),
		"sim.eval.cycles":           per("sim.eval.cycles"),
		"sim.eval.ns_per_instr":     ratio(float64(self["sim.eval"]), l.counts["sim.eval.instructions"]),
		"sim.profile.ms":            ms(self["sim.profile"]),
		"sim.profile.instructions":  per("sim.profile.instructions"),
		"sim.profile.samples":       per("sim.profile.samples"),
		"sim.profile.ns_per_instr":  ratio(float64(self["sim.profile"]), l.counts["sim.profile.instructions"]),
		"sampling.ms":               ms(self["sampling"]),
		"sampling.samples":          per("sampling.samples"),
		"sampling.dropped":          per("sampling.dropped"),
		"sampling.accept_ratio":     ratio(l.counts["sampling.samples"], l.counts["sampling.samples"]+l.counts["sampling.dropped"]),
		"sampling.ranges":           per("sampling.ranges"),
		"sampling.truncated_ranges": per("sampling.truncated_ranges"),
		"collect.ms":                ms(self["collect"]),
		"collect.instructions":      per("collect.instructions"),
		"collect.samples":           per("collect.samples"),
		"profdata.trim.ms":          ms(self["profdata.trim"]),
		"profdata.contexts":         per("profdata.contexts"),
		"profdata.bytes":            per("profdata.bytes"),
		"profdata.encode.ms":        ms(l.encodeNS),
		"profdata.decode.ms":        ms(self["profdata.decode"]),
		"preinline.sizes.ms":        ms(self["preinline.sizes"]),
		"preinline.ms":              ms(self["preinline"]),
		"preinline.inlined":         per("preinline.inlined"),
		"preinline.promoted":        per("preinline.promoted"),
		"overhead.ms":               ms(self["overhead"]),
		"quality.diff.ms":           ms(self["quality.diff"]),
		"introspect.set_profile.ms": ms(self["introspect.set_profile"]),
		"opt.alloc_mb":              mb("opt"),
		"sim.alloc_mb":              mb("sim"),
		"sampling.alloc_mb":         mb("sampling"),
		"preinline.alloc_mb":        mb("preinline"),
		"gc.cpu_pct":                gcPct,
		"unattributed.pct":          100 * ratio(float64(l.opNS-covered), float64(l.opNS)),
		"trace_overhead_pct":        overheadPct,
	}
	for _, pass := range optPasses {
		m["opt."+pass+".ms"] = ms(stageNS["build/optimize/opt."+pass])
	}
	return m, self
}

// moduleShare is one module's self time in a traced run.
type moduleShare struct {
	module string
	ns     int64
}

// rankLayers folds layer self times into modules (sim.eval and sim.profile
// are both sim) and orders them by self time, largest first.
func rankLayers(self map[string]int64) []moduleShare {
	byMod := map[string]int64{}
	for layer, ns := range self {
		byMod[module(layer)] += ns
	}
	out := make([]moduleShare, 0, len(byMod))
	for mod, ns := range byMod {
		out = append(out, moduleShare{mod, ns})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ns != out[j].ns {
			return out[i].ns > out[j].ns
		}
		return out[i].module < out[j].module
	})
	return out
}

// largestPass names the opt pass with the most time.
func largestPass(stages []obs.Stage) string {
	best, bestNS := "", int64(-1)
	for _, st := range stages {
		if pass, ok := strings.CutPrefix(st.Name, "build/optimize/opt."); ok && !strings.Contains(pass, "/") && st.WallNS > bestNS {
			best, bestNS = pass, st.WallNS
		}
	}
	return best
}

// stages folds the run's trace into the run-report stage table, totals over
// every traced op.
func (l *ledger) stages() []obs.Stage {
	rep := obs.NewReport("perfbench")
	rep.AddTrace(l.tr)
	return rep.Stages
}

// report builds the ledger as a csspgo-run-report/v1 manifest: the stage
// table and the per-layer metrics, both per pass over the workload's op
// set, so two ledgers diff with `csspgo report -diff -threshold` whatever
// their run lengths.
func (l *ledger) report(workload string, seed uint64, passes int, stages []obs.Stage, layer map[string]float64) *obs.Report {
	rep := obs.NewReport("perfbench " + workload)
	rep.Config["workload"] = workload
	rep.Config["seed"] = seed
	rep.Config["ops_per_pass"] = l.ops / passes
	for _, st := range stages {
		st.WallNS /= int64(passes)
		st.Count /= passes
		rep.Stages = append(rep.Stages, st)
	}
	reg := obs.NewRegistry()
	opsPerPass := float64(l.ops / passes)
	for name, v := range layer {
		key := "perfbench." + strings.NewReplacer("-", "_").Replace(name)
		switch {
		case strings.HasSuffix(name, ".ms"):
			// Per-pass nanoseconds, so the diff treats it as a timing.
			key = strings.TrimSuffix(key, ".ms") + ".self_ns"
			v *= 1e6 * opsPerPass
		case strings.HasSuffix(name, "_pct") || strings.HasSuffix(name, ".pct") ||
			strings.HasSuffix(name, "ratio") || strings.HasSuffix(name, "ns_per_instr"):
		default:
			v *= opsPerPass
		}
		reg.Gauge(key).Set(v)
	}
	rep.AddMetrics(reg)
	return rep
}

// countUnwind adds the unwinder's work counts to the sampling layer.
func (l *ledger) countUnwind(us sampling.UnwindStats) {
	l.counts["sampling.samples"] += float64(us.Samples)
	l.counts["sampling.dropped"] += float64(us.Dropped)
	l.counts["sampling.ranges"] += float64(us.Ranges)
	l.counts["sampling.truncated_ranges"] += float64(us.TruncatedRanges)
}

// preinline runs the pre-inliner with the parameters pgo derives for it.
func (l *ledger) preinline(prof *profdata.Profile, sizes *preinline.SizeTable) {
	var res preinline.Result
	l.do("preinline", func() { res = preinline.Run(prof, sizes, preinline.DeriveParams(prof)) })
	l.counts["preinline.inlined"] += float64(res.Inlined)
	l.counts["preinline.promoted"] += float64(res.Promoted)
}

// evaluate is pgo.Evaluate under a sim.eval span.
func (l *ledger) evaluate(bin *machine.Prog, reqs [][]int64) (sim.Stats, error) {
	var st sim.Stats
	err := l.call("sim.eval", func() (err error) { st, err = pgo.Evaluate(bin, reqs); return err })
	l.counts["sim.eval.instructions"] += float64(st.Instructions)
	l.counts["sim.eval.cycles"] += float64(st.Cycles)
	return st, err
}
