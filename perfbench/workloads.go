package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"csspgo/internal/introspect"
	"csspgo/internal/machine"
	"csspgo/internal/obs"
	"csspgo/internal/overhead"
	"csspgo/internal/pgo"
	"csspgo/internal/preinline"
	"csspgo/internal/profdata"
	"csspgo/internal/quality"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/workloads"
)

// workload is one named op set, set up from a seed. An op is named by its
// index in a pass over the set; every pass runs the same ops in order.
type workload interface {
	// ops is the number of ops in one pass.
	ops() int
	// program is the program op i runs on.
	program(i int) *program
	// op runs op i through the program's public entry points.
	op(i int) (outcome, error)
	// prepareTraced builds what the traced path needs beyond set-up.
	prepareTraced() error
	// traced runs op i again from calls into each layer, under the ledger.
	traced(i int, l *ledger) (outcome, error)
	// check verifies what op i produced beyond the oracle comparison of its
	// binary; r holds the op's encoded profile.
	check(i int, o outcome, r result) error
	// speedups computes the speedup.* metrics from the first pass's results
	// (index = op).
	speedups(first []result) (map[string]float64, error)
}

// outcome is what an op hands back.
type outcome struct {
	bin    *machine.Prog     // the binary the op built, if any
	prof   *profdata.Profile // the profile the op produced or consumed
	cycles uint64            // eval cycles, when the op evaluated its binary
	served []byte            // refresh: the profile bytes the server publishes
}

// result is the checked digest of an op: what the decomposition check
// compares between the traced and the untraced path.
type result struct {
	profile []byte // profdata.EncodeBinary of the op's profile
	text    uint64 // text size of the op's binary
	cycles  uint64 // eval cycles of the op's binary, re-run by the oracle check
}

func (r result) equal(o result) bool {
	return bytes.Equal(r.profile, o.profile) && r.text == o.text && r.cycles == o.cycles
}

// setups maps workload names to their set-up functions.
var setups = map[string]func(seed uint64) (workload, error){
	"fig6":    newFig6,
	"refresh": newRefresh,
	"rebuild": newRebuild,
}

// workloadNames lists the workloads in the order the documentation gives.
var workloadNames = []string{"fig6", "refresh", "rebuild"}

func loadPrograms(names []string, seed uint64) ([]*program, error) {
	out := make([]*program, len(names))
	for i, name := range names {
		p, err := loadProgram(name, seed)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// cell is one (program, variant) pair.
type cell struct {
	prog    *program
	variant pgo.Variant
}

// trimThreshold mirrors the cold-context trim threshold pgo's FullCS
// pipeline and refresher use; the decomposition check fails if it drifts.
func trimThreshold(prof *profdata.Profile) uint64 {
	t := prof.TotalSamples() / 2000
	if t < 2 {
		t = 2
	}
	return t
}

// geomeanSpeedups returns the geometric mean over programs of the AutoFDO
// eval cycles divided by the ProbeOnly and FullCS eval cycles.
func geomeanSpeedups(cycles map[string]map[pgo.Variant]uint64) (map[string]float64, error) {
	var logPO, logCS float64
	for name, byVariant := range cycles {
		a, po, cs := byVariant[pgo.AutoFDO], byVariant[pgo.ProbeOnly], byVariant[pgo.FullCS]
		if a == 0 || po == 0 || cs == 0 {
			return nil, fmt.Errorf("%s: missing eval cycles for a speedup", name)
		}
		logPO += math.Log(float64(a) / float64(po))
		logCS += math.Log(float64(a) / float64(cs))
	}
	n := float64(len(cycles))
	return map[string]float64{
		"speedup.csspgo_vs_autofdo":    math.Exp(logCS / n),
		"speedup.probeonly_vs_autofdo": math.Exp(logPO / n),
	}, nil
}

// fig6 runs the cells of the paper's Fig. 6 the way pgo.Compare does.
type fig6 struct {
	cells []cell
}

func newFig6(seed uint64) (workload, error) {
	progs, err := loadPrograms(workloads.ServerNames(), seed)
	if err != nil {
		return nil, err
	}
	f := &fig6{}
	for _, p := range progs {
		f.cells = append(f.cells, cell{p, pgo.AutoFDO}, cell{p, pgo.ProbeOnly}, cell{p, pgo.FullCS})
		if p.name == "hhvm" {
			f.cells = append(f.cells, cell{p, pgo.InstrPGO})
		}
	}
	return f, nil
}

func (f *fig6) ops() int               { return len(f.cells) }
func (f *fig6) program(i int) *program { return f.cells[i].prog }

func (f *fig6) op(i int) (outcome, error) {
	c := f.cells[i]
	res, prof, err := pgo.Pipeline(c.prog.files, c.variant, c.prog.train)
	if err != nil {
		return outcome{}, err
	}
	st, err := pgo.Evaluate(res.Bin, c.prog.eval)
	if err != nil {
		return outcome{}, err
	}
	return outcome{bin: res.Bin, prof: prof, cycles: st.Cycles}, nil
}

// traced is pgo.Pipeline followed by pgo.Evaluate, one layer call at a time.
func (f *fig6) traced(i int, l *ledger) (outcome, error) {
	c := f.cells[i]
	files, train := c.prog.files, c.prog.train
	var base *pgo.BuildResult
	var prof *profdata.Profile
	var err error
	switch c.variant {
	case pgo.AutoFDO, pgo.ProbeOnly:
		probes := c.variant == pgo.ProbeOnly
		if base, err = l.build(files, pgo.BuildConfig{Probes: probes}); err != nil {
			return outcome{}, err
		}
		pc := pgo.DefaultProfileConfig()
		pc.Stacks = false
		var samples []sim.Sample
		var st sim.Stats
		err := l.call("sim.profile", func() (err error) {
			samples, st, err = pgo.CollectSamples(base.Bin, train, pc)
			return err
		})
		if err != nil {
			return outcome{}, err
		}
		l.counts["sim.profile.instructions"] += float64(st.Instructions)
		l.counts["sim.profile.samples"] += float64(st.Samples)
		// pgo's flat generation options for a default profile config.
		opts := sampling.FlatOptions{Stream: true}
		l.do("sampling", func() {
			if probes {
				prof = sampling.GenerateProbeProfileOpts(base.Bin, samples, opts)
			} else {
				prof = sampling.GenerateAutoFDOOpts(base.Bin, samples, opts)
			}
		})
		l.counts["sampling.samples"] += float64(len(samples))

	case pgo.FullCS:
		if base, err = l.build(files, pgo.BuildConfig{Probes: true}); err != nil {
			return outcome{}, err
		}
		var us sampling.UnwindStats
		var st sim.Stats
		err = l.call("collect", func() (err error) {
			prof, us, st, err = pgo.CollectAndGenerateCS(base.Bin, train, pgo.DefaultProfileConfig())
			return err
		})
		if err != nil {
			return outcome{}, err
		}
		l.counts["collect.instructions"] += float64(st.Instructions)
		l.counts["collect.samples"] += float64(st.Samples)
		l.countUnwind(us)
		l.do("profdata.trim", func() { prof.TrimColdContexts(trimThreshold(prof)) })
		var sizes *preinline.SizeTable
		l.do("preinline.sizes", func() { sizes = preinline.ExtractSizes(base.Bin) })
		l.preinline(prof, sizes)

	case pgo.InstrPGO:
		if base, err = l.build(files, pgo.BuildConfig{Probes: true, Instrument: true}); err != nil {
			return outcome{}, err
		}
		var counters []uint64
		var vprof map[uint64]map[int32]uint64
		var st sim.Stats
		err = l.call("sim.eval", func() (err error) {
			counters, vprof, st, err = pgo.CollectCountersAndValues(base.Bin, train)
			return err
		})
		if err != nil {
			return outcome{}, err
		}
		l.counts["sim.eval.instructions"] += float64(st.Instructions)
		l.counts["sim.eval.cycles"] += float64(st.Cycles)
		l.do("sampling", func() { prof = sampling.GenerateInstrProfileWithValues(base.Bin, counters, vprof) })

	default:
		return outcome{}, fmt.Errorf("fig6: no decomposition for variant %q", c.variant)
	}
	res, err := l.build(files, finalConfig(c.variant, prof))
	if err != nil {
		return outcome{}, err
	}
	st, err := l.evaluate(res.Bin, c.prog.eval)
	if err != nil {
		return outcome{}, err
	}
	return outcome{bin: res.Bin, prof: prof, cycles: st.Cycles}, nil
}

func (f *fig6) prepareTraced() error             { return nil }
func (f *fig6) check(int, outcome, result) error { return nil }

func (f *fig6) speedups(first []result) (map[string]float64, error) {
	cycles := map[string]map[pgo.Variant]uint64{}
	for i, c := range f.cells {
		if cycles[c.prog.name] == nil {
			cycles[c.prog.name] = map[pgo.Variant]uint64{}
		}
		cycles[c.prog.name][c.variant] = first[i].cycles
	}
	return geomeanSpeedups(cycles)
}

// refresh runs `csspgo serve` refreshes round-robin over the server
// programs: the pgo.NewRefresher closure, then introspect.Server.SetProfile.
type refresh struct {
	progs     []*program
	refresh   []func() (*profdata.Profile, *obs.Report, error)
	servers   []*introspect.Server
	firstSeen [][]byte // the first profile bytes each program's server published

	// The traced decomposition's own daemon state.
	bins    []*machine.Prog
	sizes   []*preinline.SizeTable
	regs    []*obs.Registry
	tserver []*introspect.Server
	prev    []*profdata.Profile
}

func newRefresh(seed uint64) (workload, error) {
	progs, err := loadPrograms(workloads.ServerNames(), seed)
	if err != nil {
		return nil, err
	}
	r := &refresh{progs: progs, firstSeen: make([][]byte, len(progs))}
	for _, p := range progs {
		reg := obs.NewRegistry()
		fn, err := pgo.NewRefresher(p.files, p.train, pgo.DefaultProfileConfig(), reg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		r.refresh = append(r.refresh, fn)
		r.servers = append(r.servers, introspect.NewServer(p.name, reg))
	}
	return r, nil
}

func (r *refresh) ops() int               { return len(r.progs) }
func (r *refresh) program(i int) *program { return r.progs[i] }

func (r *refresh) op(i int) (outcome, error) {
	prof, rep, err := r.refresh[i]()
	if err != nil {
		return outcome{}, err
	}
	if err := r.servers[i].SetProfile(prof, rep); err != nil {
		return outcome{}, err
	}
	return outcome{prof: prof, served: r.servers[i].Current().Profile}, nil
}

// traced is the refresher closure followed by SetProfile, one layer call at
// a time, on a daemon state of its own.
func (r *refresh) traced(i int, l *ledger) (outcome, error) {
	bin, reg := r.bins[i], r.regs[i]
	obsrv := pgo.NewRunObserver()
	rpc := pgo.DefaultProfileConfig()
	obsrv.ObserveProfile(&rpc)
	start := time.Now()

	var samples []sim.Sample
	var stats sim.Stats
	var meter *sim.OverheadMeter
	err := l.call("sim.profile", func() (err error) {
		samples, stats, meter, err = pgo.CollectSamplesMetered(bin, r.progs[i].train, rpc)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	l.counts["sim.profile.instructions"] += float64(stats.Instructions)
	l.counts["sim.profile.samples"] += float64(stats.Samples)

	// pgo's CS generation options for a default profile config.
	opts := sampling.DefaultCSSPGOOptions()
	opts.Trace = rpc.Trace.Root()
	opts.Metrics = rpc.Metrics
	var prof *profdata.Profile
	var us sampling.UnwindStats
	l.do("sampling", func() { prof, us = sampling.GenerateCSSPGO(bin, samples, opts) })
	l.countUnwind(us)
	l.do("profdata.trim", func() { prof.TrimColdContexts(trimThreshold(prof)) })
	l.preinline(prof, r.sizes[i])

	l.do("overhead", func() {
		rep := overhead.Attribute(bin, stats, meter, rpc.Period)
		rep.Confidence = overhead.Score(bin, prof, rpc.Period, 0, 0)
		rep.CollectWallNS = time.Since(start).Nanoseconds()
		rep.Publish(reg)
		rep.Publish(obsrv.Metrics)
	})
	l.do("quality.diff", func() {
		if prev := r.prev[i]; prev != nil {
			quality.DiffProfilesObserved(prev, prof, reg)
			quality.DiffProfilesObserved(prev, prof, obsrv.Metrics)
		}
	})
	r.prev[i] = prof
	var rep *obs.Report
	l.do("obs.report", func() {
		rep = obsrv.Report("csspgo serve", map[string]any{
			"requests": len(r.progs[i].train), "period": rpc.Period, "pebs": rpc.PEBS,
		})
	})
	srv := r.tserver[i]
	if err := l.call("introspect.set_profile", func() error { return srv.SetProfile(prof, rep) }); err != nil {
		return outcome{}, err
	}
	return outcome{prof: prof, served: srv.Current().Profile}, nil
}

// prepareTraced builds the traced path's training binaries and size tables
// the way pgo.NewRefresher does, with a registry and server per program.
func (r *refresh) prepareTraced() error {
	for _, p := range r.progs {
		base, err := pgo.Build(p.files, pgo.BuildConfig{Probes: true})
		if err != nil {
			return fmt.Errorf("%s: build training binary: %w", p.name, err)
		}
		reg := obs.NewRegistry()
		r.bins = append(r.bins, base.Bin)
		r.sizes = append(r.sizes, preinline.ExtractSizes(base.Bin))
		r.regs = append(r.regs, reg)
		r.tserver = append(r.tserver, introspect.NewServer(p.name, reg))
	}
	r.prev = make([]*profdata.Profile, len(r.progs))
	return nil
}

// check pins every refresh of a program to the bytes its server published
// first, and checks that those bytes decode back to the op's profile.
func (r *refresh) check(i int, o outcome, _ result) error {
	if r.firstSeen[i] == nil {
		r.firstSeen[i] = o.served
	} else if !bytes.Equal(o.served, r.firstSeen[i]) {
		return fmt.Errorf("%s: served profile differs from the first refresh's", r.progs[i].name)
	}
	back, err := profdata.DecodeAny(o.served)
	if err != nil {
		return fmt.Errorf("%s: decode served profile: %w", r.progs[i].name, err)
	}
	if !bytes.Equal(canonicalBytes(back), canonicalBytes(o.prof)) {
		return fmt.Errorf("%s: served profile does not decode to the refreshed profile", r.progs[i].name)
	}
	return nil
}

// canonicalBytes encodes a profile with every depth-1 context folded into
// its function's base profile. The profile model treats the two as the same
// samples (a depth-1 context has no caller frame, and opt.PrepareCSProfile
// always folds it into the base profile), and the text format the server
// publishes writes both as "[f]", which decodes as a base profile. Compared
// in this form, a profile and its text round trip must be byte-identical.
func canonicalBytes(p *profdata.Profile) []byte {
	c := p.Clone()
	for _, key := range c.SortedContextKeys() {
		if c.Contexts[key].Context.Depth() == 1 {
			c.MergeContextIntoBase(key)
		}
	}
	return profdata.EncodeBinary(c)
}

// speedups builds, for each program, the FullCS binary from the served
// profile and the AutoFDO and ProbeOnly binaries through pgo.Pipeline, and
// checks each against the oracle: the served profile is only worth serving
// if it compiles to a correct, faster binary.
func (r *refresh) speedups([]result) (map[string]float64, error) {
	cycles := map[string]map[pgo.Variant]uint64{}
	for i, p := range r.progs {
		served, err := profdata.DecodeAny(r.firstSeen[i])
		if err != nil {
			return nil, fmt.Errorf("%s: decode served profile: %w", p.name, err)
		}
		bins := map[pgo.Variant]*machine.Prog{}
		res, err := pgo.Build(p.files, finalConfig(pgo.FullCS, served))
		if err != nil {
			return nil, fmt.Errorf("%s: build from served profile: %w", p.name, err)
		}
		bins[pgo.FullCS] = res.Bin
		for _, v := range []pgo.Variant{pgo.AutoFDO, pgo.ProbeOnly} {
			res, _, err := pgo.Pipeline(p.files, v, p.train)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.name, v, err)
			}
			bins[v] = res.Bin
		}
		cycles[p.name] = map[pgo.Variant]uint64{}
		for v, bin := range bins {
			if cycles[p.name][v], err = p.checkBinary(bin); err != nil {
				return nil, fmt.Errorf("%s: %w", v, err)
			}
		}
	}
	return geomeanSpeedups(cycles)
}

// rebuild runs profile-guided builds from profiles encoded in set-up: decode,
// then pgo.Build with the variant's final-build config.
type rebuild struct {
	cells   []cell
	encoded [][]byte // per cell, the profile pgo's pipeline collects for it
}

// rebuildPrograms are the five server programs plus clangish, whose many
// small functions give the optimizer a different shape.
var rebuildPrograms = append(workloads.ServerNames(), "clangish")

func newRebuild(seed uint64) (workload, error) {
	progs, err := loadPrograms(rebuildPrograms, seed)
	if err != nil {
		return nil, err
	}
	r := &rebuild{}
	for _, p := range progs {
		plain, err := pgo.Build(p.files, pgo.BuildConfig{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		probed, err := pgo.Build(p.files, pgo.BuildConfig{Probes: true})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		for _, v := range []pgo.Variant{pgo.AutoFDO, pgo.ProbeOnly, pgo.FullCS} {
			base := probed
			if v == pgo.AutoFDO {
				base = plain
			}
			prof, err := pgo.CollectProfileFor(base, v, p.train)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.name, v, err)
			}
			r.cells = append(r.cells, cell{p, v})
			r.encoded = append(r.encoded, profdata.EncodeBinary(prof))
		}
	}
	return r, nil
}

// finalConfig is the build config pgo.Pipeline's final, profile-guided build
// uses for a profiling variant.
func finalConfig(v pgo.Variant, prof *profdata.Profile) pgo.BuildConfig {
	cfg := pgo.BuildConfig{Probes: v != pgo.AutoFDO, Profile: prof}
	cfg.UsePreInlineDecisions = v == pgo.FullCS
	return cfg
}

func (r *rebuild) ops() int               { return len(r.cells) }
func (r *rebuild) program(i int) *program { return r.cells[i].prog }

func (r *rebuild) op(i int) (outcome, error) {
	prof, err := profdata.DecodeAny(r.encoded[i])
	if err != nil {
		return outcome{}, err
	}
	c := r.cells[i]
	res, err := pgo.Build(c.prog.files, finalConfig(c.variant, prof))
	if err != nil {
		return outcome{}, err
	}
	return outcome{bin: res.Bin, prof: prof}, nil
}

func (r *rebuild) prepareTraced() error { return nil }

func (r *rebuild) traced(i int, l *ledger) (outcome, error) {
	var prof *profdata.Profile
	err := l.call("profdata.decode", func() (err error) { prof, err = profdata.DecodeAny(r.encoded[i]); return err })
	if err != nil {
		return outcome{}, err
	}
	c := r.cells[i]
	res, err := l.build(c.prog.files, finalConfig(c.variant, prof))
	if err != nil {
		return outcome{}, err
	}
	return outcome{bin: res.Bin, prof: prof}, nil
}

// check verifies the decoded profile re-encodes to the bytes set-up made.
func (r *rebuild) check(i int, _ outcome, res result) error {
	if !bytes.Equal(res.profile, r.encoded[i]) {
		return fmt.Errorf("%s/%s: decoded profile does not re-encode to its bytes", r.cells[i].prog.name, r.cells[i].variant)
	}
	return nil
}

// speedups uses the rebuilt binaries of the five server programs.
func (r *rebuild) speedups(first []result) (map[string]float64, error) {
	cycles := map[string]map[pgo.Variant]uint64{}
	for i, c := range r.cells {
		if c.prog.name == "clangish" {
			continue
		}
		if cycles[c.prog.name] == nil {
			cycles[c.prog.name] = map[pgo.Variant]uint64{}
		}
		cycles[c.prog.name][c.variant] = first[i].cycles
	}
	return geomeanSpeedups(cycles)
}
