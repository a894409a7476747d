package sim_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"csspgo/internal/machine"
	"csspgo/internal/pgo"
	"csspgo/internal/sim"
	"csspgo/internal/workloads"
)

// The golden simulator oracle: exact sim.Stats, return values, sample
// streams (FNV-1a over every sample's LBR and stack), counters, value
// profiles and overhead-meter tallies for the evaluation workloads under
// every machine configuration the pipeline uses. The simulator's
// execution loop may be rewritten for speed, but never so that one of
// these numbers moves.
//
// Each line also pins an FNV-1a hash of the binary it ran. When only that
// hash changes the compiler changed, not the simulator: regenerate with
//
//	go test ./internal/sim -run TestGoldenSimulator -update
//
// but only from a tree whose internal/sim is unchanged.

var update = flag.Bool("update", false, "rewrite testdata/sim_golden.txt from the current simulator")

const goldenPath = "testdata/sim_golden.txt"

// goldenWorkloads are the five server workloads, the client workload and
// the indirect-call dispatcher (the only one whose binaries execute icall).
var goldenWorkloads = []string{"adranker", "adretriever", "adfinder", "hhvm", "haas", "clangish", "dispatcher"}

// wordsHash is FNV-1a over the little-endian bytes of ws.
func wordsHash(ws []uint64) uint64 {
	f := fnv.New64a()
	var buf [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(buf[:], w)
		f.Write(buf[:])
	}
	return f.Sum64()
}

// samplesHash digests every sample's LBR (newest first) and stack (leaf
// first), each prefixed by its length.
func samplesHash(samples []sim.Sample) uint64 {
	var ws []uint64
	for _, s := range samples {
		ws = append(ws, uint64(len(s.LBR)))
		for _, b := range s.LBR {
			ws = append(ws, b.From, b.To)
		}
		ws = append(ws, uint64(len(s.Stack)))
		ws = append(ws, s.Stack...)
	}
	return wordsHash(ws)
}

func binHash(t *testing.T, bin *machine.Prog) uint64 {
	var buf bytes.Buffer
	if err := bin.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f := fnv.New64a()
	f.Write(buf.Bytes())
	return f.Sum64()
}

// vprofHash digests a value profile in (site, target) order.
func vprofHash(vp map[uint64]map[int32]uint64) uint64 {
	var ws []uint64
	for _, site := range sortedKeys(vp) {
		ws = append(ws, site)
		for _, tgt := range sortedKeys(vp[site]) {
			ws = append(ws, uint64(tgt), vp[site][tgt])
		}
	}
	return wordsHash(ws)
}

func sortedKeys[K int32 | uint64 | string, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// copySink is a streaming sample sink that copies every chunk's samples
// out in stream order and recycles the chunk.
type copySink struct {
	samples []sim.Sample
	chunks  int
}

func (s *copySink) ConsumeChunk(ch *sim.SampleChunk) {
	if ch.Index != s.chunks {
		panic(fmt.Sprintf("chunk %d delivered as #%d", ch.Index, s.chunks))
	}
	s.chunks++
	for _, smp := range ch.Samples {
		s.samples = append(s.samples, sim.Sample{
			LBR:   append([]sim.BranchRec(nil), smp.LBR...),
			Stack: append([]uint64(nil), smp.Stack...),
		})
	}
	sim.RecycleChunk(ch)
}

// record is one golden line's fields, in a fixed order.
type record struct {
	fields []string
}

func (r *record) add(key string, v uint64) {
	r.fields = append(r.fields, fmt.Sprintf("%s=%d", key, v))
}

func (r *record) addHex(key string, v uint64) {
	r.fields = append(r.fields, fmt.Sprintf("%s=%016x", key, v))
}

func (r *record) stats(st sim.Stats) {
	r.add("cycles", st.Cycles)
	r.add("instructions", st.Instructions)
	r.add("cond", st.CondBranches)
	r.add("taken", st.TakenBranches)
	r.add("mispredicts", st.Mispredicts)
	r.add("icmiss", st.ICacheMisses)
	r.add("calls", st.Calls)
	r.add("icalls", st.IndirectCalls)
	r.add("returns", st.Returns)
	r.add("samples", st.Samples)
}

// goldenRun executes reqs on a fresh machine and renders the observable
// outcome. prep configures the machine before the first run; post adds
// configuration-specific fields after the last.
func goldenRun(t *testing.T, bin *machine.Prog, cost sim.CostParams, pmu sim.PMUConfig, reqs [][]int64,
	prep func(*sim.Machine), post func(*sim.Machine, *record)) string {
	t.Helper()
	m := sim.New(bin, cost, pmu)
	if prep != nil {
		prep(m)
	}
	var rets []uint64
	for i, req := range reqs {
		v, err := m.Run(req...)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		rets = append(rets, uint64(v))
	}
	var r record
	r.addHex("bin", binHash(t, bin))
	r.addHex("rets", wordsHash(rets))
	r.stats(m.Stats())
	if post != nil {
		post(m, &r)
	}
	return strings.Join(r.fields, " ")
}

func batchSamples(m *sim.Machine, r *record) {
	r.add("nsamples", uint64(len(m.Samples())))
	r.addHex("samplehash", samplesHash(m.Samples()))
}

func meterFields(meter *sim.OverheadMeter) func(*sim.Machine, *record) {
	return func(m *sim.Machine, r *record) {
		batchSamples(m, r)
		r.add("m.samples", meter.Samples)
		r.add("m.frames", meter.FramesWalked)
		r.add("m.probecycles", meter.ProbeCycles)
		r.add("m.samplecycles", meter.SampleCycles)
		r.add("m.vprofcycles", meter.VProfCycles)
		var probes, funcs, sites []uint64
		for _, id := range sortedKeys(meter.ProbeHits) {
			probes = append(probes, uint64(id), meter.ProbeHits[id])
		}
		for _, name := range sortedKeys(meter.FuncSamples) {
			f := fnv.New64a()
			f.Write([]byte(name))
			funcs = append(funcs, f.Sum64(), meter.FuncSamples[name])
		}
		for _, site := range sortedKeys(meter.VProfHits) {
			sites = append(sites, site, meter.VProfHits[site])
		}
		r.addHex("m.probehits", wordsHash(probes))
		r.addHex("m.funcsamples", wordsHash(funcs))
		r.addHex("m.vprofhits", wordsHash(sites))
	}
}

// goldenLines runs every workload under every configuration.
func goldenLines(t *testing.T) []string {
	var lines []string
	for _, name := range goldenWorkloads {
		w, err := workloads.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		build := func(cfg pgo.BuildConfig) *machine.Prog {
			res, err := pgo.Build(w.Files, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res.Bin
		}
		base := build(pgo.BuildConfig{})
		probed := build(pgo.BuildConfig{Probes: true})
		instr := build(pgo.BuildConfig{Probes: true, Instrument: true})

		cs := sim.DefaultPMUConfig(797) // the CS profile's PEBS + stacks
		lbr := cs
		lbr.SampleStacks = false         // AutoFDO: LBR only
		skid := sim.DefaultPMUConfig(97) // dense, to hit many call/ret boundaries
		skid.PEBS = false                // one-frame skid between LBR and stack

		add := func(config, line string) { lines = append(lines, name+" "+config+" "+line) }
		add("eval", goldenRun(t, base, sim.DefaultCostParams(), sim.PMUConfig{}, w.Eval, nil, nil))

		sink := &copySink{}
		add("cs", goldenRun(t, probed, sim.DefaultCostParams(), cs, w.Train,
			func(m *sim.Machine) { m.SetSampleSink(sink, 64) },
			func(m *sim.Machine, r *record) {
				m.FlushSamples()
				r.add("nsamples", uint64(len(sink.samples)))
				r.addHex("samplehash", samplesHash(sink.samples))
			}))
		add("lbr", goldenRun(t, base, sim.DefaultCostParams(), lbr, w.Train, nil, batchSamples))
		add("skid", goldenRun(t, probed, sim.DefaultCostParams(), skid, w.Train, nil, batchSamples))
		add("instr", goldenRun(t, instr, sim.DefaultCostParams(), sim.PMUConfig{}, w.Train, nil,
			func(m *sim.Machine, r *record) {
				r.addHex("counters", wordsHash(m.Counters()))
				r.addHex("vprof", vprofHash(m.ValueProfile()))
			}))
		meter := sim.NewOverheadMeter()
		add("meter", goldenRun(t, instr, sim.ProfilingCostParams(), cs, w.Train,
			func(m *sim.Machine) { m.SetOverheadMeter(meter) }, meterFields(meter)))
	}
	return lines
}

func TestGoldenSimulator(t *testing.T) {
	got := goldenLines(t)
	if *update {
		body := "# Generated by TestGoldenSimulator -update; see golden_test.go.\n" + strings.Join(got, "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want []string
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		gf, wf := strings.Fields(got[i]), strings.Fields(want[i])
		if len(gf) > 2 && len(wf) > 2 && gf[2] != wf[2] {
			t.Errorf("%s %s: compiler output changed (%s, want %s); regenerate the golden only if internal/sim is unchanged",
				gf[0], gf[1], gf[2], wf[2])
			continue
		}
		t.Errorf("simulator diverged:\n got  %s\n want %s", got[i], want[i])
	}
}
