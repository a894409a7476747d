// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (fig6, refresh or rebuild; see README.md) in a closed loop, one op
// at a time, checks every op's output against an oracle, and prints the
// result as one JSON line.
//
//	perfbench --workload fig6 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// every op twice, through the public entry points and as a sequence of
// traced layer calls, checks that both give the same results, reports the
// per-layer metrics and writes the layer ledger as a csspgo-run-report/v1
// manifest (--ledger).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"csspgo/internal/obs"
	"csspgo/internal/profdata"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the JSON line the benchmark prints last.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: fig6, refresh or rebuild")
	seed := flag.Uint64("seed", 1, "seed the request streams are drawn from")
	seconds := flag.Float64("seconds", 10, "op time to measure, in seconds (whole passes over the op set run until it is reached)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	ledgerPath := flag.String("ledger", "", "file the traced run writes its ledger to (default .bench_build/ledger-<workload>.json)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	flag.Parse()

	var profile *os.File
	if *cpuProfile != "" {
		var err error
		if profile, err = os.Create(*cpuProfile); err == nil {
			err = pprof.StartCPUProfile(profile)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}

	out, err := run(*name, *seed, *seconds, *trace, *ledgerPath, os.Stderr)
	if profile != nil {
		pprof.StopCPUProfile()
		if cerr := profile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed uint64, seconds float64, trace int, ledgerPath string, log io.Writer) (*output, error) {
	newWorkload, ok := setups[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	switch trace {
	case 0:
		return measure(name, newWorkload, seed, seconds, log)
	case 1:
		if ledgerPath == "" {
			ledgerPath = filepath.Join(".bench_build", "ledger-"+name+".json")
		}
		return measureTraced(name, newWorkload, seed, seconds, ledgerPath, log)
	}
	return nil, fmt.Errorf("--trace must be 0 or 1")
}

// Set-up repeats at least minSetups times, and up to maxSetups while the
// repeats have taken less than setupBudgetSec, for a steady median.
const (
	minSetups      = 3
	maxSetups      = 15
	setupBudgetSec = 2.0
)

// setUp runs the workload's set-up several times, keeps the last instance
// and returns the median set-up time. The oracle is built afterwards, outside
// the timing: it is the benchmark's, not the workload's.
func setUp(newWorkload func(uint64) (workload, error), seed uint64) (workload, float64, error) {
	var times []float64
	var w workload
	var total float64
	for len(times) < minSetups || (total < setupBudgetSec && len(times) < maxSetups) {
		t0 := time.Now()
		var err error
		if w, err = newWorkload(seed); err != nil {
			return nil, 0, err
		}
		d := time.Since(t0).Seconds()
		times = append(times, d)
		total += d
	}
	built := map[*program]bool{}
	for i := 0; i < w.ops(); i++ {
		if p := w.program(i); !built[p] {
			if err := p.buildOracle(); err != nil {
				return nil, 0, err
			}
			built[p] = true
		}
	}
	return w, quantile(times, 0.5), nil
}

// verify checks one op's outputs, outside the op's timed region: its binary
// against the oracle, its eval cycles against the oracle's re-run, and the
// workload's own checks. With a ledger it also times the profile encoding
// and counts the profile's size.
func verify(w workload, i int, o outcome, l *ledger) (result, error) {
	var r result
	if o.prof != nil {
		if l != nil {
			t0 := time.Now()
			r.profile = profdata.EncodeBinary(o.prof)
			l.encodeNS += time.Since(t0).Nanoseconds()
			l.counts["profdata.bytes"] += float64(len(r.profile))
			l.counts["profdata.contexts"] += float64(len(o.prof.Contexts))
		} else {
			r.profile = profdata.EncodeBinary(o.prof)
		}
	}
	if o.bin != nil {
		cycles, err := w.program(i).checkBinary(o.bin)
		if err != nil {
			return r, err
		}
		if o.cycles != 0 && o.cycles != cycles {
			return r, fmt.Errorf("%s: pgo.Evaluate reported %d cycles, the re-run %d", w.program(i).name, o.cycles, cycles)
		}
		r.text, r.cycles = o.bin.TextSize, cycles
	}
	return r, w.check(i, o, r)
}

// heapAllocs is the process's cumulative heap allocation in bytes (the
// runtime/metrics counterpart of MemStats.TotalAlloc, read without stopping
// the world).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// processCPUNS is the CPU time the process has used, user and system, in
// ns. Unlike wall time it leaves out time the hypervisor steals from the VM.
func processCPUNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // only EFAULT/EINVAL, both bugs
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// measure is the untraced run: whole passes over the op set through the
// public entry points until the summed op time reaches the requested
// seconds.
func measure(name string, newWorkload func(uint64) (workload, error), seed uint64, seconds float64, log io.Writer) (*output, error) {
	w, setupS, err := setUp(newWorkload, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var lat []float64
	var opNS, cpuNS int64
	var alloc uint64
	attempted, failed := 0, 0
	first := make([]result, w.ops())
	var passRSS []float64
	steal0, total0 := cpuSteal()
	for pass := 0; pass == 0 || float64(opNS) < seconds*1e9; pass++ {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		for i := 0; i < w.ops(); i++ {
			a0, c0 := heapAllocs(), processCPUNS()
			t0 := time.Now()
			o, err := w.op(i)
			d := time.Since(t0)
			alloc += heapAllocs() - a0
			cpuNS += processCPUNS() - c0
			attempted++
			opNS += d.Nanoseconds()
			var r result
			if err == nil {
				r, err = verify(w, i, o, nil)
			}
			if err != nil {
				failed++
				fmt.Fprintf(log, "op %d failed: %v\n", i, err)
				continue
			}
			lat = append(lat, float64(d.Nanoseconds())/1e6)
			if pass == 0 {
				first[i] = r
			}
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		passRSS = append(passRSS, rss)
	}
	steal1, total1 := cpuSteal()
	if failed > 0 {
		return &output{Correct: false, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}, nil
	}
	speedups, err := w.speedups(first)
	if err != nil {
		return nil, fmt.Errorf("speedups: %w", err)
	}
	m := map[string]metric{
		"setup_s":                      {setupS, "s"},
		"ops_per_s":                    {float64(len(lat)) / (float64(opNS) / 1e9), "1/s"},
		"latency_ms.p50":               {quantile(lat, 0.5), "ms"},
		"latency_ms.p90":               {quantile(lat, 0.9), "ms"},
		"cpu_ms_per_op":                {float64(cpuNS) / 1e6 / float64(attempted), "ms"},
		"alloc_mb_per_op":              {float64(alloc) / (1 << 20) / float64(attempted), "MB"},
		"peak_rss_mb":                  {quantile(passRSS, 0.5), "MB"},
		"speedup.csspgo_vs_autofdo":    {speedups["speedup.csspgo_vs_autofdo"], "x"},
		"speedup.probeonly_vs_autofdo": {speedups["speedup.probeonly_vs_autofdo"], "x"},
	}
	fmt.Fprintf(log, "%s seed=%d: %d ops (%d per pass), error_rate=%g, hypervisor steal %.1f%% of the VM's CPU time\n",
		name, seed, attempted, w.ops(), float64(failed)/float64(attempted), 100*float64(steal1-steal0)/float64(max(total1-total0, 1)))
	printMetrics(log, m)
	return &output{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// measureTraced is the traced run. Each op runs through the public entry
// point and then as traced layer calls; both must give the same result (the
// decomposition check), and their summed times give the tracing overhead.
func measureTraced(name string, newWorkload func(uint64) (workload, error), seed uint64, seconds float64, ledgerPath string, log io.Writer) (*output, error) {
	w, _, err := setUp(newWorkload, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := w.prepareTraced(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	l := newLedger()
	gc0, cpu0 := gcCPU()
	var plainNS int64
	attempted, failed, passes := 0, 0, 0
	for ; passes == 0 || float64(plainNS+l.opNS) < seconds*1e9; passes++ {
		for i := 0; i < w.ops(); i++ {
			attempted++
			t0 := time.Now()
			o, err := w.op(i)
			plainNS += time.Since(t0).Nanoseconds()
			var want result
			if err == nil {
				want, err = verify(w, i, o, nil)
			}
			if err != nil {
				failed++
				fmt.Fprintf(log, "op %d failed: %v\n", i, err)
				continue
			}

			l.tr.SetTraceID(opTraceID(name, seed, passes, i))
			t0 = time.Now()
			o, err = w.traced(i, l)
			l.opNS += time.Since(t0).Nanoseconds()
			l.ops++
			var got result
			if err == nil {
				got, err = verify(w, i, o, l)
			}
			if err == nil && !got.equal(want) {
				err = fmt.Errorf("decomposition check: traced layer calls differ from the entry point (profile %d vs %d bytes, equal=%t; text %d vs %d; cycles %d vs %d)",
					len(got.profile), len(want.profile), string(got.profile) == string(want.profile), got.text, want.text, got.cycles, want.cycles)
			}
			if err != nil {
				failed++
				fmt.Fprintf(log, "traced op %d failed: %v\n", i, err)
			}
		}
	}
	if failed > 0 {
		return &output{Correct: false, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}, nil
	}
	gc1, cpu1 := gcCPU()
	overheadPct := 100 * float64(l.opNS-plainNS) / float64(plainNS)
	stages := l.stages()
	layer, self := l.layerMetrics(stages, 100*(gc1-gc0)/(cpu1-cpu0), overheadPct)
	rep := l.report(name, seed, passes, stages, layer)
	ranked := rankLayers(self)
	rep.Config["largest_layer"] = ranked[0].module
	rep.Config["largest_opt_pass"] = largestPass(rep.Stages)
	if err := os.MkdirAll(filepath.Dir(ledgerPath), 0o755); err != nil {
		return nil, err
	}
	if err := rep.WriteFile(ledgerPath); err != nil {
		return nil, fmt.Errorf("write ledger: %w", err)
	}

	m := map[string]metric{}
	for k, v := range layer {
		m[k] = metric{v, unitOf(k)}
	}
	shares := make([]string, len(ranked))
	for i, r := range ranked {
		shares[i] = fmt.Sprintf("%s %.1f%%", r.module, 100*float64(r.ns)/float64(l.opNS))
	}
	fmt.Fprintf(log, "%s seed=%d traced: %d ops in %d passes; modules by self time (share of op time): %s; largest opt pass: %s; ledger: %s\n",
		name, seed, l.ops, passes, strings.Join(shares, " > "), rep.Config["largest_opt_pass"], ledgerPath)
	printMetrics(log, m)
	return &output{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// opTraceID gives every span of one traced op a shared trace ID.
func opTraceID(name string, seed uint64, pass, op int) string {
	return obs.DeriveTraceID("perfbench", name, strconv.FormatUint(seed, 10), strconv.Itoa(pass), strconv.Itoa(op))
}

// unitOf names the unit of a per-layer metric from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, ".ms"):
		return "ms"
	case strings.HasSuffix(name, "alloc_mb"):
		return "MB"
	case strings.HasSuffix(name, "pct"):
		return "%"
	case strings.HasSuffix(name, "ns_per_instr"):
		return "ns"
	case strings.HasSuffix(name, "ratio"):
		return "ratio"
	case strings.HasSuffix(name, "bytes"):
		return "bytes"
	}
	return "count"
}

// gcCPU returns the process's cumulative GC CPU time and total CPU time, in
// seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// cpuSteal reads the VM's cumulative steal time and total CPU time, in
// clock ticks, from /proc/stat (zeros where it is unreadable: the figure is
// a diagnostic, not a metric).
func cpuSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// resetPeakRSS resets the process's peak resident set size (VmHWM) to its
// current resident set size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func printMetrics(log io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
