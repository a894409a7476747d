// Package sim executes machine programs on a simulated CPU with a cycle
// cost model (branch predictor, i-cache, call overhead) and a PMU that
// produces synchronized LBR + call-stack samples. It is the reproduction's
// stand-in for the paper's Skylake servers + linux perf.
package sim

import (
	"errors"
	"fmt"

	"csspgo/internal/machine"
)

// Stats accumulates execution statistics across runs.
type Stats struct {
	Cycles        uint64
	Instructions  uint64
	CondBranches  uint64
	TakenBranches uint64 // all LBR-visible transfers
	Mispredicts   uint64
	ICacheMisses  uint64
	Calls         uint64
	IndirectCalls uint64
	Returns       uint64
	Samples       uint64
}

// Machine is a simulated CPU + process executing one binary. Global state
// persists across Run calls (a long-lived server process handling many
// requests); Reset restores the initial image.
//
// New predecodes the binary (see decode.go) and Run executes the decoded
// form: one loop serves every PMU configuration, and after the first run
// has sized the register stack it allocates nothing, unless the PMU keeps
// samples in memory or value profiling meets a new call target.
type Machine struct {
	Prog *machine.Prog
	Cost CostParams

	globals  []int64
	counters []uint64
	ic       *icache
	pmu      *pmu
	lastLine uint32 // fetch line of the last instruction, from base's line; ^0 before the first

	// Predecoded program (decode.go), indexed by instruction index.
	base     uint64 // address of Instrs[0]; op.off is relative to it
	ops      []op
	sites    []callSite
	funcs    []funcInfo
	unmapped map[int32]uint64 // op index -> unmapped target address

	// Per-instruction predictor state. pred holds 2-bit counters (one per
	// static instruction, so no aliasing). btb predicts indirect-call
	// targets by last-seen target per site (-1 = none yet); a wrong
	// prediction costs a full mispredict (the penalty ICP's guarded direct
	// call removes on the dominant path). nil when the binary has no icall.
	pred []uint8
	btb  []int32

	// The call stack: frames hold offsets into one contiguous register
	// stack; snap and scratch are reused buffers for stack snapshots and
	// tail-call arguments.
	frames  []frame
	regs    []int64
	snap    []uint64
	scratch []int64

	stats Stats

	// vprof holds exact indirect-call target counts per call-site address,
	// collected only on instrumented binaries (value profiling).
	vprof map[uint64]map[int32]uint64

	// meter, when attached, receives per-probe / per-function attribution
	// of every profiling-machinery cycle (see meter.go). Nil by default.
	meter *OverheadMeter

	// MaxSteps bounds a single Run (runaway-loop guard).
	MaxSteps uint64
}

// frame is one activation: its register window regs[base:base+n], and
// where its return lands in the caller.
type frame struct {
	base, n int
	retAddr uint64
	retPC   int32 // instruction index of retAddr, -1 when unmapped
	retDst  int32
}

// New creates a machine for prog with the given cost model and PMU config.
// prog must be frozen (codegen and machine.ReadProg always freeze).
func New(prog *machine.Prog, cost CostParams, pmuCfg PMUConfig) *Machine {
	m := &Machine{
		Prog:     prog,
		Cost:     cost,
		ic:       newICache(cost),
		pmu:      newPMU(pmuCfg),
		lastLine: ^uint32(0),
		MaxSteps: 500_000_000,
	}
	m.Reset()
	m.decode()
	return m
}

// Reset restores globals and counters to the program image.
func (m *Machine) Reset() {
	m.globals = append([]int64(nil), m.Prog.GlobalInit...)
	m.counters = make([]uint64, m.Prog.NumCounters)
	m.frames = m.frames[:0]
}

// Stats returns accumulated statistics.
func (m *Machine) Stats() Stats { return m.stats }

// Counters returns the instrumentation counter values.
func (m *Machine) Counters() []uint64 { return m.counters }

// Globals returns the process's global memory, laid out like
// Prog.GlobalInit. The slice is the machine's own: read it, do not write.
func (m *Machine) Globals() []int64 { return m.globals }

// Samples returns PMU samples collected so far.
func (m *Machine) Samples() []Sample { return m.pmu.samples }

// ValueProfile returns exact indirect-call target counts per call-site
// address (instrumented binaries only; nil otherwise).
func (m *Machine) ValueProfile() map[uint64]map[int32]uint64 { return m.vprof }

// ErrStepLimit is returned when a run exceeds MaxSteps.
var ErrStepLimit = errors.New("sim: step limit exceeded")

var errUnmapped = errors.New("sim: jump to unmapped address")

// valueProfileCost is the per-indirect-call bookkeeping charge on
// instrumented binaries (hash + histogram RMW).
const valueProfileCost = 8

// snapshot builds a frame-pointer walk into the reused snap buffer: leaf
// PC first, then each frame's return address outward. The result is valid
// until the next snapshot; takeSample copies what it keeps.
func (m *Machine) snapshot(leafPC uint64) []uint64 {
	out := append(m.snap[:0], leafPC)
	for i := len(m.frames) - 1; i >= 1; i-- {
		out = append(out, m.frames[i].retAddr)
	}
	m.snap = out
	return out
}

// preStack snapshots the pre-branch stack when the next taken branch will
// trigger a non-PEBS sample, and returns nil otherwise (always with the PMU
// off: the countdown of a zero sample period never reaches 1).
func (m *Machine) preStack(leafPC uint64) []uint64 {
	if m.pmu.cfg.PEBS || m.pmu.countdown != 1 {
		return nil
	}
	return m.snapshot(leafPC)
}

// branchEvent records a taken branch in the LBR and, on sampling-counter
// underflow, takes a synchronized sample. It is called after the branch's
// frame effect. With PEBS the sample uses the post-branch stack (perfectly
// synchronized); without PEBS it uses pre, the stack before the branch,
// reproducing one-frame skid. taken counts the branch itself and calls
// this only for PMU-on runs (a nonzero sample period).
func (m *Machine) branchEvent(from, to uint64, pre []uint64) {
	if !m.pmu.recordBranch(from, to) {
		return
	}
	m.stats.Samples++
	if m.pmu.cfg.PEBS {
		snap := m.snapshot(to)
		m.pmu.takeSample(snap)
		m.sampleTaken(to, m.walkedFrames(snap))
	} else {
		m.pmu.takeSample(pre)
		leaf := to
		if len(pre) > 0 {
			leaf = pre[0]
		}
		m.sampleTaken(leaf, m.walkedFrames(pre))
	}
}

// walkedFrames is the number of frames the sampling interrupt actually
// unwound: zero for LBR-only sampling (no stack capture), the snapshot
// length otherwise.
func (m *Machine) walkedFrames(stack []uint64) int {
	if !m.pmu.cfg.SampleStacks {
		return 0
	}
	return len(stack)
}

// pushFrame opens a zeroed register window of n registers above the top
// frame and returns it. The register stack grows geometrically, so a
// steady-state run never allocates.
func (m *Machine) pushFrame(n int, retAddr uint64, retPC, retDst int32) []int64 {
	base := 0
	if k := len(m.frames); k > 0 {
		base = m.frames[k-1].base + m.frames[k-1].n
	}
	m.frames = append(m.frames, frame{base: base, n: n, retAddr: retAddr, retPC: retPC, retDst: retDst})
	return m.window(base, n)
}

// window returns the zeroed register window regs[base:base+n], growing the
// register stack first when needed. Growing moves the stack, so callers
// re-slice every window they hold from m.regs afterwards.
func (m *Machine) window(base, n int) []int64 {
	if need := base + n; need > len(m.regs) {
		grown := make([]int64, max(2*len(m.regs), need, 256))
		copy(grown, m.regs)
		m.regs = grown
	}
	w := m.regs[base : base+n : base+n]
	clear(w)
	return w
}

// flush adds the loop's batched counters to the machine's statistics.
// Every exit from Run goes through it.
func (m *Machine) flush(instrs, moves uint64, lastLine uint32) {
	m.stats.Instructions += instrs
	// Register-register moves are eliminated at rename on modern cores;
	// they occupy an instruction slot but no execution cycle.
	m.stats.Cycles += m.Cost.BaseCPI * (instrs - moves)
	m.lastLine = lastLine
}

// taken counts a taken branch, charges its front-end bubble and, when the
// PMU samples, records it in the LBR (see branchEvent).
func (m *Machine) taken(sampling bool, from, to uint64, pre []uint64) {
	m.stats.TakenBranches++
	m.stats.Cycles += m.Cost.TakenBranch
	if sampling {
		m.branchEvent(from, to, pre)
	}
}

// Run executes main(args...) to completion and returns its result.
func (m *Machine) Run(args ...int64) (int64, error) {
	entry := m.Prog.FuncByName["main"]
	if entry == nil {
		return 0, fmt.Errorf("sim: binary has no main")
	}
	m.frames = m.frames[:0]
	r := m.pushFrame(int(entry.NumRegs), 0, -1, -1)
	for i, a := range args {
		if i < int(entry.NumParams) {
			r[i] = a
		}
	}
	pc := int32(m.Prog.InstrIndexAt(m.Prog.EntryAddr))
	if pc < 0 {
		return 0, fmt.Errorf("sim: bad entry address %#x", m.Prog.EntryAddr)
	}

	cost := &m.Cost
	ops := m.ops
	sampling := m.pmu.cfg.SamplePeriod != 0
	maxSteps := m.MaxSteps
	lastLine := m.lastLine
	lineOff := uint32(m.base & 63)
	// The per-instruction counters live in locals; flush adds them to
	// m.stats on every exit.
	var steps, moves uint64
loop:
	for {
		steps++
		if steps > maxSteps {
			m.flush(steps-1, moves, lastLine)
			return 0, ErrStepLimit
		}
		o := &ops[pc]

		// Instruction fetch: charge i-cache on 64-byte line changes. Lines
		// are counted from base's line: (base+off)>>6 - base>>6.
		if line := (lineOff + o.off) >> 6; line != lastLine {
			lastLine = line
			if !m.ic.access(m.addr(o)) {
				m.stats.ICacheMisses++
				m.stats.Cycles += cost.ICacheMiss
			}
		}

		switch o.code {
		case opConst:
			r[o.dst] = o.imm()
			pc++
		case opMove:
			r[o.dst] = r[o.a]
			moves++
			pc++
		case opNot:
			r[o.dst] = b2i(r[o.a] == 0)
			pc++
		case opNeg:
			r[o.dst] = -r[o.a]
			pc++
		case opAdd:
			r[o.dst] = r[o.a] + r[o.b]
			pc++
		case opSub:
			r[o.dst] = r[o.a] - r[o.b]
			pc++
		case opMul:
			r[o.dst] = r[o.a] * r[o.b]
			pc++
		case opDiv:
			var v int64
			if b := r[o.b]; b != 0 {
				v = r[o.a] / b
			}
			r[o.dst] = v
			pc++
		case opRem:
			var v int64
			if b := r[o.b]; b != 0 {
				v = r[o.a] % b
			}
			r[o.dst] = v
			pc++
		case opEq:
			r[o.dst] = b2i(r[o.a] == r[o.b])
			pc++
		case opNe:
			r[o.dst] = b2i(r[o.a] != r[o.b])
			pc++
		case opLt:
			r[o.dst] = b2i(r[o.a] < r[o.b])
			pc++
		case opLe:
			r[o.dst] = b2i(r[o.a] <= r[o.b])
			pc++
		case opGt:
			r[o.dst] = b2i(r[o.a] > r[o.b])
			pc++
		case opGe:
			r[o.dst] = b2i(r[o.a] >= r[o.b])
			pc++
		case opAnd:
			r[o.dst] = r[o.a] & r[o.b]
			pc++
		case opOr:
			r[o.dst] = r[o.a] | r[o.b]
			pc++
		case opXor:
			r[o.dst] = r[o.a] ^ r[o.b]
			pc++
		case opShl:
			r[o.dst] = r[o.a] << (uint64(r[o.b]) & 63)
			pc++
		case opShr:
			r[o.dst] = r[o.a] >> (uint64(r[o.b]) & 63)
			pc++
		case opZero:
			r[o.dst] = 0
			pc++

		case opSelect:
			if r[o.a] != 0 {
				r[o.dst] = r[o.b]
			} else {
				r[o.dst] = r[o.c]
			}
			pc++

		case opLoad:
			r[o.dst] = m.globals[o.a]
			pc++
		case opLoadIdx:
			r[o.dst] = m.globals[wrap(int64(o.a)+r[o.b], len(m.globals))]
			pc++
		case opStore:
			m.globals[o.a] = r[o.c]
			pc++
		case opStoreIdx:
			m.globals[wrap(int64(o.a)+r[o.b], len(m.globals))] = r[o.c]
			pc++

		case opBranch, opBranchNeg:
			m.stats.CondBranches++
			t := (r[o.a] != 0) != (o.code == opBranchNeg)
			c := m.pred[pc]
			predictTaken := c >= 2
			if t && c < 3 {
				c++
			} else if !t && c > 0 {
				c--
			}
			m.pred[pc] = c
			if predictTaken != t {
				m.stats.Mispredicts++
				m.stats.Cycles += cost.Mispredict
			}
			if !t {
				pc++
				break
			}
			fallthrough
		case opJump:
			addr := m.addr(o)
			m.taken(sampling, addr, m.targetAddr(o.b, pc), m.preStack(addr+uint64(o.size)))
			if pc = o.b; pc < 0 {
				break loop
			}

		case opCall:
			site := &m.sites[o.c]
			f := &m.funcs[o.a]
			m.stats.Calls++
			m.stats.Cycles += cost.CallOverhead + cost.ArgCost*uint64(len(site.args))
			addr := m.addr(o)
			pre := m.preStack(addr)
			nr := m.pushFrame(f.nregs, addr+uint64(o.size), site.ret, o.dst)
			r = m.frameRegs(len(m.frames) - 2) // the push may have moved the stack
			for i, a := range site.args {
				nr[i] = r[a]
			}
			r = nr
			m.taken(sampling, addr, m.targetAddr(o.b, pc), pre)
			if pc = o.b; pc < 0 {
				break loop
			}

		case opICall:
			site := &m.sites[o.c]
			m.stats.Calls++
			m.stats.IndirectCalls++
			calleeID := int32(wrap(r[o.a], len(m.funcs)))
			f := &m.funcs[calleeID]
			// Indirect calls pay an extra indirect-branch bubble, and a
			// full mispredict when the BTB's last-target guess is wrong.
			m.stats.Cycles += cost.CallOverhead + 2 + cost.ArgCost*uint64(len(site.args))
			if last := m.btb[pc]; last != calleeID {
				if last >= 0 {
					m.stats.Mispredicts++
					m.stats.Cycles += cost.Mispredict
				}
				m.btb[pc] = calleeID
			}
			addr := m.addr(o)
			if m.Prog.Instrumented {
				m.valueProfile(addr, calleeID)
			}
			pre := m.preStack(addr)
			nr := m.pushFrame(f.nregs, addr+uint64(o.size), site.ret, o.dst)
			r = m.frameRegs(len(m.frames) - 2)
			for i, a := range site.args {
				if i < f.nparams {
					nr[i] = r[a]
				}
			}
			r = nr
			m.taken(sampling, addr, f.start, pre)
			if pc = f.entry; pc < 0 {
				break loop
			}

		case opTailCall:
			site := &m.sites[o.c]
			f := &m.funcs[o.a]
			m.stats.Calls++
			m.stats.Cycles += cost.ArgCost * uint64(len(site.args))
			addr := m.addr(o)
			pre := m.preStack(addr)
			// The callee reuses the frame (retAddr and retDst inherited),
			// so its window replaces the one the arguments come from:
			// stage them in the scratch buffer first.
			m.scratch = m.scratch[:0]
			for _, a := range site.args {
				m.scratch = append(m.scratch, r[a])
			}
			top := &m.frames[len(m.frames)-1]
			top.n = f.nregs
			r = m.window(top.base, top.n)
			for i, v := range m.scratch {
				r[i] = v
			}
			m.taken(sampling, addr, m.targetAddr(o.b, pc), pre)
			if pc = o.b; pc < 0 {
				break loop
			}

		case opRet:
			m.stats.Returns++
			m.stats.Cycles += cost.RetOverhead
			var val int64
			if o.a >= 0 {
				val = r[o.a]
			}
			addr := m.addr(o)
			pre := m.preStack(addr)
			fr := m.frames[len(m.frames)-1]
			if len(m.frames) == 1 {
				// Process exit: the final ret is still a taken branch,
				// sampled with main's frame still on the stack.
				m.taken(sampling, addr, fr.retAddr, pre)
				m.frames = m.frames[:0]
				m.flush(steps, moves, lastLine)
				return val, nil
			}
			m.frames = m.frames[:len(m.frames)-1]
			r = m.frameRegs(len(m.frames) - 1)
			if fr.retDst >= 0 {
				r[fr.retDst] = val
			}
			m.taken(sampling, addr, fr.retAddr, pre)
			if pc = fr.retPC; pc < 0 {
				break loop
			}

		case opCounter:
			m.counters[o.a]++
			m.stats.Cycles += cost.CounterCost
			if m.meter != nil {
				m.meter.ProbeHits[o.a]++
				m.meter.ProbeCycles += cost.CounterCost
			}
			pc++
		}
	}
	// A control transfer landed on an address where no instruction starts.
	m.flush(steps, moves, lastLine)
	return 0, errUnmapped
}

// frameRegs returns frame i's register window, re-sliced from the
// register stack.
func (m *Machine) frameRegs(i int) []int64 {
	f := &m.frames[i]
	return m.regs[f.base : f.base+f.n : f.base+f.n]
}

// valueProfile counts one indirect call from the site at addr to calleeID
// and charges for it (instrumented binaries' value profiling: a per-site
// target histogram, the costly RMW + hashing that is the
// instrumentation-PGO price).
func (m *Machine) valueProfile(addr uint64, calleeID int32) {
	m.stats.Cycles += valueProfileCost
	if m.meter != nil {
		m.meter.VProfHits[addr]++
		m.meter.VProfCycles += valueProfileCost
	}
	if m.vprof == nil {
		m.vprof = map[uint64]map[int32]uint64{}
	}
	t := m.vprof[addr]
	if t == nil {
		t = map[int32]uint64{}
		m.vprof[addr] = t
	}
	t[calleeID]++
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func wrap(off int64, n int) int64 {
	if n == 0 {
		return 0
	}
	off %= int64(n)
	if off < 0 {
		off += int64(n)
	}
	return off
}
