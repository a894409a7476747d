package sim

import (
	"fmt"

	"csspgo/internal/ir"
	"csspgo/internal/machine"
)

// The predecoded program. New translates Prog.Instrs once into a dense
// array of 24-byte ops, so the execution loop never reads the 104-byte
// machine.Instr: kind, ALU operator and branch polarity fuse into one
// opcode, and branch, jump and call targets resolve to instruction
// indexes (-1 when unmapped, so the loop still reports the jump).

// opcode is a fused instruction kind + operator.
type opcode uint8

const (
	opConst opcode = iota
	opMove
	opNot
	opNeg
	opAdd
	opSub
	opMul
	opDiv
	opRem
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAnd
	opOr
	opXor
	opShl
	opShr
	opZero // an ALU op with an unknown operator: the result is 0
	opSelect
	opLoad     // scalar: a is the wrapped global offset
	opLoadIdx  // indexed: globals[wrap(a + r[b])]
	opStore    // scalar: globals[a] = r[c]
	opStoreIdx // indexed: globals[wrap(a + r[b])] = r[c]
	opBranch   // taken when r[a] != 0
	opBranchNeg
	opJump
	opCall
	opICall
	opTailCall
	opRet
	opCounter
)

// binOps maps an ALU operator to its opcode.
var binOps = [...]opcode{
	ir.BinAdd: opAdd, ir.BinSub: opSub, ir.BinMul: opMul, ir.BinDiv: opDiv, ir.BinRem: opRem,
	ir.BinEq: opEq, ir.BinNe: opNe, ir.BinLt: opLt, ir.BinLe: opLe, ir.BinGt: opGt, ir.BinGe: opGe,
	ir.BinAnd: opAnd, ir.BinOr: opOr, ir.BinXor: opXor, ir.BinShl: opShl, ir.BinShr: opShr,
}

// op is one predecoded instruction. Operand use by opcode:
//
//	const          dst = b | c<<32 (the 64-bit immediate, split)
//	ALU            dst = a <op> b (move, not, neg: a only)
//	select         dst = r[a] != 0 ? r[b] : r[c]
//	load/store     a = global offset, b = index register, dst or c = value register
//	branch, jump   a = condition register, b = target index
//	call, tailcall a = callee function ID, b = target index, c = call site, dst
//	icall          a = register holding the callee ID, c = call site, dst
//	ret            a = value register (-1 returns 0)
//	counter        a = counter ID
type op struct {
	code    opcode
	size    uint8  // encoded byte size; the next instruction's address is addr+size
	off     uint32 // address - Machine.base
	dst     int32
	a, b, c int32
}

// imm reassembles a const op's 64-bit immediate.
func (o *op) imm() int64 { return int64(uint64(uint32(o.b)) | uint64(uint32(o.c))<<32) }

// callSite is the out-of-line part of a call: its argument registers (the
// Prog's own slice) and the instruction index its return lands on.
type callSite struct {
	args []int32
	ret  int32
}

// funcInfo is what a call needs of its callee.
type funcInfo struct {
	start          uint64
	entry          int32 // instruction index of start, -1 when unmapped
	nregs, nparams int
}

// decode builds the predecoded program and the per-instruction predictor
// tables.
func (m *Machine) decode() {
	p := m.Prog
	index := func(addr uint64) int32 { return int32(p.InstrIndexAt(addr)) }
	m.funcs = make([]funcInfo, len(p.Funcs))
	for i, f := range p.Funcs {
		m.funcs[i] = funcInfo{start: f.Start, entry: index(f.Start), nregs: int(f.NumRegs), nparams: int(f.NumParams)}
	}
	if len(p.Instrs) == 0 {
		return
	}
	m.base = p.Instrs[0].Addr
	m.ops = make([]op, len(p.Instrs))
	m.pred = make([]uint8, len(p.Instrs))
	nsites, icalls := 0, false
	for i := range p.Instrs {
		m.pred[i] = 2 // weakly taken
		switch p.Instrs[i].Kind {
		case machine.KICall:
			icalls = true
			nsites++
		case machine.KCall, machine.KTailCall:
			nsites++
		}
	}
	m.sites = make([]callSite, 0, nsites)
	if icalls {
		m.btb = make([]int32, len(p.Instrs))
		for i := range m.btb {
			m.btb[i] = -1
		}
	}
	ng := len(p.GlobalInit)
	target := func(i int, addr uint64) int32 {
		t := index(addr)
		if t < 0 {
			if m.unmapped == nil {
				m.unmapped = map[int32]uint64{}
			}
			m.unmapped[int32(i)] = addr
		}
		return t
	}
	site := func(in *machine.Instr) int32 {
		m.sites = append(m.sites, callSite{args: in.ArgRegs, ret: index(in.Addr + uint64(in.Size))})
		return int32(len(m.sites) - 1)
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Addr-m.base > 1<<32-1 || in.Size > 255 {
			panic(fmt.Sprintf("sim: instruction at %#x does not fit the predecoded form", in.Addr))
		}
		o := op{size: uint8(in.Size), off: uint32(in.Addr - m.base), dst: in.Dst, a: in.A, b: in.B, c: in.C}
		switch in.Kind {
		case machine.KConst:
			o.code = opConst
			o.b, o.c = int32(uint32(in.Value)), int32(uint32(uint64(in.Value)>>32))
		case machine.KOp:
			switch {
			case in.Op == ir.OpMove:
				o.code = opMove
			case in.Op == ir.OpNot:
				o.code = opNot
			case in.Op == ir.OpNeg:
				o.code = opNeg
			case int(in.Bin) < len(binOps):
				o.code = binOps[in.Bin]
			default:
				o.code = opZero
			}
		case machine.KSelect:
			o.code = opSelect
		case machine.KLoad, machine.KStore:
			o.a, o.b, o.c = in.GlobalOff, in.Index, in.A
			scalar := in.Index < 0
			if scalar {
				o.a = int32(wrap(int64(in.GlobalOff), ng))
			}
			switch {
			case in.Kind == machine.KLoad && scalar:
				o.code = opLoad
			case in.Kind == machine.KLoad:
				o.code = opLoadIdx
			case scalar:
				o.code = opStore
			default:
				o.code = opStoreIdx
			}
		case machine.KBranch:
			o.code = opBranch
			if in.BranchNeg {
				o.code = opBranchNeg
			}
			o.b = target(i, in.Target)
		case machine.KJump:
			o.code = opJump
			o.b = target(i, in.Target)
		case machine.KCall, machine.KTailCall:
			o.code = opCall
			if in.Kind == machine.KTailCall {
				o.code = opTailCall
			}
			o.a, o.b, o.c = in.CalleeID, target(i, in.Target), site(in)
		case machine.KICall:
			o.code = opICall
			o.c = site(in)
		case machine.KRet:
			o.code = opRet
		case machine.KCounter:
			o.code = opCounter
			o.a = in.CounterID
		default:
			panic(fmt.Sprintf("sim: unknown instruction kind %d at %#x", in.Kind, in.Addr))
		}
		m.ops[i] = o
	}
}

// addr is o's instruction address.
func (m *Machine) addr(o *op) uint64 { return m.base + uint64(o.off) }

// targetAddr is the address of the branch target at instruction index tgt,
// or, for an unmapped target, the raw address the op at pc jumps to.
func (m *Machine) targetAddr(tgt, pc int32) uint64 {
	if tgt >= 0 {
		return m.base + uint64(m.ops[tgt].off)
	}
	return m.unmapped[pc]
}
