package sim

// CostParams is the cycle cost model. The defaults are x86-server-flavoured
// and deliberately make the classic PGO levers matter: call overhead
// (inlining), taken-branch bubbles and i-cache locality (block layout,
// function splitting), mispredicts (branch bias), and counter increments
// (instrumentation overhead).
type CostParams struct {
	BaseCPI         uint64 // cycles per retired instruction
	TakenBranch     uint64 // front-end redirect bubble for any taken branch
	Mispredict      uint64 // extra cycles on conditional mispredict
	ICacheMiss      uint64 // i-cache line miss penalty
	CallOverhead    uint64 // frame setup beyond the call instruction
	RetOverhead     uint64
	ArgCost         uint64 // per-argument move cost
	CounterCost     uint64 // instrumentation counter RMW
	ICacheBytes     int    // total i-cache capacity
	ICacheLineBytes int
	ICacheWays      int

	// Sampling-interrupt cost: the PMI dispatch itself plus the
	// frame-pointer walk per stack frame captured. Both default to 0 so
	// cycle counts stay comparable across the existing experiments; the
	// overhead observatory enables them via ProfilingCostParams to make
	// the cost of profiling itself visible.
	SampleInterrupt uint64 // fixed cycles per sampling interrupt
	SampleFrame     uint64 // cycles per stack frame walked in the interrupt
}

// DefaultCostParams returns the calibrated default model.
func DefaultCostParams() CostParams {
	return CostParams{
		BaseCPI:         1,
		TakenBranch:     1,
		Mispredict:      14,
		ICacheMiss:      12,
		CallOverhead:    2,
		RetOverhead:     1,
		ArgCost:         1,
		CounterCost:     5,
		ICacheBytes:     8 * 1024,
		ICacheLineBytes: 64,
		ICacheWays:      2,
	}
}

// ProfilingCostParams returns the default model with the sampling-interrupt
// costs enabled: a PMI dispatch plus a per-frame unwind charge. Use it when
// the point of the run is to measure what profiling itself costs (the
// overhead observatory, the Pareto sweep); everything else keeps the
// zero-cost defaults so cycle counts stay pinned.
func ProfilingCostParams() CostParams {
	p := DefaultCostParams()
	p.SampleInterrupt = 250
	p.SampleFrame = 8
	return p
}

// icache is a set-associative instruction cache with LRU replacement.
type icache struct {
	lines    []icLine // set-major: set s is lines[s*ways : (s+1)*ways]
	ways     int
	lineBits uint
	setMask  uint64
	tick     uint64
}

type icLine struct {
	tag   uint64
	valid bool
	used  uint64
}

func newICache(p CostParams) *icache {
	lineBits := uint(0)
	for 1<<lineBits < p.ICacheLineBytes {
		lineBits++
	}
	nsets := p.ICacheBytes / p.ICacheLineBytes / p.ICacheWays
	if nsets < 1 {
		nsets = 1
	}
	return &icache{
		lines:    make([]icLine, nsets*p.ICacheWays),
		ways:     p.ICacheWays,
		lineBits: lineBits,
		setMask:  uint64(nsets - 1),
	}
}

// access touches the line containing addr; returns true on hit.
func (c *icache) access(addr uint64) bool {
	c.tick++
	line := addr >> c.lineBits
	s := int(line&c.setMask) * c.ways
	set := c.lines[s : s+c.ways]
	var victim, oldest = 0, ^uint64(0)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].used = c.tick
			return true
		}
		if set[i].used < oldest {
			oldest = set[i].used
			victim = i
		}
	}
	set[victim] = icLine{tag: line, valid: true, used: c.tick}
	return false
}
