package conform

import (
	"hscsim/internal/cachearray"
	"hscsim/internal/verify"
)

// Minimize shrinks a failing case with greedy delta debugging: drop
// whole agents, remove chunks of each program (halving granularity down
// to single ops), ddmin jointly over the combined cross-agent op list,
// and compact the line pool, repeating to a fixpoint. fails must return
// true when the candidate still reproduces the failure; Minimize never
// returns a case for which fails is false, and it leaves the input
// untouched if the input itself does not fail.
func Minimize(c Case, fails func(Case) bool) Case {
	if !fails(c) {
		return c
	}
	for {
		next, changed := shrinkOnce(c, fails)
		if !changed {
			return c
		}
		c = next
	}
}

// shrinkOnce applies one full pass of every reduction and reports
// whether anything got smaller.
func shrinkOnce(c Case, fails func(Case) bool) (Case, bool) {
	changed := false

	// Drop whole agents, largest savings first.
	for t := len(c.CPU) - 1; t >= 0; t-- {
		cand := c
		cand.CPU = append(append([][]verify.AgentOp{}, c.CPU[:t]...), c.CPU[t+1:]...)
		if fails(cand) {
			c, changed = cand, true
		}
	}
	if len(c.GPU) > 0 {
		cand := c
		cand.GPU = nil
		if fails(cand) {
			c, changed = cand, true
		}
	}
	if len(c.DMA) > 0 {
		cand := c
		cand.DMA = nil
		if fails(cand) {
			c, changed = cand, true
		}
	}

	// Chunk removal inside each surviving program.
	edit := func(get func(Case) []verify.AgentOp, set func(*Case, []verify.AgentOp)) {
		ops, ok := shrinkOps(get(c), func(cand []verify.AgentOp) bool {
			cc := c
			set(&cc, cand)
			return fails(cc)
		})
		if ok {
			set(&c, ops)
			changed = true
		}
	}
	for t := range c.CPU {
		t := t
		edit(func(cc Case) []verify.AgentOp { return cc.CPU[t] },
			func(cc *Case, ops []verify.AgentOp) {
				cpu := append([][]verify.AgentOp{}, cc.CPU...)
				cpu[t] = ops
				cc.CPU = cpu
			})
	}
	edit(func(cc Case) []verify.AgentOp { return cc.GPU },
		func(cc *Case, ops []verify.AgentOp) { cc.GPU = ops })
	edit(func(cc Case) []verify.AgentOp { return cc.DMA },
		func(cc *Case, ops []verify.AgentOp) { cc.DMA = ops })

	// Joint cross-agent pass: ddmin over the combined (agent, op) list.
	// Per-agent shrinking gets stuck on failures that need correlated
	// deletions — e.g. a race that only reproduces while two programs
	// stay in lockstep, where removing an op from either program alone
	// makes the candidate pass. Removing a chunk of the interleaved list
	// deletes ops from several agents at once.
	if cand, ok := shrinkJoint(c, fails); ok {
		c, changed = cand, true
	}

	// Compact the line pool: rename surviving lines onto a dense range.
	// The renaming is injective, so the single-storer-per-line invariant
	// (race freedom) is preserved.
	if cand, ok := compactLines(c); ok && fails(cand) {
		c, changed = cand, true
	}
	return c, changed
}

// shrinkOps is ddmin over one program: try deleting chunks of size
// n/2, n/4, ... 1, restarting at the current size after any success.
func shrinkOps(ops []verify.AgentOp, fails func([]verify.AgentOp) bool) ([]verify.AgentOp, bool) {
	changed := false
	for size := len(ops) / 2; size >= 1; size /= 2 {
		for lo := 0; lo+size <= len(ops); {
			cand := append(append([]verify.AgentOp{}, ops[:lo]...), ops[lo+size:]...)
			if fails(cand) {
				ops, changed = cand, true
				// Deleted; the next chunk now starts at lo.
				continue
			}
			lo += size
		}
	}
	return ops, changed
}

// opRef names one op of a case: agent slot (CPU threads in order, then
// GPU, then DMA — the Case.programs order) and index within that
// agent's program.
type opRef struct {
	agent int
	idx   int
}

// jointRefs lists every op of the case round-robin across agents
// (CPU0[0], CPU1[0], ..., GPU[0], DMA[0], CPU0[1], ...). Round-robin
// order makes a contiguous ddmin chunk ratio-preserving: a chunk of
// size k removes ~k/agents ops from each agent rather than a run from
// one program, which is exactly the correlated deletion the per-agent
// pass cannot express.
func jointRefs(c Case) []opRef {
	progs := c.programs()
	var refs []opRef
	for i := 0; ; i++ {
		added := false
		for a, p := range progs {
			if i < len(p) {
				refs = append(refs, opRef{agent: a, idx: i})
				added = true
			}
		}
		if !added {
			return refs
		}
	}
}

// buildFromRefs reconstructs a case keeping only the listed ops, in
// their original program order.
func buildFromRefs(c Case, refs []opRef) Case {
	progs := c.programs()
	keep := make([][]bool, len(progs))
	for a, p := range progs {
		keep[a] = make([]bool, len(p))
	}
	for _, r := range refs {
		keep[r.agent][r.idx] = true
	}
	filter := func(a int, ops []verify.AgentOp) []verify.AgentOp {
		var out []verify.AgentOp
		for i, op := range ops {
			if keep[a][i] {
				out = append(out, op)
			}
		}
		return out
	}
	out := Case{Name: c.Name}
	for t, p := range c.CPU {
		out.CPU = append(out.CPU, filter(t, p))
	}
	out.GPU = filter(len(c.CPU), c.GPU)
	out.DMA = filter(len(c.CPU)+1, c.DMA)
	return out
}

// shrinkJoint is ddmin over the interleaved cross-agent op list: try
// deleting chunks of size n/2, n/4, ... 1, keeping any deletion that
// still fails.
func shrinkJoint(c Case, fails func(Case) bool) (Case, bool) {
	refs := jointRefs(c)
	changed := false
	for size := len(refs) / 2; size >= 1; size /= 2 {
		for lo := 0; lo+size <= len(refs); {
			cand := append(append([]opRef{}, refs[:lo]...), refs[lo+size:]...)
			if fails(buildFromRefs(c, cand)) {
				refs, changed = cand, true
				// Deleted; the next chunk now starts at lo.
				continue
			}
			lo += size
		}
	}
	if !changed {
		return c, false
	}
	return buildFromRefs(c, refs), true
}

// compactLines renames the case's lines onto the dense range starting
// at the pool base, preserving relative order. Reports false when the
// pool is already dense.
func compactLines(c Case) (Case, bool) {
	lines := c.Lines()
	remap := make(map[cachearray.LineAddr]cachearray.LineAddr, len(lines))
	dense := true
	for i, l := range lines {
		to := cachearray.LineAddr(0x10 + i)
		remap[l] = to
		dense = dense && l == to
	}
	if dense {
		return c, false
	}
	mapOps := func(ops []verify.AgentOp) []verify.AgentOp {
		out := make([]verify.AgentOp, len(ops))
		for i, op := range ops {
			op.Line = remap[op.Line]
			out[i] = op
		}
		return out
	}
	cand := Case{Name: c.Name, GPU: mapOps(c.GPU), DMA: mapOps(c.DMA)}
	for _, p := range c.CPU {
		cand.CPU = append(cand.CPU, mapOps(p))
	}
	return cand, true
}
