package protocheck

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// The liveness prover: no reachable transient state may starve.
//
// Property. The safety pass proves nothing bad is reachable; this pass
// proves pending work completes. The fairness assumption is weak
// fairness over the in-flight work: deliveries, activations, responses
// and completions that stay enabled eventually fire — but the
// *environment* (cores issuing accesses, the TCC and DMA issuing
// requests, directory-cache pressure, a saturated counter re-asserting
// "at least one more message") is never obliged to go quiet. The
// checkable form of "every request eventually completes" is therefore
// drain-reachability: from every reachable state, the stable
// (quiescent) subset must be reachable using progress moves alone. If
// some transient state cannot drain, the work pending in it never
// completes on any fair schedule — the environment moves available
// from it only add more work — and that is a livelock/starvation.
//
// Algorithm. Each abstract transition carries an edgeKind (step.go):
// kindProgress consumes or advances in-flight work, kindInject
// introduces it. Over the retained exploration graph, the prover
// recomputes each state's successors once (in parallel, over id
// ranges), keeps the progress edges (dropping self-loops — a stalled
// retry makes no progress by construction), builds the reverse
// adjacency, and walks backward from the stable states. Everything not
// reached is trapped: the SCC structure of the trapped region is
// degenerate by construction (its members reach no stable state, so
// together with the environment moves that stay inside it, it contains
// the infinite non-progress runs). The counterexample is the shortest
// lasso: the BFS-shortest stem from the quiescent state into the
// trapped region, plus the shortest cycle inside the region — each hop
// labelled with the table arm it animates — showing the system running
// forever while the pending work never completes.
//
// Symmetry: the reduction is sound here too — see canon.go.

// LiveResult is the outcome of the liveness pass for one configuration.
type LiveResult struct {
	Config    ModelConfig
	States    int           // states examined (= the reachable set)
	Stable    int           // quiescent states
	Transient int           // states with work in flight
	Trapped   int           // transient states that cannot drain to quiescence
	Elapsed   time.Duration // wall time of the liveness pass
	Lasso     *Lasso        // nil when every transient state drains
}

// Lasso is a liveness counterexample: a stem from the quiescent state
// into a starved state, plus a cycle of moves the system can repeat
// forever while the pending work never completes.
type Lasso struct {
	Config  ModelConfig
	State   string      // the starved state the stem reaches
	Starved []string    // the in-flight work that never completes
	Stem    []TraceStep // shortest path from quiescent into the starved region
	Cycle   []TraceStep // shortest cycle inside the region ([] = finite dead end)
}

func (l *Lasso) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] liveness: transient state cannot drain to quiescence: %s\n", l.Config, l.State)
	fmt.Fprintf(&b, "  pending forever: %s\n", strings.Join(l.Starved, "; "))
	fmt.Fprintf(&b, "  stem (%d steps from quiescent):\n", len(l.Stem))
	writeSteps(&b, l.Stem)
	if len(l.Cycle) == 0 {
		b.WriteString("  no cycle: the starved region is a finite dead end (deadlock)\n")
	} else {
		fmt.Fprintf(&b, "  cycle (%d steps, repeatable forever):\n", len(l.Cycle))
		writeSteps(&b, l.Cycle)
	}
	return b.String()
}

func writeSteps(b *strings.Builder, steps []TraceStep) {
	for i, t := range steps {
		arm := ""
		if t.Arm != "" {
			arm = " [" + t.Arm + "]"
		}
		fmt.Fprintf(b, "  %3d. %s%s\n       → %s\n", i+1, t.Desc, arm, t.State)
	}
}

// Liveness runs the drain-reachability pass over the retained
// exploration graph. The exploration must have completed without a
// safety violation (a violation stops the BFS early, leaving the graph
// incomplete).
func (r *ReachResult) Liveness() (*LiveResult, error) {
	ex := r.exp
	if ex == nil {
		return nil, fmt.Errorf("liveness: exploration of %s did not retain its graph", r.Config)
	}
	if r.Violation != nil {
		return nil, fmt.Errorf("liveness: %s has a safety violation; the reachable graph is incomplete", r.Config)
	}
	start := time.Now()
	n := len(ex.keys)
	res := &LiveResult{Config: r.Config, States: n}

	// Pass 1 (parallel, the expensive one — it recomputes every state's
	// successors): mark stable states and build the forward
	// progress-edge CSR. Contiguous id ranges keep each worker's edge
	// list in id order, so the global CSR is the in-order concatenation
	// of the per-range lists; everything after this sweep is pure
	// integer work.
	stable := make([]bool, n)
	parts := splitRanges(n, ex.workers)
	type fwdPart struct {
		counts  []int32 // out-degree per id within the range
		targets []int32 // successors, grouped by id in range order
	}
	fparts := make([]fwdPart, len(parts))
	var wg sync.WaitGroup
	for pi, pr := range parts {
		wg.Add(1)
		go func(pi, lo, hi int) {
			defer wg.Done()
			fp := fwdPart{counts: make([]int32, hi-lo)}
			var buf []succ
			for id := lo; id < hi; id++ {
				key := ex.keys[id]
				s := unpack(key)
				if s.stable() {
					stable[id] = true
				}
				buf = successorsInto(buf, s, ex.cfg)
				for i := range buf {
					nx := &buf[i]
					if nx.kind != kindProgress || nx.s == s {
						continue
					}
					nk := ex.key(&nx.s)
					if nk == key {
						continue // a stalled retry makes no progress
					}
					to, ok := ex.ids.get(nk)
					if !ok {
						panic(fmt.Sprintf("model bug: successor of explored state %s not in visited set", s))
					}
					fp.counts[id-lo]++
					fp.targets = append(fp.targets, to)
				}
			}
			fparts[pi] = fp
		}(pi, pr[0], pr[1])
	}
	wg.Wait()

	foff := make([]int32, n+1)
	var total int32
	id := 0
	for _, fp := range fparts {
		for _, c := range fp.counts {
			foff[id] = total
			total += c
			id++
		}
	}
	foff[n] = total
	ftgt := make([]int32, 0, total)
	for _, fp := range fparts {
		ftgt = append(ftgt, fp.targets...)
	}

	// Reverse CSR by counting sort over the forward edges.
	roff := make([]int32, n+1)
	for _, to := range ftgt {
		roff[to+1]++
	}
	for i := 0; i < n; i++ {
		roff[i+1] += roff[i]
	}
	redges := make([]int32, total)
	rcur := make([]int32, n)
	copy(rcur, roff[:n])
	for from := 0; from < n; from++ {
		for _, to := range ftgt[foff[from]:foff[from+1]] {
			redges[rcur[to]] = int32(from)
			rcur[to]++
		}
	}
	offsets := roff

	// Backward BFS from the stable states over the reversed progress
	// edges: everything reached can drain; everything else is trapped.
	canDrain := make([]bool, n)
	queue := make([]int32, 0, n/4)
	for id := 0; id < n; id++ {
		if stable[id] {
			canDrain[id] = true
			queue = append(queue, int32(id))
			res.Stable++
		}
	}
	res.Transient = n - res.Stable
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range redges[offsets[v]:offsets[v+1]] {
			if !canDrain[u] {
				canDrain[u] = true
				queue = append(queue, u)
			}
		}
	}

	// The trapped state with the smallest id is the one the BFS
	// discovered first — its parent chain is a shortest stem.
	first := int32(-1)
	for id := 0; id < n; id++ {
		if !canDrain[id] {
			res.Trapped++
			if first < 0 {
				first = int32(id)
			}
		}
	}
	if first >= 0 {
		s := unpack(ex.keys[first])
		res.Lasso = &Lasso{
			Config:  r.Config,
			State:   s.String(),
			Starved: pendingWork(s),
			Stem:    ex.trace(first),
			Cycle:   ex.cycleWithin(first, canDrain),
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// lassoNode is one node of the cycle-search BFS tree.
type lassoNode struct {
	id     int32
	parent int32 // index into the nodes slice, -1 for the root
	ord    uint16
}

// cycleWithin finds the shortest cycle through start that stays inside
// the trapped region (canDrain false), using all moves — the
// environment's injections and stalled retries are exactly what the
// system does forever while the pending work starves. The region is
// closed under progress moves by construction; injection moves that
// would leave it are skipped. BFS order plus deterministic successor
// ordinals make the returned cycle deterministic.
func (ex *explorer) cycleWithin(start int32, canDrain []bool) []TraceStep {
	nodes := []lassoNode{{id: start, parent: -1}}
	seen := map[int32]bool{start: true}
	for qi := 0; qi < len(nodes); qi++ {
		cur := nodes[qi]
		s := unpack(ex.keys[cur.id])
		for i, nx := range successors(s, ex.cfg) {
			to, ok := ex.ids.get(ex.key(&nx.s))
			if !ok || canDrain[to] {
				continue
			}
			if to == start {
				// Found: the tree path root→cur plus this closing edge.
				var chain []lassoNode
				for at := int32(qi); at >= 0; at = nodes[at].parent {
					chain = append(chain, nodes[at])
				}
				var steps []TraceStep
				for j := len(chain) - 2; j >= 0; j-- {
					steps = append(steps, ex.stepFor(chain[j+1].id, chain[j].ord))
				}
				return append(steps, ex.stepFor(cur.id, uint16(i)))
			}
			if !seen[to] {
				seen[to] = true
				nodes = append(nodes, lassoNode{id: to, parent: int32(qi), ord: uint16(i)})
			}
		}
	}
	return nil
}

// stepFor renders the ord'th successor edge of the state with the
// given id as a trace step.
func (ex *explorer) stepFor(from int32, ord uint16) TraceStep {
	succs := successors(unpack(ex.keys[from]), ex.cfg)
	nx := succs[ord]
	return TraceStep{Desc: nx.desc, Arm: nx.arm.String(), State: ex.canonize(nx.s).String()}
}

// pendingWork lists the in-flight work of a transient state — the
// items a lasso counterexample starves.
func pendingWork(s state) []string {
	var out []string
	for i, a := range s.Ag {
		who := fmt.Sprintf("cpu%d", i)
		if a.WBPh != '-' {
			out = append(out, fmt.Sprintf("%s victim buffer (phase %c) awaiting WBAck", who, a.WBPh))
		}
		if a.Miss != '-' {
			out = append(out, fmt.Sprintf("%s %s miss (phase %c)", who, missEvent(a.Miss), a.MissP))
		}
		if a.Prb != '-' {
			out = append(out, fmt.Sprintf("%s probe (%c) in flight", who, a.Prb))
		}
		if a.Unb {
			out = append(out, who+" Unblock in flight")
		}
	}
	t := s.TCC
	if t.MissP != '-' {
		out = append(out, fmt.Sprintf("tcc RdBlk miss (phase %c)", t.MissP))
	}
	if t.Prb != '-' {
		out = append(out, fmt.Sprintf("tcc probe (%c) in flight", t.Prb))
	}
	if t.Wt != '0' {
		out = append(out, "tcc WT outstanding")
	}
	if t.At != '0' {
		out = append(out, "tcc Atomic outstanding")
	}
	if s.DMA.Rd != '0' {
		out = append(out, "dma read outstanding")
	}
	if s.DMA.Wr != '0' {
		out = append(out, "dma write outstanding")
	}
	if s.Dir.Busy != '-' {
		out = append(out, fmt.Sprintf("directory transaction %c active", s.Dir.Busy))
	}
	return out
}

// splitRanges divides [0, n) into one contiguous half-open range per
// worker.
func splitRanges(n, workers int) [][2]int {
	if workers < 1 {
		workers = 1
	}
	chunk := n/workers + 1
	var out [][2]int
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// CheckLive runs the liveness pass over every exploration result
// concurrently, reporting a finding per lasso.
func CheckLive(results []*ReachResult) ([]Finding, []*LiveResult, error) {
	lives := make([]*LiveResult, len(results))
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lives[i], errs[i] = results[i].Liveness()
		}(i)
	}
	wg.Wait()
	var findings []Finding
	for i, err := range errs {
		if err != nil {
			return nil, nil, err
		}
		if l := lives[i]; l.Lasso != nil {
			findings = append(findings, Finding{
				Analysis: "live",
				Machine:  l.Config.String(),
				Detail:   l.Lasso.String(),
			})
		}
	}
	return findings, lives, nil
}

// SummarizeLive renders per-config liveness stats for the CLI.
func SummarizeLive(lives []*LiveResult) string {
	var b strings.Builder
	for _, l := range lives {
		verdict := "live"
		if l.Lasso != nil {
			verdict = fmt.Sprintf("STARVED (%d trapped)", l.Trapped)
		}
		fmt.Fprintf(&b, "  %-26s %8d states  %8d stable  %8d transient  %8s  %s\n",
			l.Config, l.States, l.Stable, l.Transient, l.Elapsed.Round(time.Millisecond), verdict)
	}
	return b.String()
}
