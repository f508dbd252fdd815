package verify

import (
	"fmt"
	"strings"

	"hscsim/internal/cachearray"
	"hscsim/internal/core"
	"hscsim/internal/msg"
	"hscsim/internal/stats"
)

// Config selects what the model checker explores.
type Config struct {
	Opts     core.Options
	Scenario Scenario
	// Mutate, when non-nil, rewrites (or drops, by returning nil) every
	// message at delivery time, seeding a protocol bug the checker must
	// catch (the fabric entries of conform.Mutants). It MUST be a pure
	// function of the message that writes only to a copy: the stateless
	// search re-executes action prefixes from scratch, so a mutator that
	// keeps state across calls would make replays diverge from the runs
	// that discovered them.
	Mutate func(*msg.Message) *msg.Message
	// MaxStates bounds exploration (0 = the package default). Hitting
	// the bound sets Result.Truncated rather than failing.
	MaxStates int
	// DrainBudget bounds engine events executed after each scheduling
	// choice (0 = the package default); exhausting it with nothing
	// buffered to unblock progress is reported as a livelock.
	DrainBudget int
}

// Violation is a checker counterexample: the failed invariant plus the
// exact scheduling path that reproduces it.
type Violation struct {
	Err   *core.ProtocolViolation
	Trace []string // human-readable action sequence from the initial state
}

func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\ntrace (%d scheduling choices):\n", v.Err, len(v.Trace))
	for i, step := range v.Trace {
		fmt.Fprintf(&b, "  %3d. %s\n", i+1, step)
	}
	return b.String()
}

// Result summarizes one exhaustive run.
type Result struct {
	States    int // distinct states visited
	Paths     int // complete executions reaching quiescence
	Truncated bool
	Violation *Violation // nil when every interleaving is clean
}

const (
	defaultMaxStates   = 200000
	defaultDrainBudget = 1024
)

// Run explores every interleaving of message deliveries, memory
// completions and agent issue points for the scenario under the given
// protocol options, checking SWMR, the data-value invariant, directory
// consistency, and deadlock/livelock freedom. It is a stateless search:
// the simulator is never checkpointed. A node's first child continues
// on the node's own live harness; every later child is reached by
// re-executing its action path from the initial state. A fingerprint
// set prunes revisits.
func Run(cfg Config) Result {
	c := &checker{cfg: cfg, visited: make(map[string]struct{}), reg: stats.NewRegistry()}
	if c.cfg.MaxStates == 0 {
		c.cfg.MaxStates = defaultMaxStates
	}
	if c.cfg.DrainBudget == 0 {
		c.cfg.DrainBudget = defaultDrainBudget
	}
	c.dfs(nil, nil)
	return c.result
}

type checker struct {
	cfg     Config
	visited map[string]struct{}
	reg     *stats.Registry // shared by every harness of the run; see newHarness
	result  Result
}

// replay builds a fresh harness and re-executes the action path.
// Returns nil if a violation fired mid-path (already recorded).
func (c *checker) replay(path []int) *harness {
	h := newHarness(c.cfg, c.reg)
	h.drain(c.cfg.DrainBudget)
	for _, ai := range path {
		acts := h.enabled()
		h.perform(acts[ai], c.cfg.DrainBudget)
		if h.violation != nil {
			c.fail(h, path, nil)
			return nil
		}
	}
	return h
}

// fail records the first violation found, with its trace.
func (c *checker) fail(h *harness, path []int, extra *core.ProtocolViolation) {
	v := h.violation
	if v == nil {
		v = extra
	}
	if v == nil || c.result.Violation != nil {
		return
	}
	c.result.Violation = &Violation{Err: v, Trace: c.trace(path)}
}

// trace re-executes the path once more purely to render each action.
func (c *checker) trace(path []int) []string {
	h := newHarness(c.cfg, c.reg)
	h.drain(c.cfg.DrainBudget)
	out := make([]string, 0, len(path))
	for _, ai := range path {
		acts := h.enabled()
		if ai >= len(acts) || h.violation != nil {
			out = append(out, "<replay diverged>")
			return out
		}
		out = append(out, h.describe(acts[ai]))
		h.perform(acts[ai], c.cfg.DrainBudget)
	}
	return out
}

// dfs explores the node reached by path. With a nil parent the node is
// rebuilt by replay; otherwise parent is the live harness of the node
// one step up, and the path's last action runs on it in place, so the
// parent's harness becomes this node's. path is only read, never
// retained, so callers may reuse its backing array.
func (c *checker) dfs(path []int, parent *harness) {
	if c.result.Violation != nil {
		return
	}
	if c.result.States >= c.cfg.MaxStates {
		c.result.Truncated = true
		return
	}
	h := parent
	if h == nil {
		if h = c.replay(path); h == nil {
			return
		}
	} else {
		// Nothing has run on the parent since its enabled() call, so its
		// action buffer still holds this node's action.
		h.perform(h.acts[path[len(path)-1]], c.cfg.DrainBudget)
		if h.violation != nil {
			c.fail(h, path, nil)
			return
		}
	}
	fp := h.fingerprint()
	if _, seen := c.visited[string(fp)]; seen {
		return
	}
	c.visited[string(fp)] = struct{}{}
	c.result.States++

	acts := h.enabled()
	if len(acts) == 0 {
		// Quiescent leaf: all agents must have finished and the
		// directory must be idle, else the schedule deadlocked.
		if !h.allDone() {
			c.fail(h, path, &core.ProtocolViolation{
				Rule:  "deadlock",
				Cycle: h.engine.Now(),
				Detail: fmt.Sprintf("no deliverable message, memory completion or issuable op, but agents are incomplete: %s",
					h.progress()),
			})
			return
		}
		if !h.dir.Idle() {
			c.fail(h, path, &core.ProtocolViolation{
				Rule:   "leak",
				Cycle:  h.engine.Now(),
				Detail: "all agents finished but the directory still holds live transactions or pended requests",
			})
			return
		}
		if v := h.oracle.CheckFinal(); v != nil {
			c.fail(h, path, v)
			return
		}
		c.result.Paths++
		return
	}
	// The first child descends in place and consumes h, overwriting
	// acts (h's buffer), so only the count is used; later siblings
	// replay from scratch.
	for i := range acts {
		c.dfs(append(path, i), h)
		h = nil
		if c.result.Violation != nil {
			return
		}
	}
}

// progress reports per-agent completion for deadlock messages.
func (h *harness) progress() string {
	parts := make([]string, len(h.agents))
	for i, ag := range h.agents {
		parts[i] = fmt.Sprintf("%s %d/%d ops (inflight=%t)", ag.name, ag.next, len(ag.ops), ag.inflight)
	}
	return strings.Join(parts, ", ")
}

// Variants returns the six protocol configurations from the paper that
// the checker sweeps: the stateless baseline, each incremental
// optimisation (§III), and both tracking directories (§IV).
func Variants() []core.Options {
	return []core.Options{
		{},
		{EarlyDirtyResponse: true},
		{EarlyDirtyResponse: true, NoWBCleanVicToMem: true, NoWBCleanVicToLLC: true},
		{EarlyDirtyResponse: true, LLCWriteBack: true, UseL3OnWT: true},
		{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwner},
		{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwnerSharers},
	}
}

// Scenarios returns the standard positive-sweep workloads. Lines
// 0x10 and 0x12 map to the same set of every (direct-mapped, two-set)
// array in the harness, so scenarios touching both exercise victim and
// directory-eviction races.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:  "single-line-contention",
			Lines: lines(0x10),
			CPU0:  ops(Store, 0x10, Load, 0x10),
			CPU1:  ops(Store, 0x10, Load, 0x10),
			GPU:   ops(Store, 0x10, Load, 0x10),
		},
		{
			Name:  "producer-consumer",
			Lines: lines(0x10, 0x11),
			CPU0:  ops(Store, 0x10, Store, 0x11),
			CPU1:  ops(Load, 0x11, Load, 0x10),
			GPU:   ops(Load, 0x10),
		},
		{
			Name:  "victim-race",
			Lines: lines(0x10, 0x12),
			CPU0:  ops(Store, 0x10, Store, 0x12, Load, 0x10),
			CPU1:  ops(Load, 0x10, Store, 0x12),
		},
		{
			Name:  "atomic-mix",
			Lines: lines(0x10),
			CPU0:  ops(Atomic, 0x10, Load, 0x10),
			CPU1:  ops(Store, 0x10),
			GPU:   ops(Atomic, 0x10),
		},
		{
			Name:       "dir-pressure",
			Lines:      lines(0x10, 0x12),
			CPU0:       ops(Store, 0x10, Load, 0x12),
			CPU1:       ops(Store, 0x12, Load, 0x10),
			GPU:        ops(Load, 0x10),
			DirEntries: 2,
		},
	}
}

// DMAScenarios returns the DMA-agent sweeps: DMARd/DMAWr interleaved
// with CPU stores (the ROADMAP open item). The oracle models DMA-write
// commits at WBAck delivery, so every interleaving of probe traffic
// against the uncached DMA stream is checked.
func DMAScenarios() []Scenario {
	return []Scenario{
		{
			// A DMA read racing CPU stores must observe probe-cleaned
			// data and leave the dirty owner's state intact.
			Name:  "dma-read-vs-stores",
			Lines: lines(0x10),
			CPU0:  ops(Store, 0x10, Store, 0x10),
			CPU1:  ops(Load, 0x10),
			DMA:   ops(Load, 0x10),
		},
		{
			// A DMA write must invalidate every cached copy before it
			// commits; the trailing CPU load must see a fresh fill.
			Name:  "dma-write-vs-stores",
			Lines: lines(0x10),
			CPU0:  ops(Store, 0x10, Load, 0x10),
			CPU1:  ops(Store, 0x10),
			DMA:   ops(Store, 0x10),
		},
		{
			// Back-to-back DMA write then read across two conflicting
			// lines, racing a CPU victim (0x10 and 0x12 share a set).
			Name:  "dma-stream-victim-race",
			Lines: lines(0x10, 0x12),
			CPU0:  ops(Store, 0x10, Store, 0x12),
			DMA:   ops(Store, 0x10, Load, 0x12),
		},
	}
}

func lines(ls ...uint64) []cachearray.LineAddr {
	out := make([]cachearray.LineAddr, len(ls))
	for i, l := range ls {
		out[i] = cachearray.LineAddr(l)
	}
	return out
}

// ops builds a program from (kind, line) pairs.
func ops(kv ...interface{}) []AgentOp {
	if len(kv)%2 != 0 {
		panic("verify: ops wants (kind, line) pairs")
	}
	out := make([]AgentOp, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, AgentOp{kv[i].(OpKind), cachearray.LineAddr(kv[i+1].(int))})
	}
	return out
}
