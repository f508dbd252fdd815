package verify

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"hscsim/internal/cachearray"
	"hscsim/internal/core"
	"hscsim/internal/corepair"
	"hscsim/internal/dma"
	"hscsim/internal/gpucache"
	"hscsim/internal/memdata"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/sim"
	"hscsim/internal/stats"
)

// chaosFabric implements noc.Fabric with explicit delivery: Send only
// buffers; the checker picks which pending message to deliver next,
// exploring every delivery order. A Mutator can rewrite or drop a
// message at delivery time to seed protocol bugs for negative tests.
type chaosFabric struct {
	handlers  map[msg.NodeID]noc.Handler
	pending   []*msg.Message //hsclint:stallqueue — the checker delivers (and removes) any element
	mutate    func(*msg.Message) *msg.Message
	onDeliver noc.DeliveryHook
	engine    *sim.Engine
}

func (f *chaosFabric) Register(id msg.NodeID, h noc.Handler) {
	if _, dup := f.handlers[id]; dup {
		panic(fmt.Sprintf("verify: duplicate node %d", id))
	}
	f.handlers[id] = h
}

func (f *chaosFabric) Send(m *msg.Message) {
	if _, ok := f.handlers[m.Dst]; !ok {
		panic(fmt.Sprintf("verify: send to unregistered node %d (%s)", m.Dst, m))
	}
	f.pending = append(f.pending, m)
}

// Alloc returns a plain (foreign) message: the checker buffers,
// reorders, and retains messages freely, so pooling is deliberately
// disabled here — every pool operation on a foreign message no-ops.
func (f *chaosFabric) Alloc() *msg.Message { return &msg.Message{} }

// Release is a no-op for the chaos fabric's foreign messages.
func (f *chaosFabric) Release(m *msg.Message) {}

// deliver hands pending message i to its destination handler.
func (f *chaosFabric) deliver(i int) {
	m := f.pending[i]
	f.pending = append(f.pending[:i], f.pending[i+1:]...)
	if f.mutate != nil {
		m = f.mutate(m)
		if m == nil {
			return // dropped
		}
	}
	f.handlers[m.Dst].Receive(m)
	if f.onDeliver != nil {
		f.onDeliver(f.engine.Now(), m)
	}
}

// chaosMem implements core.MemPort with explicit completion: read
// callbacks are buffered until the checker fires them, exploring memory
// reordering against probe traffic. Posted writes complete instantly
// (they carry no callback in the directory).
type chaosMem struct {
	pending []pendingMem //hsclint:stallqueue — the checker completes (and removes) any element
}

type pendingMem struct {
	addr cachearray.LineAddr
	done func()
}

func (c *chaosMem) Read(addr cachearray.LineAddr, done func()) {
	c.pending = append(c.pending, pendingMem{addr, done})
}

func (c *chaosMem) Write(addr cachearray.LineAddr, done func()) {
	if done != nil {
		c.pending = append(c.pending, pendingMem{addr, done})
	}
}

func (c *chaosMem) deliver(i int) {
	p := c.pending[i]
	c.pending = append(c.pending[:i], c.pending[i+1:]...)
	p.done()
}

// OpKind is one agent operation class.
type OpKind uint8

// Agent operation kinds. CPU agents issue them through their CorePair
// (Atomic maps to an RMW); the GPU agent through the TCC complex
// (Atomic maps to a system-scope atomic).
const (
	Load OpKind = iota
	Store
	Atomic
	// IFetch is a CPU instruction fetch (L1I fill, RdBlkS). Only CPU
	// agents may issue it; the GPU and DMA agents panic.
	IFetch
)

func (k OpKind) String() string {
	switch k {
	case Store:
		return "st"
	case Atomic:
		return "at"
	case IFetch:
		return "if"
	}
	return "ld"
}

// AgentOp is one operation of an agent's straight-line program.
type AgentOp struct {
	Kind OpKind
	Line cachearray.LineAddr
}

// Scenario is a small workload for the model checker: per-agent
// straight-line programs over a handful of lines. Empty programs
// disable the agent.
type Scenario struct {
	Name  string
	Lines []cachearray.LineAddr // every line any program touches
	CPU0  []AgentOp
	CPU1  []AgentOp
	GPU   []AgentOp
	// DMA is the DMA engine's program: Load issues a DMARd, Store a
	// DMAWr (Atomic is not a DMA operation and panics). DMA agents are
	// uncached, so the oracle only tracks their write serialization.
	DMA []AgentOp
	// DirEntries overrides the tracking-directory capacity (default 16,
	// conflict-free for the standard lines; set 2 to force backward
	// invalidations).
	DirEntries int
}

type agent struct {
	name     string
	ops      []AgentOp
	next     int
	inflight bool
}

func (a *agent) done() bool { return !a.inflight && a.next >= len(a.ops) }

// harness is one instantiation of the checked configuration: 2 CorePair
// L2s + 1 TCC + directory on a chaos fabric and chaos memory. Every
// cache array is direct-mapped so replacement state cannot diverge
// between runs that reach the same logical state.
type harness struct {
	engine *sim.Engine
	fab    *chaosFabric
	mem    *chaosMem
	fm     *memdata.Memory
	cpus   []*corepair.CorePair
	gpu    *gpucache.GPUCaches
	dma    *dma.Engine
	dir    *core.Directory
	oracle *Oracle
	agents []*agent
	lines  []cachearray.LineAddr

	violation *core.ProtocolViolation

	// Scratch buffers reused across calls: enabled's action list and
	// fingerprint's key and sort buffers. Each result is valid only
	// until the next call of the same method.
	acts []action
	key  []byte
	msgs []*msg.Message
	mems []uint64
}

const (
	nodeL2A = msg.NodeID(0)
	nodeL2B = msg.NodeID(1)
	nodeTCC = msg.NodeID(2)
	nodeDir = msg.NodeID(3)
	nodeDMA = msg.NodeID(4)
)

// newHarness builds the checked configuration for cfg. Every harness of
// one Run shares reg: the controllers' counters accumulate across
// harnesses, which is harmless because the checker never reads them;
// creating every counter afresh was about half of construction's cost.
func newHarness(cfg Config, reg *stats.Registry) *harness {
	opts, sc := cfg.Opts, cfg.Scenario
	engine := sim.NewEngine()
	fab := &chaosFabric{handlers: make(map[msg.NodeID]noc.Handler), mutate: cfg.Mutate, engine: engine}
	cmem := &chaosMem{}
	fm := memdata.New()

	cpCfg := corepair.Config{
		L1ISizeBytes: 64, L1IAssoc: 1,
		L1DSizeBytes: 64, L1DAssoc: 1,
		L2SizeBytes: 128, L2Assoc: 1, // 2 sets: lines 0x10/0x12 conflict
		BlockSize: 64, L1Latency: 1, L2Latency: 1,
	}
	h := &harness{engine: engine, fab: fab, mem: cmem, fm: fm, lines: sc.Lines}
	h.cpus = append(h.cpus,
		corepair.New(engine, fab, nodeL2A, nodeDir, cpCfg, reg.Scope("l2a")),
		corepair.New(engine, fab, nodeL2B, nodeDir, cpCfg, reg.Scope("l2b")),
	)
	h.gpu = gpucache.New(engine, fab, []msg.NodeID{nodeTCC}, nodeDir, fm, gpucache.Config{
		NumCUs: 1, NumTCCs: 1,
		TCPSizeBytes: 64, TCPAssoc: 1,
		TCCSizeBytes: 128, TCCAssoc: 1,
		SQCSizeBytes: 64, SQCAssoc: 1,
		BlockSize: 64, TCPLatency: 1, TCCLatency: 1, SQCLatency: 1,
	}, reg.Scope("gpu"))
	dirEntries := sc.DirEntries
	if dirEntries == 0 {
		dirEntries = 16
	}
	h.dir = core.NewDirectory(engine, fab, cmem, fm, core.DirectoryConfig{
		ID: nodeDir, L2s: []msg.NodeID{nodeL2A, nodeL2B}, TCCs: []msg.NodeID{nodeTCC},
		Opts:   opts,
		Timing: core.Timing{DirLatency: 1, LLCLatency: 1},
		Geo: core.Geometry{
			LLCSizeBytes: 128, LLCAssoc: 1, // 2 sets, conflicts with the L2 pattern
			DirEntries: dirEntries, DirAssoc: 1, BlockSize: 64,
		},
	}, reg.Scope("dir"), reg.Scope("llc"))
	fab.Register(nodeDir, h.dir)
	h.dma = dma.New(engine, fab, nodeDMA, nodeDir, reg.Scope("dma"))

	h.oracle = NewOracle(OracleConfig{
		Engine: engine,
		CPUs:   h.cpus,
		GPU:    h.gpu,
		Dir:    h.dir,
		Opts:   opts,
		Report: func(v *core.ProtocolViolation) {
			if h.violation == nil {
				h.violation = v
			}
		},
	})
	fab.onDeliver = h.oracle.OnDeliver

	// The directory reads the recorder from its Options copy; the other
	// controllers are wired explicitly, as in system.New. The checker
	// re-fires a transition whenever it replays a path through it (every
	// DFS child after the first), which inflates counts but leaves the
	// fired set — all coverage needs — exact.
	if r := opts.Recorder; r != nil {
		for _, cpu := range h.cpus {
			cpu.SetRecorder(r)
		}
		h.gpu.SetRecorder(r)
		h.dma.SetRecorder(r)
	}

	h.agents = []*agent{
		{name: "cpu0", ops: sc.CPU0},
		{name: "cpu1", ops: sc.CPU1},
		{name: "gpu", ops: sc.GPU},
		{name: "dma", ops: sc.DMA},
	}
	return h
}

// action is one schedulable checker choice.
type action struct {
	kind byte // 'm' deliver message, 'r' memory completion, 'o' issue op
	idx  int
}

// enabled lists the schedulable actions in a deterministic order. Every
// pending message is deliverable: the fabric guarantees no ordering at
// all, not even per link. The returned slice is the harness's reused
// buffer, overwritten by the next call.
func (h *harness) enabled() []action {
	out := h.acts[:0]
	for i := range h.fab.pending {
		out = append(out, action{'m', i})
	}
	for i := range h.mem.pending {
		out = append(out, action{'r', i})
	}
	for i, ag := range h.agents {
		if !ag.inflight && ag.next < len(ag.ops) {
			out = append(out, action{'o', i})
		}
	}
	h.acts = out
	return out
}

// describe renders an action for counterexample traces.
func (h *harness) describe(a action) string {
	switch a.kind {
	case 'm':
		return "deliver " + h.fab.pending[a.idx].String()
	case 'r':
		return fmt.Sprintf("mem done addr=%#x", uint64(h.mem.pending[a.idx].addr))
	default:
		ag := h.agents[a.idx]
		op := ag.ops[ag.next]
		return fmt.Sprintf("%s issues %s %#x", ag.name, op.Kind, uint64(op.Line))
	}
}

// perform executes one action and drains the engine. Defensive panics
// inside the controllers become recorded violations.
func (h *harness) perform(a action, drainBudget int) {
	defer func() {
		if r := recover(); r != nil {
			if h.violation == nil {
				h.violation = asViolation(r)
			}
		}
	}()
	switch a.kind {
	case 'm':
		h.fab.deliver(a.idx)
	case 'r':
		h.mem.deliver(a.idx)
	default:
		h.issue(a.idx)
	}
	h.drain(drainBudget)
}

// drain runs engine events up to budget. Exhausting the budget with no
// external action left to unblock progress is a livelock.
func (h *harness) drain(budget int) {
	for i := 0; i < budget; i++ {
		// The harness sets neither MaxTicks nor Interrupt, so Step can
		// only error on those — treat one as a harness bug.
		ok, err := h.engine.Step()
		if err != nil {
			panic(err)
		}
		if !ok {
			return
		}
		if h.violation != nil {
			return
		}
	}
	if len(h.fab.pending) == 0 && len(h.mem.pending) == 0 && h.violation == nil {
		h.violation = &core.ProtocolViolation{
			Rule:  "livelock",
			Cycle: h.engine.Now(),
			Detail: fmt.Sprintf("engine still busy after %d events with no pending message or memory completion to unblock it",
				budget),
		}
	}
}

// issue starts agent ai's next operation.
func (h *harness) issue(ai int) {
	ag := h.agents[ai]
	op := ag.ops[ag.next]
	ag.inflight = true
	fin := func() {
		ag.inflight = false
		ag.next++
	}
	if ai < 2 { // CPU agents
		cp := h.cpus[ai]
		node := cp.NodeID()
		switch op.Kind {
		case Load:
			tok := h.oracle.LoadIssued(node, op.Line)
			cp.Access(0, corepair.Load, op.Line, func() {
				h.oracle.LoadRetired(node, op.Line, tok)
				fin()
			})
		case Store:
			cp.Access(0, corepair.Store, op.Line, func() {
				h.fm.Write(memdata.Addr(op.Line)<<6, uint64(ag.next)+1)
				h.oracle.StoreRetired(node, op.Line)
				fin()
			})
		case Atomic:
			cp.Access(0, corepair.RMW, op.Line, func() {
				h.fm.RMW(memdata.Addr(op.Line)<<6, memdata.AtomicAdd, 1, 0)
				h.oracle.StoreRetired(node, op.Line)
				fin()
			})
		case IFetch:
			// An instruction fetch is a data-free shared read (RdBlkS);
			// the oracle's value check has nothing to verify.
			cp.Access(0, corepair.IFetch, op.Line, fin)
		}
		return
	}
	if ai == 2 {
		switch op.Kind { // GPU agent: VIPER semantics, loads unchecked
		case Load:
			h.gpu.ReadLine(0, op.Line, fin)
		case Store:
			h.gpu.WriteLine(0, op.Line, fin)
		case Atomic:
			h.gpu.AtomicSystem(0, op.Line, memdata.Addr(op.Line)<<6, memdata.AtomicAdd, 1, 0,
				func(uint64) { fin() })
		default:
			panic("verify: GPU agents have no instruction-fetch operation")
		}
		return
	}
	switch op.Kind { // DMA agent: uncached line-granular transfers
	case Load:
		h.dma.ReadBlock(op.Line, fin)
	case Store:
		h.dma.WriteBlock(op.Line, fin)
	default:
		panic("verify: DMA agents have no atomic operation")
	}
}

func (h *harness) allDone() bool {
	for _, ag := range h.agents {
		if !ag.done() {
			return false
		}
	}
	return true
}

// fingerprint encodes the complete explorable state: per-line cache,
// victim-buffer, MSHR, TCC, directory and LLC state; agent progress;
// the pending message multiset; pending memory completions; and the
// engine backlog. Oracle versions are deliberately excluded (they grow
// monotonically and would defeat revisit pruning); they are an
// abstraction layered on top of the protocol state, not part of it.
//
// The key is injective: every field is fixed-width and each
// variable-length list is prefixed by its length. The returned slice is
// the harness's reused buffer, overwritten by the next call.
func (h *harness) fingerprint() []byte {
	b := h.key[:0]
	for _, line := range h.lines {
		for _, cp := range h.cpus {
			wb, wbd := cp.WBState(line)
			b = append(b, byte(cp.L2State(line)), flags(wb, wbd))
			b = appendInt(b, cp.MSHRWaiters(line))
			b = appendInt(b, cp.WBWaiters(line))
		}
		mw, wt, at := h.gpu.PendingLine(line)
		b = append(b, flags(h.gpu.TCCHas(line), h.gpu.TCCDirty(line)))
		b = appendInt(appendInt(appendInt(b, mw), wt), at)
		dr, dw := h.dma.Pending(line)
		b = appendInt(appendInt(b, dr), dw)
		b = h.dir.AppendLineKey(b, line)
	}
	for _, ag := range h.agents {
		b = append(appendInt(b, ag.next), flags(ag.inflight))
	}
	// Unordered delivery: the pending multiset is the state, its order
	// is free.
	msgs := append(h.msgs[:0], h.fab.pending...)
	slices.SortFunc(msgs, cmpMsg)
	b = appendInt(b, len(msgs))
	for _, m := range msgs {
		b = append(b, byte(m.Type))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Addr))
		b = appendInt(appendInt(b, int(m.Src)), int(m.Dst))
		b = append(b, byte(m.Grant), flags(m.HasData, m.Dirty, m.Retain))
		b = binary.LittleEndian.AppendUint64(b, m.TxnID)
	}
	mems := h.mems[:0]
	for _, p := range h.mem.pending {
		mems = append(mems, uint64(p.addr))
	}
	slices.Sort(mems)
	b = appendInt(b, len(mems))
	for _, a := range mems {
		b = binary.LittleEndian.AppendUint64(b, a)
	}
	b = appendInt(b, h.engine.Pending())
	h.key, h.msgs, h.mems = b, msgs, mems
	return b
}

// cmpMsg totally orders messages by every field fingerprint encodes.
func cmpMsg(a, b *msg.Message) int {
	return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst),
		cmp.Compare(a.Type, b.Type),
		cmp.Compare(a.Addr, b.Addr),
		cmp.Compare(a.Grant, b.Grant),
		cmp.Compare(flags(a.HasData, a.Dirty, a.Retain), flags(b.HasData, b.Dirty, b.Retain)),
		cmp.Compare(a.TxnID, b.TxnID))
}

// appendInt appends v as a fixed-width 8-byte field.
func appendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// flags packs up to eight booleans into one byte, first argument lowest.
func flags(fs ...bool) byte {
	var f byte
	for i, v := range fs {
		if v {
			f |= 1 << i
		}
	}
	return f
}

// asViolation converts a recovered panic value into a violation.
func asViolation(r interface{}) *core.ProtocolViolation {
	if v, ok := r.(*core.ProtocolViolation); ok {
		return v
	}
	return &core.ProtocolViolation{Rule: "panic", Detail: fmt.Sprint(r)}
}
