package core

import (
	"encoding/binary"
	"fmt"
	"strings"

	"hscsim/internal/cachearray"
	"hscsim/internal/memdata"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/sim"
	"hscsim/internal/stats"
)

// Directory is the system-level directory controller. It services
// requests from the CorePair L2s, the TCC and the DMA engine, probes the
// processor caches, and manages the LLC and the main-memory interface
// (the only path to memory in the system).
type Directory struct {
	engine  *sim.Engine
	ic      noc.Fabric
	mem     MemPort
	funcMem *memdata.Memory
	opts    Options
	timing  Timing

	id      msg.NodeID
	l2s     []msg.NodeID // CPU probe targets
	tccIDs  []msg.NodeID // TCC bank nodes (Table III configures 1)
	targets []msg.NodeID // l2s + TCCs, in probe-index order

	llc    *llc
	dirArr *cachearray.Array[dirEntry] // nil when Tracking == TrackNone

	txns     map[cachearray.LineAddr]*txn
	pend     map[cachearray.LineAddr][]*msg.Message //hsclint:stallqueue — drained by drainPending on txn completion
	nextID   uint64
	roRanges []LineRange

	// Statistics.
	requests    *stats.Counter
	probesSent  *stats.Counter
	acksRecv    *stats.Counter
	earlyResps  *stats.Counter
	dirEvicts   *stats.Counter
	backInvals  *stats.Counter
	probeElided *stats.Counter
	staleVics   *stats.Counter
	allocStalls *stats.Counter
	flushes     *stats.Counter
	atomics     *stats.Counter
	wts         *stats.Counter
	roElided    *stats.Counter
	txnLatency  *stats.Histogram
}

// dirState is a stable state of the tracking directory (§IV-A). Absence
// of an entry is state I.
type dirState uint8

// Directory entry stable states.
const (
	dirS dirState = iota // cached clean; LLC/memory coherent
	dirO                 // modified/owned/exclusive in a processor cache
)

func (s dirState) String() string {
	if s == dirO {
		return "O"
	}
	return "S"
}

// dirEntry is the per-line tracking state.
type dirEntry struct {
	State    dirState
	Owner    int8   // probe-target index; -1 when none
	Sharers  uint64 // bitmap over probe-target indexes
	Overflow bool   // limited-pointer list overflowed: broadcast invals
	Busy     bool   // entry eviction (backward invalidation) in flight
}

func (e *dirEntry) sharerCount() int {
	n := 0
	for b := e.Sharers; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// DirectoryConfig wires a Directory into the system.
type DirectoryConfig struct {
	ID     msg.NodeID
	L2s    []msg.NodeID
	TCCs   []msg.NodeID // one node per TCC bank
	Opts   Options
	Timing Timing
	Geo    Geometry
}

// NewDirectory creates the directory, its LLC, and (in tracking modes)
// the directory cache.
func NewDirectory(engine *sim.Engine, ic noc.Fabric, mem MemPort,
	fm *memdata.Memory, cfg DirectoryConfig, sc *stats.Scope, llcScope *stats.Scope) *Directory {

	d := &Directory{
		engine:  engine,
		ic:      ic,
		mem:     mem,
		funcMem: fm,
		opts:    cfg.Opts,
		timing:  cfg.Timing,
		id:      cfg.ID,
		l2s:     append([]msg.NodeID(nil), cfg.L2s...),
		tccIDs:  append([]msg.NodeID(nil), cfg.TCCs...),
		llc:     newLLC(cfg.Geo, cfg.Opts, mem, llcScope),
		txns:    make(map[cachearray.LineAddr]*txn),
		pend:    make(map[cachearray.LineAddr][]*msg.Message),

		requests:    sc.Counter("requests"),
		probesSent:  sc.Counter("probes_sent"),
		acksRecv:    sc.Counter("probe_acks"),
		earlyResps:  sc.Counter("early_responses"),
		dirEvicts:   sc.Counter("entry_evictions"),
		backInvals:  sc.Counter("backward_inval_probes"),
		probeElided: sc.Counter("probe_free_transactions"),
		staleVics:   sc.Counter("stale_victims"),
		allocStalls: sc.Counter("alloc_stalls"),
		flushes:     sc.Counter("flushes"),
		atomics:     sc.Counter("atomics"),
		wts:         sc.Counter("write_throughs"),
		roElided:    sc.Counter("readonly_elided"),
		txnLatency:  sc.Histogram("txn_latency"),
	}
	d.targets = append(append([]msg.NodeID(nil), d.l2s...), d.tccIDs...)
	if cfg.Opts.Tracking != TrackNone {
		entries := cfg.Geo.DirEntries
		d.dirArr = cachearray.New[dirEntry](cachearray.Config{
			SizeBytes: entries, // 1 byte per entry (Table II)
			Assoc:     cfg.Geo.DirAssoc,
			BlockSize: 1,
		}, nil)
	}
	return d
}

// isTCC reports whether a node is one of the TCC banks.
func (d *Directory) isTCC(n msg.NodeID) bool {
	for _, t := range d.tccIDs {
		if t == n {
			return true
		}
	}
	return false
}

// targetIndex maps a node to its probe-target index.
func (d *Directory) targetIndex(n msg.NodeID) int {
	for i, t := range d.targets {
		if t == n {
			return i
		}
	}
	return -1
}

// txn is one in-flight directory transaction. The directory serializes
// transactions per line: while a txn exists for a line, later requests
// stall in d.pend (the paper's blocked B/_PM/_Pm/_M states).
type txn struct {
	id    uint64
	req   *msg.Message
	addr  cachearray.LineAddr
	start sim.Tick

	pendingAcks   int
	dataFromCache bool // some probe ack carried data
	dirtyAck      bool // some probe ack carried dirty data
	downgrade     bool // probes were downgrading (early-resp eligible)

	needData  bool // a data payload must be sourced for the response
	memIssued bool // LLC/memory read in flight
	memDone   bool

	responded   bool
	completed   bool
	needUnblock bool
	unblocked   bool
	forceShared bool // tracked S-state reads are forced to a Shared grant

	// onData runs once when the response data/acks are resolved, before
	// the response is sent (atomic RMW, WT commits, entry updates).
	onData func()
	// extraLatency delays the response (e.g. displaced-dirty LLC lines).
	extraLatency sim.Tick

	eviction bool // this txn is a directory-entry backward invalidation
}

// Receive implements noc.Handler. Request messages are Held (the
// directory keeps them as txn.req or in d.pend until complete); acks
// and unblocks are consumed in place.
//
//msgown:owns m
func (d *Directory) Receive(m *msg.Message) {
	switch m.Type {
	case msg.PrbAck:
		d.handleAck(m)
	case msg.Unblock:
		d.handleUnblock(m)
	default:
		if !m.Type.IsRequest() {
			d.violate("dispatch", m.Addr, m.TxnID, m, "directory received a non-request message")
		}
		d.enqueue(m)
	}
}

func (d *Directory) enqueue(m *msg.Message) {
	// The directory retains every request message — as t.req for the
	// life of its transaction, or queued in d.pend — so take ownership
	// from the fabric here and release it in complete.
	m.Hold()
	if _, busy := d.txns[m.Addr]; busy {
		d.pend[m.Addr] = append(d.pend[m.Addr], m)
		return
	}
	d.start(m)
}

func (d *Directory) start(m *msg.Message) {
	d.requests.Inc()
	t := &txn{id: d.nextID, req: m, addr: m.Addr, start: d.engine.Now()}
	d.nextID++
	d.txns[m.Addr] = t
	// The directory-cache/transaction-table access costs DirLatency.
	d.engine.Post(d.timing.DirLatency, d, dirKindBegin, 0, t)
}

func (d *Directory) begin(t *txn) {
	if d.isReadOnly(t.addr) {
		d.beginReadOnly(t)
		return
	}
	if d.opts.Tracking == TrackNone {
		d.beginStateless(t)
	} else {
		d.beginTracked(t)
	}
}

// ---------------------------------------------------------------------
// Stateless baseline (§II-D): every permission request broadcasts probes
// and reads the LLC (falling back to memory).

func (d *Directory) beginStateless(t *txn) {
	m := t.req
	switch m.Type {
	case msg.RdBlk, msg.RdBlkS, msg.RdBlkM:
		d.opts.Recorder.Record(machStateless, "-", m.Type.String(), "-") //proto:events RdBlk,RdBlkS,RdBlkM //proto:actions broadcast probes, read LLC/mem, grant //proto:emits PrbInv,PrbDowngrade,Resp
		t.needData = true
		t.needUnblock = !d.isTCC(m.Src)
		inv := m.Type == msg.RdBlkM
		t.downgrade = !inv
		d.sendProbes(t, inv, d.probeSet(inv, m.Src))
		d.issueRead(t)
		d.maybeProgress(t)

	case msg.VicDirty, msg.VicClean:
		d.opts.Recorder.Record(machStateless, "-", m.Type.String(), "-") //proto:events VicDirty,VicClean //proto:actions commit victim (dir.llc), WBAck //proto:emits WBAck
		d.commitVictim(t, m.Type == msg.VicDirty)
		d.respondAndFinish(t, msg.WBAck)

	case msg.WT:
		d.opts.Recorder.Record(machStateless, "-", "WT", "-") //proto:actions broadcast inv probes, commit WT (dir.llc), WBAck //proto:emits PrbInv,WBAck
		d.wts.Inc()
		d.sendProbes(t, true, d.probeSet(true, m.Src))
		t.onData = func() { t.extraLatency += d.commitWT(t.addr) }
		d.maybeProgress(t)

	case msg.Atomic:
		d.opts.Recorder.Record(machStateless, "-", "Atomic", "-") //proto:actions broadcast inv probes, RMW at directory, AtomicResp //proto:emits PrbInv,AtomicResp
		d.atomics.Inc()
		t.needData = true
		d.sendProbes(t, true, d.probeSet(true, m.Src))
		d.issueRead(t)
		t.onData = func() { d.commitAtomic(t) }
		d.maybeProgress(t)

	case msg.Flush:
		d.opts.Recorder.Record(machStateless, "-", "Flush", "-") //proto:actions FlushAck //proto:emits FlushAck
		d.flushes.Inc()
		d.respondAndFinish(t, msg.FlushAck)

	case msg.DMARd:
		d.opts.Recorder.Record(machStateless, "-", "DMARd", "-") //proto:actions broadcast downgrade probes, read LLC/mem //proto:emits PrbDowngrade,Resp
		t.needData = true
		t.downgrade = true
		d.sendProbes(t, false, d.probeSet(false, m.Src))
		d.issueRead(t)
		d.maybeProgress(t)

	case msg.DMAWr:
		d.opts.Recorder.Record(machStateless, "-", "DMAWr", "-") //proto:actions broadcast inv probes, write memory (dir.llc) //proto:emits PrbInv,WBAck
		d.sendProbes(t, true, d.probeSet(true, m.Src))
		t.onData = func() {
			// DMA writes do not update the L3 (§III-C); drop the stale copy.
			d.opts.Recorder.Record(machLLC, "-", "DMAWr", "mem") //proto:actions invalidate stale LLC copy, write memory
			d.llc.invalidate(t.addr)
			d.mem.Write(t.addr, nil)
		}
		d.maybeProgress(t)

	default:
		d.violate("dispatch", t.addr, t.id, m, "request type not handled by the stateless directory")
	}
}

// probeSet returns the stateless probe destinations: every L2 except the
// requester; invalidating probes also include the TCC (footnote 4).
func (d *Directory) probeSet(inv bool, requester msg.NodeID) []msg.NodeID {
	out := make([]msg.NodeID, 0, len(d.targets))
	for _, n := range d.l2s {
		if n != requester {
			out = append(out, n)
		}
	}
	if inv {
		for _, n := range d.tccIDs {
			if n != requester {
				out = append(out, n)
			}
		}
	}
	return out
}

func (d *Directory) sendProbes(t *txn, inv bool, dsts []msg.NodeID) {
	typ := msg.PrbDowngrade
	if inv {
		typ = msg.PrbInv
	}
	for _, dst := range dsts {
		d.probesSent.Inc()
		if t.eviction {
			d.backInvals.Inc()
		}
		pm := d.ic.Alloc()
		pm.Type, pm.Addr, pm.Src, pm.Dst, pm.TxnID = typ, t.addr, d.id, dst, t.id
		d.ic.Send(pm)
	}
	t.pendingAcks += len(dsts)
	if len(dsts) == 0 && !t.eviction {
		d.probeElided.Inc()
	}
}

// issueRead models the LLC read (LLCLatency) with fallback to memory.
func (d *Directory) issueRead(t *txn) {
	t.memIssued = true
	d.engine.Post(d.timing.LLCLatency, d, dirKindLLCRead, 0, t)
}

func (d *Directory) llcRead(t *txn) {
	if d.llc.read(t.addr) {
		t.memDone = true
		d.maybeProgress(t)
		return
	}
	d.mem.Read(t.addr, func() {
		t.memDone = true
		d.maybeProgress(t)
	})
}

// Directory event kinds (sim.Handler dispatch).
const (
	dirKindBegin   uint8 = iota // obj: *txn — transaction-table access done
	dirKindLLCRead              // obj: *txn — LLC array access done
	dirKindSend                 // obj: *msg.Message — delayed response send
)

// OnEvent implements sim.Handler for the directory's scheduled work, so
// the hot request path runs closure-free.
func (d *Directory) OnEvent(kind uint8, arg uint64, obj any) {
	switch kind {
	case dirKindBegin:
		d.begin(obj.(*txn))
	case dirKindLLCRead:
		d.llcRead(obj.(*txn))
	case dirKindSend:
		d.ic.Send(obj.(*msg.Message))
	}
}

func (d *Directory) handleAck(m *msg.Message) {
	t := d.txns[m.Addr]
	if t == nil || t.id != m.TxnID {
		have := "none"
		if t != nil {
			have = fmt.Sprintf("txn id=%d type=%s pendingAcks=%d", t.id, t.req.Type, t.pendingAcks)
		}
		d.violate("stray-probe-ack", m.Addr, m.TxnID, m, "ack for "+have)
	}
	d.acksRecv.Inc()
	t.pendingAcks--
	if m.HasData {
		t.dataFromCache = true
	}
	if m.Dirty {
		t.dirtyAck = true
	}
	d.maybeProgress(t)
}

func (d *Directory) handleUnblock(m *msg.Message) {
	t := d.txns[m.Addr]
	if t == nil {
		d.violate("stray-unblock", m.Addr, m.TxnID, m, "no transaction in flight for the line")
	}
	t.unblocked = true
	d.maybeProgress(t)
}

// maybeProgress advances a transaction: respond when the response
// conditions hold, complete when everything has drained.
func (d *Directory) maybeProgress(t *txn) {
	if t.eviction {
		if t.pendingAcks == 0 {
			d.finishEviction(t)
		}
		return
	}
	// Fallback data source: a probed owner turned out not to have the
	// line (its victim crossed our probe in flight and was already
	// drained); fetch from the LLC/memory instead.
	if !t.responded && t.pendingAcks == 0 && t.needData && !t.dataFromCache && !t.memIssued {
		d.issueRead(t)
	}
	if !t.responded && d.readyToRespond(t) {
		d.respond(t)
	}
	if t.responded && t.pendingAcks == 0 && (!t.memIssued || t.memDone) &&
		(!t.needUnblock || t.unblocked) {
		d.complete(t)
	}
}

func (d *Directory) readyToRespond(t *txn) bool {
	dataReady := !t.needData || t.dataFromCache || t.memDone
	if t.pendingAcks == 0 && (!t.memIssued || t.memDone) && dataReady {
		return true
	}
	// §III-A: on downgrading probes, the first dirty acknowledgment
	// already carries the authoritative data.
	if d.opts.EarlyDirtyResponse && t.downgrade && t.dirtyAck {
		return true
	}
	return false
}

func (d *Directory) respond(t *txn) {
	t.responded = true
	if d.opts.EarlyDirtyResponse && t.downgrade && t.dirtyAck &&
		(t.pendingAcks > 0 || (t.memIssued && !t.memDone)) {
		d.earlyResps.Inc()
	}
	if t.onData != nil {
		t.onData()
		t.onData = nil
	}
	resp := d.buildResponse(t)
	if t.extraLatency > 0 {
		d.engine.Post(t.extraLatency, d, dirKindSend, 0, resp)
	} else {
		d.ic.Send(resp)
	}
	d.maybeProgress(t)
}

func (d *Directory) buildResponse(t *txn) *msg.Message {
	m := t.req
	out := d.ic.Alloc()
	out.Addr, out.Src, out.Dst, out.TxnID, out.FromCache = t.addr, d.id, m.Src, t.id, t.dataFromCache
	switch m.Type {
	case msg.RdBlk:
		out.Type = msg.Resp
		out.Grant = t.grantForRdBlk()
	case msg.RdBlkS:
		out.Type = msg.Resp
		out.Grant = msg.GrantS
	case msg.RdBlkM:
		out.Type = msg.Resp
		out.Grant = msg.GrantM
	case msg.DMARd:
		out.Type = msg.Resp
		out.Grant = msg.GrantS
	case msg.VicDirty, msg.VicClean, msg.WT, msg.DMAWr:
		out.Type = msg.WBAck
	case msg.Atomic:
		out.Type = msg.AtomicResp
		out.Old = t.req.Old // filled by commitAtomic
	case msg.Flush:
		out.Type = msg.FlushAck
	default:
		d.violate("dispatch", t.addr, t.id, m, "no response defined for request type")
	}
	return out
}

// grantForRdBlk: Exclusive unless the data came from a peer cache or the
// tracked state forces Shared (t.forceShared set by the tracked path).
func (t *txn) grantForRdBlk() msg.Grant {
	if t.dataFromCache || t.forceShared {
		return msg.GrantS
	}
	return msg.GrantE
}

func (d *Directory) respondAndFinish(t *txn, typ msg.Type) {
	t.responded = true
	out := d.ic.Alloc()
	out.Type, out.Addr, out.Src, out.Dst, out.TxnID = typ, t.addr, d.id, t.req.Src, t.id
	if t.extraLatency > 0 {
		d.engine.Post(t.extraLatency, d, dirKindSend, 0, out)
	} else {
		d.ic.Send(out)
	}
	d.maybeProgress(t)
}

func (d *Directory) complete(t *txn) {
	if t.completed {
		return
	}
	t.completed = true
	if !t.eviction {
		d.txnLatency.Observe(uint64(d.engine.Now() - t.start))
	}
	delete(d.txns, t.addr)
	d.ic.Release(t.req)
	t.req = nil
	d.drainPending(t.addr)
}

func (d *Directory) drainPending(addr cachearray.LineAddr) {
	q := d.pend[addr]
	if len(q) == 0 {
		delete(d.pend, addr)
		return
	}
	next := q[0]
	if len(q) == 1 {
		delete(d.pend, addr)
	} else {
		d.pend[addr] = q[1:]
	}
	d.start(next)
}

// ---------------------------------------------------------------------
// Write commits shared by both directory organizations.

// commitVictim applies the LLC/memory write policy for an L2 victim
// (§III-B, §III-B1, §III-C) and charges any displaced-dirty penalty.
func (d *Directory) commitVictim(t *txn, dirty bool) {
	t.extraLatency += d.timing.LLCLatency
	if dirty {
		if d.opts.LLCWriteBack {
			d.opts.Recorder.Record(machLLC, "-", "VicDirty", "llc-dirty") //proto:when LLCWriteBack //proto:actions insert dirty LLC line, defer memory write
			if d.llc.insert(t.addr, true) {
				t.extraLatency += 8 // conflicting dirty LLC line on the critical path
			}
			return
		}
		d.opts.Recorder.Record(machLLC, "-", "VicDirty", "llc+mem") //proto:unless LLCWriteBack //proto:actions write-through LLC insert plus memory write
		d.llc.insert(t.addr, false)
		d.mem.Write(t.addr, nil)
		return
	}
	// Clean victim.
	switch {
	case d.opts.NoWBCleanVicToLLC:
		// Dropped entirely (§III-B1): "lost in the air".
		d.opts.Recorder.Record(machLLC, "-", "VicClean", "drop") //proto:when NoWBCleanVicToLLC //proto:actions drop clean victim
	case d.opts.LLCWriteBack:
		d.opts.Recorder.Record(machLLC, "-", "VicClean", "llc") //proto:when LLCWriteBack //proto:unless NoWBCleanVicToLLC //proto:actions insert clean LLC line, no memory write
		if d.llc.insert(t.addr, false) {
			t.extraLatency += 8
		}
	case d.opts.NoWBCleanVicToMem:
		d.opts.Recorder.Record(machLLC, "-", "VicClean", "llc") //proto:when NoWBCleanVicToMem //proto:unless NoWBCleanVicToLLC,LLCWriteBack //proto:actions insert clean LLC line, no memory write
		d.llc.insert(t.addr, false)
	default:
		d.opts.Recorder.Record(machLLC, "-", "VicClean", "llc+mem") //proto:unless NoWBCleanVicToLLC,LLCWriteBack,NoWBCleanVicToMem //proto:actions write-through LLC insert plus memory write
		d.llc.insert(t.addr, false)
		d.mem.Write(t.addr, nil)
	}
}

// commitWT applies a TCC write-through / atomic result write. Returns
// extra response latency for displaced dirty LLC lines.
func (d *Directory) commitWT(addr cachearray.LineAddr) sim.Tick {
	if d.opts.UseL3OnWT {
		if d.opts.LLCWriteBack {
			d.opts.Recorder.Record(machLLC, "-", "WT", "llc-dirty") //proto:when UseL3OnWT,LLCWriteBack //proto:actions insert dirty LLC line, defer memory write
			if d.llc.insert(addr, true) {
				return 8
			}
			return 0
		}
		// Write-through LLC: the LLC write also writes memory.
		d.opts.Recorder.Record(machLLC, "-", "WT", "llc+mem") //proto:when UseL3OnWT //proto:unless LLCWriteBack //proto:actions write-through LLC insert plus memory write
		d.llc.insert(addr, false)
		d.mem.Write(addr, nil)
		return 0
	}
	// Bypass: write memory directly; the LLC copy (if any) is stale.
	d.opts.Recorder.Record(machLLC, "-", "WT", "mem") //proto:unless UseL3OnWT //proto:actions invalidate stale LLC copy, write memory
	d.llc.invalidate(addr)
	d.mem.Write(addr, nil)
	return 0
}

// commitAtomic performs the system-scope read-modify-write at the
// directory (system-level visibility, §II-C) and writes the result.
func (d *Directory) commitAtomic(t *txn) {
	m := t.req
	m.Old = d.funcMem.RMW(m.WordAddr, m.AOp, m.Operand, m.Compare)
	t.extraLatency += d.commitWT(t.addr)
}

// Stats accessors used by the harness and tests.

// ProbesSent returns the number of probe messages the directory issued
// (Fig. 7's metric), including backward invalidations.
func (d *Directory) ProbesSent() uint64 { return d.probesSent.Value() }

// EarlyResponses returns how many §III-A early responses fired.
func (d *Directory) EarlyResponses() uint64 { return d.earlyResps.Value() }

// LLCReadHits returns LLC read hits.
func (d *Directory) LLCReadHits() uint64 { return d.llc.readHits.Value() }

// LLCHas reports whether the LLC holds addr (test hook).
func (d *Directory) LLCHas(addr cachearray.LineAddr) bool { return d.llc.present(addr) }

// LLCDirty reports whether the LLC holds addr dirty (test hook).
func (d *Directory) LLCDirty(addr cachearray.LineAddr) bool { return d.llc.dirtyLine(addr) }

// Idle reports whether the directory has no in-flight transactions.
func (d *Directory) Idle() bool { return len(d.txns) == 0 && len(d.pend) == 0 }

// LineBusy reports whether a transaction is in flight (or queued) for
// addr (checker/oracle hook: stable-state invariants are only asserted
// on quiescent lines).
func (d *Directory) LineBusy(addr cachearray.LineAddr) bool {
	return d.txns[addr] != nil || len(d.pend[addr]) > 0
}

// LineFingerprint renders the directory's complete per-line state —
// in-flight transaction flags, queued request types, tracking entry and
// LLC state — as a human-readable string for counterexample state
// dumps. AppendLineKey encodes the same fields for the model checker.
func (d *Directory) LineFingerprint(addr cachearray.LineAddr) string {
	var b strings.Builder
	if t := d.txns[addr]; t != nil {
		fmt.Fprintf(&b, "txn(%s,%d,a%d,r%t,c%t,mi%t,md%t,u%t,nu%t,nd%t,dfc%t,da%t,dg%t,fs%t,ev%t,id%d)",
			t.req.Type, t.req.Src, t.pendingAcks, t.responded, t.completed, t.memIssued, t.memDone,
			t.unblocked, t.needUnblock, t.needData, t.dataFromCache, t.dirtyAck, t.downgrade,
			t.forceShared, t.eviction, t.id)
	}
	for _, m := range d.pend[addr] {
		fmt.Fprintf(&b, "+%s<%d", m.Type, m.Src)
	}
	st, owner, sharers := d.EntryState(addr)
	fmt.Fprintf(&b, "|%s,%d,%#x", st, owner, sharers)
	fmt.Fprintf(&b, "|llc%t%t", d.llc.present(addr), d.llc.dirtyLine(addr))
	return b.String()
}

// AppendLineKey appends to b a binary encoding of exactly the fields
// LineFingerprint renders, and returns the extended slice. The model
// checker uses it as part of its visited-state key, so the encoding is
// injective: every field has a fixed width, and the one variable-length
// part (the queued requests) is prefixed by its count.
func (d *Directory) AppendLineKey(b []byte, addr cachearray.LineAddr) []byte {
	if t := d.txns[addr]; t != nil {
		var flags uint16
		for i, f := range [...]bool{t.responded, t.completed, t.memIssued, t.memDone, t.unblocked,
			t.needUnblock, t.needData, t.dataFromCache, t.dirtyAck, t.downgrade, t.forceShared, t.eviction} {
			if f {
				flags |= 1 << i
			}
		}
		b = append(b, 1, byte(t.req.Type))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.req.Src))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.pendingAcks))
		b = binary.LittleEndian.AppendUint16(b, flags)
		b = binary.LittleEndian.AppendUint64(b, t.id)
	} else {
		b = append(b, 0)
	}
	pend := d.pend[addr]
	b = binary.LittleEndian.AppendUint64(b, uint64(len(pend)))
	for _, m := range pend {
		b = append(b, byte(m.Type))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Src))
	}
	if d.dirArr == nil {
		b = append(b, 0) // untracked
	} else if ln := d.dirArr.Peek(addr); ln == nil {
		b = append(b, 1) // tracked, no entry
	} else {
		b = append(b, 2, byte(ln.Meta.State), byte(ln.Meta.Owner))
		b = binary.LittleEndian.AppendUint64(b, ln.Meta.Sharers)
	}
	var llc byte
	if d.llc.present(addr) {
		llc |= 1
	}
	if d.llc.dirtyLine(addr) {
		llc |= 2
	}
	return append(b, llc)
}
