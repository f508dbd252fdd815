// Differential suite: randomized Schedule/At/Cancel/Stop programs
// (plus self-rescheduling periodic events) executed against the
// calendar-queue engine and the retained seed binary heap
// (internal/sim/refsched), asserting identical (tick, seq) execution
// order — same-tick FIFO ties, cancel-after-pop, far-future overflow
// promotion, window growth, and mixed Run/Step driving all included.
// Schedule and At are closure adapters over PostAt, so this drives the
// engine's single dispatch path.
//
// The op interpreter consumes the program *from inside event handlers*
// (each fired event performs the next op), so scheduling, cancelling
// and stopping happen mid-run at arbitrary points, exactly like real
// components. The committed corpus under testdata/fuzz seeds go test
// -fuzz=FuzzSchedulerEquivalence with programs targeting each of those
// behaviors.
package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"hscsim/internal/sim/refsched"
)

// scheduler abstracts the two implementations under test.
type scheduler interface {
	schedule(d Tick, fn func()) (cancel func())
	at(t Tick, fn func()) (cancel func())
	stop()
	run() error
	step() bool
	now() Tick
	executed() uint64
	pending() int
}

// calClosure drives the calendar engine through Schedule/At closures.
type calClosure struct{ e *Engine }

func (c calClosure) schedule(d Tick, fn func()) func() {
	h := c.e.Schedule(d, fn)
	return func() { c.e.Cancel(h) }
}
func (c calClosure) at(t Tick, fn func()) func() {
	h := c.e.At(t, fn)
	return func() { c.e.Cancel(h) }
}
func (c calClosure) stop()      { c.e.Stop() }
func (c calClosure) run() error { return c.e.Run() }
func (c calClosure) step() bool {
	ok, err := c.e.Step()
	if err != nil {
		panic(err)
	}
	return ok
}
func (c calClosure) now() Tick        { return c.e.now }
func (c calClosure) executed() uint64 { return c.e.Executed() }
func (c calClosure) pending() int     { return c.e.Pending() }

// refHeap drives the seed binary-heap oracle.
type refHeap struct{ e *refsched.Engine }

func (r refHeap) schedule(d Tick, fn func()) func() {
	ev := r.e.Schedule(refsched.Tick(d), fn)
	return func() { r.e.Cancel(ev) }
}
func (r refHeap) at(t Tick, fn func()) func() {
	ev := r.e.At(refsched.Tick(t), fn)
	return func() { r.e.Cancel(ev) }
}
func (r refHeap) stop()            { r.e.Stop() }
func (r refHeap) run() error       { return r.e.Run() }
func (r refHeap) step() bool       { return r.e.Step() }
func (r refHeap) now() Tick        { return Tick(r.e.Now()) }
func (r refHeap) executed() uint64 { return r.e.Executed() }
func (r refHeap) pending() int     { return r.e.Pending() }

// A program is a byte string decoded 3 bytes per op.
const (
	opSchedule = iota // schedule(delay, logging event); delay may be far-future
	opAt              // at(now + offset)
	opCancel          // cancel the (a<<8|b)-th handle issued so far (fired or not)
	opTicker          // periodic event every 1+a%60 ticks, firing max(1, b%6) times
	opStop            // stop the current run (rare: only when b%4 == 0)
	opZero            // schedule(0): same-tick FIFO behind already-queued events
	opFar             // schedule far beyond the window: overflow + promotion
	numOps
)

type progOp struct {
	kind byte
	a, b byte
}

func decodeProgram(data []byte) []progOp {
	var ops []progOp
	for i := 0; i+2 < len(data) && len(ops) < 400; i += 3 {
		ops = append(ops, progOp{data[i] % numOps, data[i+1], data[i+2]})
	}
	return ops
}

// progState interprets a program on one scheduler, consuming ops from
// inside fired events and logging every observable transition.
type progState struct {
	s       scheduler
	ops     []progOp
	pc      int
	nextID  int
	cancels []func()
	log     []string
}

func (p *progState) fire(id int) func() {
	return func() {
		p.log = append(p.log, fmt.Sprintf("e%d@%d", id, p.s.now()))
		p.doOp()
	}
}

// doOp consumes and performs the next op, if any.
func (p *progState) doOp() {
	if p.pc >= len(p.ops) {
		return
	}
	op := p.ops[p.pc]
	p.pc++
	a, b := Tick(op.a), Tick(op.b)
	switch op.kind {
	case opSchedule:
		id := p.nextID
		p.nextID++
		p.cancels = append(p.cancels, p.s.schedule(a%97, p.fire(id)))
	case opAt:
		id := p.nextID
		p.nextID++
		p.cancels = append(p.cancels, p.s.at(p.s.now()+a%211, p.fire(id)))
	case opCancel:
		if len(p.cancels) > 0 {
			p.cancels[(int(op.a)<<8|int(op.b))%len(p.cancels)]()
		}
	case opTicker:
		id := p.nextID
		p.nextID++
		period, limit, n := 1+a%60, int(op.b%6), 0
		var tick func()
		tick = func() {
			p.log = append(p.log, fmt.Sprintf("t%d@%d", id, p.s.now()))
			p.doOp()
			if n++; n < limit {
				p.s.schedule(period, tick)
			}
		}
		p.s.schedule(period, tick)
	case opStop:
		if op.b%4 == 0 {
			p.log = append(p.log, fmt.Sprintf("stop@%d", p.s.now()))
			p.s.stop()
		}
	case opZero:
		id := p.nextID
		p.nextID++
		p.cancels = append(p.cancels, p.s.schedule(0, p.fire(id)))
	case opFar:
		// Far enough to cross the initial window (256) and, when
		// bursty, to trigger adaptive window growth; ties on (a,b)
		// exercise same-tick FIFO inside promoted buckets.
		id := p.nextID
		p.nextID++
		p.cancels = append(p.cancels, p.s.schedule(300+a*89+b, p.fire(id)))
	}
}

// runProgram executes a decoded program to completion, alternating Run
// phases with Step bursts so both driving modes are compared.
func runProgram(s scheduler, ops []progOp) *progState {
	p := &progState{s: s, ops: ops}
	for round := 0; round < 200; round++ {
		if p.pc >= len(p.ops) && s.pending() == 0 {
			break
		}
		if s.pending() == 0 {
			// Prime the queue: consume ops directly until something is
			// scheduled (cancels/stops consumed here act immediately).
			for i := 0; i < 8 && s.pending() == 0 && p.pc < len(p.ops); i++ {
				p.doOp()
			}
			if s.pending() == 0 {
				continue
			}
		}
		if round%3 == 2 {
			for i := 0; i < 5 && p.s.step(); i++ {
			}
			p.log = append(p.log, fmt.Sprintf("stepped@%d", s.now()))
		} else {
			err := s.run()
			p.log = append(p.log, fmt.Sprintf("ran:%v@%d", err != nil, s.now()))
		}
	}
	return p
}

// checkEquivalence runs one program on both implementations and fails
// on any observable divergence.
func checkEquivalence(t *testing.T, data []byte) {
	t.Helper()
	ops := decodeProgram(data)
	if len(ops) == 0 {
		return
	}
	ref := runProgram(refHeap{refsched.NewEngine()}, ops)
	cal := runProgram(calClosure{NewEngine()}, ops)

	if len(cal.log) != len(ref.log) {
		t.Fatalf("calendar: %d log entries, reference %d\ncalendar: %v\nref: %v",
			len(cal.log), len(ref.log), cal.log, ref.log)
	}
	for i := range ref.log {
		if cal.log[i] != ref.log[i] {
			t.Fatalf("calendar diverges at entry %d: %q vs reference %q\ncalendar: %v\nref: %v",
				i, cal.log[i], ref.log[i], cal.log, ref.log)
		}
	}
	if cal.s.now() != ref.s.now() || cal.s.executed() != ref.s.executed() || cal.s.pending() != ref.s.pending() {
		t.Fatalf("calendar final state (now=%d exec=%d pend=%d) != reference (now=%d exec=%d pend=%d)",
			cal.s.now(), cal.s.executed(), cal.s.pending(),
			ref.s.now(), ref.s.executed(), ref.s.pending())
	}
}

// FuzzSchedulerEquivalence is the fuzz entry; the committed corpus in
// testdata/fuzz/FuzzSchedulerEquivalence pins programs for same-tick
// ties, cancel-after-pop, overflow promotion, window growth, periodic
// events, and stop/step interleavings. CI runs it for 10s per push.
func FuzzSchedulerEquivalence(f *testing.F) {
	// Same-tick FIFO: many schedules with identical delays.
	f.Add([]byte{0, 7, 0, 0, 7, 0, 0, 7, 0, 5, 0, 0, 5, 0, 0, 0, 7, 0})
	// Cancel storm, including handles that already fired.
	f.Add([]byte{0, 3, 0, 0, 9, 0, 2, 0, 0, 2, 0, 1, 0, 5, 0, 2, 0, 0, 2, 0, 3})
	// Far-future overflow promotion with ties.
	f.Add([]byte{6, 10, 4, 6, 10, 4, 6, 200, 9, 0, 1, 0, 6, 10, 4})
	// Periodic events and a stop mid-run.
	f.Add([]byte{3, 9, 5, 3, 30, 3, 0, 40, 0, 4, 0, 0, 0, 2, 0})
	// Mixed everything.
	f.Add([]byte{0, 96, 1, 6, 255, 255, 1, 200, 0, 3, 59, 5, 2, 0, 2, 5, 0, 0, 4, 0, 4, 6, 0, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEquivalence(t, data)
	})
}

// TestSchedulerDifferentialRandom is the always-on (non-fuzz) slice of
// the differential suite: 300 seeded random programs per run.
func TestSchedulerDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7)) //hsclint:deterministic — fixed seed
	for i := 0; i < 300; i++ {
		n := 9 + rng.Intn(120)*3
		data := make([]byte, n)
		rng.Read(data)
		checkEquivalence(t, data)
	}
}
