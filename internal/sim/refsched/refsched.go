// Package refsched preserves the original binary-heap discrete-event
// scheduler as a test-only reference oracle. It is the seed
// implementation of internal/sim, kept verbatim apart from the dropped
// Ticker helper (container/heap over (tick, seq)-ordered events,
// closures only, no pooling) so the differential suite in internal/sim
// can assert that the calendar-queue engine executes randomized
// Schedule/At/Cancel/Stop programs in exactly the same (tick, seq)
// order.
//
// Nothing outside *_test.go files may import this package; production
// code uses internal/sim. The one intentional semantic difference from
// the seed is documented on Step: like the seed it ignores MaxTicks and
// never polls Interrupt, which is precisely the Run/Step inconsistency
// the calendar engine fixed — the differential harness accounts for it.
package refsched

import (
	"container/heap"
	"errors"
	"fmt"
)

// ErrInterrupted mirrors sim.ErrInterrupted.
var ErrInterrupted = errors.New("refsched: interrupted")

// interruptPollInterval matches the sim engine's poll cadence.
const interruptPollInterval = 4096

// Tick is the simulation time unit (same meaning as sim.Tick).
type Tick uint64

// Event is a unit of scheduled work.
type Event struct {
	when Tick
	seq  uint64
	fn   func()
}

// When reports the tick at which the event fires.
func (e *Event) When() Tick { return e.when }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is the reference discrete-event scheduler.
type Engine struct {
	now     Tick
	seq     uint64
	queue   eventHeap
	stopped bool

	// MaxTicks aborts the run when exceeded (0 means no limit).
	MaxTicks Tick

	// Interrupt, when non-nil, is polled between events by Run.
	Interrupt <-chan struct{}

	executed uint64
}

// NewEngine returns an empty engine at tick 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation tick.
func (e *Engine) Now() Tick { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Schedule runs fn after delay ticks (0 means "later this tick", after
// events already queued for the current tick).
func (e *Engine) Schedule(delay Tick, fn func()) *Event {
	ev := &Event{when: e.now + delay, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// At runs fn at absolute tick t, which must not be in the past.
func (e *Engine) At(t Tick, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("refsched: scheduling at %d before now %d", t, e.now))
	}
	ev := &Event{when: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of queued events (cancelled entries count
// until they are popped, matching the seed semantics).
func (e *Engine) Pending() int { return len(e.queue) }

// Run executes events until the queue drains, Stop is called, or
// MaxTicks is exceeded.
func (e *Engine) Run() error {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.fn == nil { // cancelled
			continue
		}
		e.now = ev.when
		if e.MaxTicks != 0 && e.now > e.MaxTicks {
			return fmt.Errorf("refsched: exceeded MaxTicks=%d with %d events pending", e.MaxTicks, len(e.queue)+1)
		}
		fn := ev.fn
		ev.fn = nil
		fn()
		e.executed++
		if e.Interrupt != nil && e.executed%interruptPollInterval == 0 {
			select {
			case <-e.Interrupt:
				return fmt.Errorf("%w at tick %d with %d events pending", ErrInterrupted, e.now, len(e.queue))
			default:
			}
		}
	}
	return nil
}

// Step executes exactly one event (skipping cancelled entries) and
// returns true, or returns false when the queue is empty. As in the
// seed, Step does NOT enforce MaxTicks and never polls Interrupt; the
// calendar engine unified this, so differential programs that exercise
// Step must not set either.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.fn == nil { // cancelled
			continue
		}
		e.now = ev.when
		fn := ev.fn
		ev.fn = nil
		fn()
		e.executed++
		return true
	}
	return false
}

// Cancel prevents a scheduled event from firing. Safe to call on events
// that already fired.
func (e *Engine) Cancel(ev *Event) {
	if ev != nil {
		ev.fn = nil
	}
}
