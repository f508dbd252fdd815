// Package prog defines the workload programming model: CPU threads and
// GPU wavefronts written as ordinary Go functions that issue memory
// operations through a context object.
//
// Each thread/wavefront is a coroutine (iter.Pull) resumed by its
// executor on the simulation goroutine: NextOp runs the workload until
// it issues its next operation, Complete stores that operation's
// result, and the following NextOp hands the result back. No workload
// code runs between those calls, so execution is as deterministic as
// the single-threaded event loop itself. Loads observe the
// functional memory at their completion time; atomics read-modify-write
// at their serialization point (L2 ownership for CPU atomics, TCC or
// directory for GPU atomics), matching the visibility model of the
// simulated protocol.
package prog

import (
	"fmt"

	"hscsim/internal/memdata"
)

// errAborted is panicked through a workload's stack when a simulation
// is torn down early.
var errAborted = fmt.Errorf("prog: workload aborted")

// OpKind identifies a CPU thread operation.
type OpKind uint8

// CPU thread operation kinds.
const (
	OpLoad OpKind = iota
	OpStore
	OpAtomic
	OpCompute
	OpLaunch // enqueue a GPU kernel
	OpWait   // wait for a kernel handle to complete
	OpDMA    // host-initiated DMA stream
)

// Op is one CPU-thread operation, delivered to the executing core.
type Op struct {
	Kind    OpKind
	Addr    memdata.Addr
	Value   uint64
	AOp     memdata.AtomicOp
	Compare uint64
	Cycles  uint64
	Kernel  *Kernel
	Handle  *KernelHandle
	// DMA stream parameters.
	DMABytes int
	DMAWrite bool
}

// CPUThread is the context a workload CPU-thread function runs against.
type CPUThread struct {
	coroutine[Op, uint64]
	id int
}

// NewCPUThread wraps fn as a coroutine and returns the context the
// executor pulls operations from. fn does not run until the first
// NextOp and must communicate with the simulation only through the
// context's methods.
func NewCPUThread(id int, fn func(*CPUThread)) *CPUThread {
	t := &CPUThread{id: id}
	t.start(func() { fn(t) })
	return t
}

// ID returns the thread's index.
func (t *CPUThread) ID() int { return t.id }

// Load reads the 64-bit word at a.
func (t *CPUThread) Load(a memdata.Addr) uint64 { return t.do(Op{Kind: OpLoad, Addr: a}) }

// Store writes v to the word at a.
func (t *CPUThread) Store(a memdata.Addr, v uint64) { t.do(Op{Kind: OpStore, Addr: a, Value: v}) }

// Atomic performs a CPU atomic read-modify-write, returning the old value.
func (t *CPUThread) Atomic(op memdata.AtomicOp, a memdata.Addr, operand, compare uint64) uint64 {
	return t.do(Op{Kind: OpAtomic, Addr: a, AOp: op, Value: operand, Compare: compare})
}

// AtomicAdd adds delta to the word at a, returning the old value.
func (t *CPUThread) AtomicAdd(a memdata.Addr, delta uint64) uint64 {
	return t.Atomic(memdata.AtomicAdd, a, delta, 0)
}

// AtomicCAS compares-and-swaps the word at a, returning the old value.
func (t *CPUThread) AtomicCAS(a memdata.Addr, expect, desired uint64) uint64 {
	return t.Atomic(memdata.AtomicCAS, a, desired, expect)
}

// AtomicExch swaps v into the word at a, returning the old value.
func (t *CPUThread) AtomicExch(a memdata.Addr, v uint64) uint64 {
	return t.Atomic(memdata.AtomicExch, a, v, 0)
}

// Compute advances the thread by the given number of CPU cycles.
func (t *CPUThread) Compute(cycles uint64) { t.do(Op{Kind: OpCompute, Cycles: cycles}) }

// SpinUntil polls the word at a until pred holds, backing off a few
// cycles between polls (the shape of CHAI's flag-based synchronization).
func (t *CPUThread) SpinUntil(a memdata.Addr, pred func(uint64) bool) uint64 {
	for {
		v := t.Load(a)
		if pred(v) {
			return v
		}
		t.Compute(64)
	}
}

// Launch enqueues a GPU kernel and returns a completion handle.
func (t *CPUThread) Launch(k *Kernel) *KernelHandle {
	h := &KernelHandle{}
	t.do(Op{Kind: OpLaunch, Kernel: k, Handle: h})
	return h
}

// Wait blocks the thread until the kernel behind h completes.
func (t *CPUThread) Wait(h *KernelHandle) { t.do(Op{Kind: OpWait, Handle: h}) }

// DMAIn streams length bytes at base from a device into memory (DMAWr
// requests at the directory), blocking until the transfer completes.
func (t *CPUThread) DMAIn(base memdata.Addr, length int) {
	t.do(Op{Kind: OpDMA, Addr: base, DMABytes: length, DMAWrite: true})
}

// DMAOut streams length bytes at base from memory to a device (DMARd
// requests at the directory), blocking until the transfer completes.
func (t *CPUThread) DMAOut(base memdata.Addr, length int) {
	t.do(Op{Kind: OpDMA, Addr: base, DMABytes: length, DMAWrite: false})
}
