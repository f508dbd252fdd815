//go:build go1.23

package prog

import "iter"

// coroutine runs one workload function as an iter.Pull coroutine that
// issues ops of type O and receives results of type R. The executor
// resumes it with NextOp; the workload runs on the executor's goroutine
// until its next op suspends it, so exactly one side runs at a time and
// the handoff is a direct coroutine switch with no channel or scheduler
// involvement.
type coroutine[O, R any] struct {
	next  func() (O, bool)
	stop  func()
	yield func(O) bool
	res   R
}

// start installs body as the coroutine. It does not run until the
// first NextOp.
func (c *coroutine[O, R]) start(body func()) {
	c.next, c.stop = iter.Pull(func(yield func(O) bool) {
		defer func() {
			if r := recover(); r != nil && r != errAborted {
				panic(r)
			}
		}()
		c.yield = yield
		body()
	})
}

// do issues op and suspends the workload until the executor completes
// it, then returns the completed result. A false yield means Abort
// stopped the coroutine; errAborted unwinds the workload to start's
// recover.
func (c *coroutine[O, R]) do(op O) R {
	if !c.yield(op) {
		panic(errAborted)
	}
	return c.res
}

// NextOp resumes the workload until it issues its next operation or
// returns (ok == false). A workload panic other than an abort
// propagates from here, on the executor's goroutine.
func (c *coroutine[O, R]) NextOp() (O, bool) { return c.next() }

// Complete stores an operation's result; the next NextOp hands it to
// the workload.
func (c *coroutine[O, R]) Complete(v R) { c.res = v }

// Abort tears the workload down (end-of-simulation cleanup). It is
// idempotent and a no-op on a finished workload.
func (c *coroutine[O, R]) Abort() { c.stop() }
