//go:build go1.23

package sim

import "iter"

// bindCoroutine makes fn the body of t's coroutine. It is the one place
// the package uses iter.Pull, whose coroutine switch is the scheduler's
// task handoff.
//
// The coroutine keeps this closure reachable for the task's whole life,
// so the closure clears its reference to fn before running it: whatever
// fn captured can then be collected after its last use, even while the
// task stays parked.
//
// The stop function is not kept: a task's coroutine ends by returning,
// and a task left parked when its scheduler is abandoned stays parked.
func (t *Task) bindCoroutine(fn func(*Task)) {
	t.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		body := fn
		fn = nil
		t.s.runTask(t, body)
	})
}
