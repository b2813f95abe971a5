package sim

import (
	"container/heap"
	"time"
)

// killedPanic is the sentinel used to unwind a task that was killed while
// blocked or yielding. It is recovered by Scheduler.runTask and never
// escapes the scheduler.
type killedPanic struct{}

// Task is a cooperative thread of execution inside a Scheduler. All Task
// methods must be called from the task's own function (except Kill and
// Done, which may be called from any task).
//
// A task is a coroutine, not a free-running goroutine: dispatch calls
// next, which runs the task until it parks (yield) or exits, and control
// passes back without going through the Go scheduler.
type Task struct {
	id    int
	name  string
	s     *Scheduler
	state State

	// next resumes the coroutine; yield, called from inside it, parks
	// it. Both are nil once the task is done.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	killed   bool
	crashed  bool
	crashVal interface{}

	// queue the task is currently blocked on, for removal on Kill.
	waitingOn *WaitQueue
	joiners   WaitQueue

	// labels is the profiling attribution stack (see PushLabel). Always
	// empty unless a SliceProfiler is attached to the scheduler.
	labels []string
}

// Name returns the task's name, as passed to Scheduler.Go.
func (t *Task) Name() string { return t.name }

// ID returns the task's unique id within its scheduler.
func (t *Task) ID() int { return t.id }

// Scheduler returns the scheduler that owns this task.
func (t *Task) Scheduler() *Scheduler { return t.s }

// State returns the task's current lifecycle state.
func (t *Task) State() State { return t.state }

// Done reports whether the task has exited.
func (t *Task) Done() bool { return t.state == StateDone }

// Crashed reports whether the task exited via panic.
func (t *Task) Crashed() bool { return t.crashed }

// Killed reports whether Kill has been called on the task.
func (t *Task) Killed() bool { return t.killed }

// Now returns the current virtual time.
func (t *Task) Now() time.Duration { return t.s.clock }

// park hands control back to the scheduler and waits to be resumed. On
// resume, if the task was killed in the meantime, it unwinds via
// killedPanic so deferred cleanup still runs.
func (t *Task) park() {
	t.yield(struct{}{})
	t.state = StateRunning
	if t.killed {
		panic(killedPanic{})
	}
}

// Yield places the task at the back of the run queue and lets other
// runnable tasks execute first.
func (t *Task) Yield() {
	t.checkCurrent("Yield")
	t.s.enqueue(t)
	t.park()
}

// Advance charges d of virtual work to the clock: the clock moves forward
// and any timers that become due fire (their tasks become runnable behind
// this one). The calling task keeps running.
func (t *Task) Advance(d time.Duration) {
	t.checkCurrent("Advance")
	if d < 0 {
		d = 0
	}
	t.s.advanceTo(t.s.clock + d)
}

// Sleep parks the task until the virtual clock reaches now+d.
func (t *Task) Sleep(d time.Duration) {
	t.checkCurrent("Sleep")
	if d <= 0 {
		t.Yield()
		return
	}
	t.state = StateSleeping
	t.s.nextSeq++
	heap.Push(&t.s.timers, &timer{when: t.s.clock + d, seq: t.s.nextSeq, task: t})
	t.park()
}

// Block parks the task on q until another task wakes it. The caller must
// re-check its wait condition after Block returns: wakeups can be
// collective (WakeAll).
func (t *Task) Block(q *WaitQueue) {
	t.checkCurrent("Block")
	t.state = StateBlocked
	t.waitingOn = q
	q.tasks = append(q.tasks, t)
	t.s.blocked[t] = struct{}{}
	t.park()
}

// BlockTimeout parks the task on q until woken or until d elapses. It
// reports whether the task was woken (true) or timed out (false).
func (t *Task) BlockTimeout(q *WaitQueue, d time.Duration) bool {
	t.checkCurrent("BlockTimeout")
	t.state = StateBlocked
	t.waitingOn = q
	q.tasks = append(q.tasks, t)
	t.s.blocked[t] = struct{}{}
	t.s.nextSeq++
	heap.Push(&t.s.timers, &timer{when: t.s.clock + d, seq: t.s.nextSeq, task: t})
	// The timer fires only if the task is still StateSleeping; blocked
	// tasks need the sleeping state for the timer to wake them, so use a
	// dedicated state transition: mark as sleeping-with-queue.
	t.state = StateSleeping
	t.park()
	// Determine outcome: if still on the queue, it was a timeout.
	timedOut := q.remove(t)
	delete(t.s.blocked, t)
	t.waitingOn = nil
	return !timedOut
}

// Join blocks until other has exited.
func (t *Task) Join(other *Task) {
	t.checkCurrent("Join")
	for !other.Done() {
		t.Block(&other.joiners)
	}
}

// Kill marks the task for termination. If the task is blocked or sleeping
// it becomes runnable and unwinds the next time it is scheduled; if it is
// currently running it unwinds at its next scheduling point. Killing a
// done task is a no-op.
func (t *Task) Kill() {
	if t.state == StateDone || t.killed {
		return
	}
	t.killed = true
	switch t.state {
	case StateBlocked:
		if t.waitingOn != nil {
			t.waitingOn.remove(t)
			t.waitingOn = nil
		}
		delete(t.s.blocked, t)
		t.s.enqueue(t)
	case StateSleeping:
		// Leave the timer in the heap (it will find the task not
		// sleeping and do nothing); schedule the task now.
		if t.waitingOn != nil {
			t.waitingOn.remove(t)
			t.waitingOn = nil
		}
		delete(t.s.blocked, t)
		t.s.enqueue(t)
	}
}

func (t *Task) checkCurrent(op string) {
	if t.s.current != t {
		panic("sim: " + op + " called from outside task " + t.name)
	}
	// A kill issued while this task was running takes effect at its next
	// scheduling point.
	if t.killed {
		panic(killedPanic{})
	}
}

// WaitQueue is an ordered set of tasks blocked on a condition. The zero
// value is ready to use.
type WaitQueue struct {
	tasks []*Task
}

// Len returns the number of tasks parked on the queue.
func (q *WaitQueue) Len() int { return len(q.tasks) }

// WakeOne makes the oldest parked task runnable. It reports whether a task
// was woken.
func (q *WaitQueue) WakeOne(s *Scheduler) bool {
	for len(q.tasks) > 0 {
		t := q.tasks[0]
		q.tasks = q.tasks[1:]
		if t.state == StateBlocked || t.state == StateSleeping {
			delete(s.blocked, t)
			t.waitingOn = nil
			t.state = StateRunnable
			s.runq.push(t)
			return true
		}
	}
	return false
}

// WakeAll makes every parked task runnable, preserving FIFO order.
func (q *WaitQueue) WakeAll(s *Scheduler) int {
	n := 0
	for q.WakeOne(s) {
		n++
	}
	return n
}

func (q *WaitQueue) wakeAll(s *Scheduler) { q.WakeAll(s) }

// remove deletes t from the queue if present, reporting whether it was.
func (q *WaitQueue) remove(t *Task) bool {
	for i, x := range q.tasks {
		if x == t {
			q.tasks = append(q.tasks[:i], q.tasks[i+1:]...)
			return true
		}
	}
	return false
}
