// Package sim provides a deterministic cooperative scheduler with virtual
// time. It is the execution substrate for the whole MVEDSUA reproduction:
// server threads, MVE followers, benchmark clients, and the update
// controller all run as sim tasks inside one Scheduler.
//
// Exactly one task executes at a time; a task runs until it yields, blocks,
// sleeps, or exits. The virtual clock advances only when a running task
// charges work with Advance, or when every task is blocked and the scheduler
// jumps to the earliest pending timer. Runs are therefore bit-for-bit
// reproducible, which the divergence-detection tests rely on.
package sim

import (
	"container/heap"
	"fmt"
	"runtime"
	"sort"
	"time"

	"mvedsua/internal/bounded"
)

// State describes where a task is in its lifecycle.
type State int

// Task lifecycle states.
const (
	StateNew      State = iota // created, not yet started
	StateRunnable              // on the run queue
	StateRunning               // currently executing
	StateBlocked               // parked on a WaitQueue
	StateSleeping              // parked on the timer heap
	StateDone                  // exited
)

// String returns a human-readable state name.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateSleeping:
		return "sleeping"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// DeadlockError is returned by Run when live tasks remain but none can make
// progress: every task is blocked on a WaitQueue and no timers are pending.
type DeadlockError struct {
	// Blocked lists the names of the tasks that were stuck.
	Blocked []string
}

// Error implements the error interface.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock, %d tasks blocked: %v", len(e.Blocked), e.Blocked)
}

// CrashInfo records a task that exited by panicking. The scheduler converts
// application panics into CrashInfo values instead of crashing the host
// process; MVEDSUA's fault-tolerance experiments observe crashes this way.
type CrashInfo struct {
	Task  string      // task name
	Value interface{} // the recovered panic value
}

// Scheduler owns the virtual clock and all tasks.
type Scheduler struct {
	clock   time.Duration
	nextID  int
	nextSeq int64
	shard   int // index within a ShardedScheduler; 0 for standalone use

	runq   taskRing
	timers timerHeap
	live   int // tasks not yet done

	current *Task

	// OnCrash, if non-nil, is invoked (in scheduler context) whenever a
	// task exits via panic. If nil, the panic is re-raised.
	OnCrash func(CrashInfo)

	// OnSlice, if non-nil, observes each dispatch's run slice after the
	// task parks again: the task's name plus the virtual interval it held
	// the CPU. It is a pure observer — called in scheduler context, after
	// the slice ended — so it cannot perturb scheduling or the clock.
	OnSlice func(task string, start, end time.Duration)

	// profiler, if non-nil, receives exact per-segment attribution of
	// every slice (see SetProfiler). segStart tracks the open segment's
	// left edge while a task runs; label pushes flush and restart it.
	profiler SliceProfiler
	segStart time.Duration

	crashes    []CrashInfo
	tracing    bool
	trace      bounded.Tail[string]
	blocked    map[*Task]struct{}
	dispatches int64
}

// DefaultTraceCap bounds the scheduling trace unless SetTraceCapacity
// chose another cap: the newest window survives and evictions are
// counted, mirroring the recorder's hot ring and the mve event log.
const DefaultTraceCap = 1 << 16

// New returns an empty scheduler with the clock at zero.
func New() *Scheduler {
	return &Scheduler{blocked: make(map[*Task]struct{})}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.clock }

// ShardID returns the scheduler's index within its ShardedScheduler, or
// 0 for a standalone scheduler.
func (s *Scheduler) ShardID() int { return s.shard }

// Crashes returns the crashes observed so far, in order.
func (s *Scheduler) Crashes() []CrashInfo { return s.crashes }

// Dispatches returns the number of context switches performed so far: each
// time the scheduler hands the CPU to a task counts as one. Tasks that
// block, sleep, or yield and later resume are dispatched again, so the
// count measures scheduling churn, not task count. It never advances the
// virtual clock and is safe to read at any point.
func (s *Scheduler) Dispatches() int64 { return s.dispatches }

// SetTracing enables or disables recording of a scheduling trace, useful in
// tests that assert deterministic interleavings. The trace is bounded (the
// newest DefaultTraceCap entries unless SetTraceCapacity was called); use
// TraceDropped to detect truncation.
func (s *Scheduler) SetTracing(on bool) {
	s.tracing = on
	if s.trace.Limit() <= 0 {
		s.trace = bounded.NewTail[string](DefaultTraceCap)
	}
}

// SetTraceCapacity bounds the scheduling trace to the newest n entries
// (n <= 0 restores the default). Changing the capacity clears any
// already-recorded trace so the circular tail restarts cleanly.
func (s *Scheduler) SetTraceCapacity(n int) {
	if n <= 0 {
		n = DefaultTraceCap
	}
	s.trace = bounded.NewTail[string](n)
}

// Trace returns the recorded scheduling trace, oldest surviving entry
// first.
func (s *Scheduler) Trace() []string { return s.trace.Items() }

// TraceDropped returns how many trace entries the bounded store evicted.
func (s *Scheduler) TraceDropped() int64 { return s.trace.Dropped() }

// Go creates and starts a new task running fn. The task is appended to the
// run queue; it first executes when the scheduler reaches it. Go may be
// called before Run, or from inside a running task.
func (s *Scheduler) Go(name string, fn func(*Task)) *Task {
	s.nextID++
	t := &Task{
		id:    s.nextID,
		name:  name,
		s:     s,
		state: StateNew,
	}
	s.live++
	t.bindCoroutine(fn)
	s.enqueue(t)
	return t
}

// runTask is the body of every task coroutine: it runs fn to completion
// and converts its exit — normal return, kill unwind or crash — into the
// done state, so dispatch sees a clean return from the coroutine.
func (s *Scheduler) runTask(t *Task, fn func(*Task)) {
	defer func() {
		if r := recover(); r != nil {
			if _, isKill := r.(killedPanic); !isKill {
				t.crashed = true
				t.crashVal = r
			}
		}
		t.state = StateDone
		s.live--
		// Wake any tasks joined on this one.
		t.joiners.wakeAll(s)
	}()
	t.state = StateRunning
	fn(t)
}

func (s *Scheduler) enqueue(t *Task) {
	t.state = StateRunnable
	s.runq.push(t)
}

// Run executes tasks until none remain, returning nil, or until no task can
// make progress, returning a *DeadlockError.
func (s *Scheduler) Run() error {
	for s.live > 0 {
		if s.runq.n == 0 {
			if s.timers.Len() == 0 {
				return s.deadlock()
			}
			s.fireNextTimer()
			continue
		}
		t := s.runq.pop()
		if t.state == StateDone {
			continue
		}
		s.dispatch(t)
	}
	return nil
}

// RunFor executes tasks until the virtual clock passes deadline or no tasks
// remain. Tasks still live at the deadline stay parked; Run or RunFor can be
// called again to continue. It returns a *DeadlockError on deadlock.
func (s *Scheduler) RunFor(d time.Duration) error {
	deadline := s.clock + d
	for s.live > 0 && s.clock < deadline {
		if s.runq.n == 0 {
			if s.timers.Len() == 0 {
				return s.deadlock()
			}
			if s.timers[0].when > deadline {
				s.clock = deadline
				return nil
			}
			s.fireNextTimer()
			continue
		}
		t := s.runq.pop()
		if t.state == StateDone {
			continue
		}
		s.dispatch(t)
	}
	if s.clock < deadline && s.live == 0 {
		s.clock = deadline
	}
	return nil
}

func (s *Scheduler) deadlock() error {
	return &DeadlockError{Blocked: s.blockedNames()}
}

// blockedNames returns the names of the tasks parked on wait queues,
// sorted so the report is deterministic.
func (s *Scheduler) blockedNames() []string {
	var names []string
	for t := range s.blocked { // maporder: ok — names are sorted below
		names = append(names, t.name)
	}
	sort.Strings(names)
	return names
}

// hasRunnable reports whether the run queue holds at least one entry.
// Done tasks still queued count (dispatch skips them), so a true result
// means at most that the next run step is cheap, never that it is
// missing — which is what the sharded epoch loop needs.
func (s *Scheduler) hasRunnable() bool { return s.runq.n > 0 }

// nextTimer returns the earliest pending timer deadline. Stale timers
// (task killed or woken early) are included, so the returned time is a
// lower bound on the next real event.
func (s *Scheduler) nextTimer() (time.Duration, bool) {
	if s.timers.Len() == 0 {
		return 0, false
	}
	return s.timers[0].when, true
}

// liveTasks returns the number of tasks not yet done.
func (s *Scheduler) liveTasks() int { return s.live }

// gcYieldEvery is how many dispatches the run loop makes between calls
// to runtime.Gosched. A coroutine switch never enters the Go scheduler,
// so without this a run on one OS thread starves the GC's background
// mark worker and pushes its work onto allocating tasks as assists.
// Power of two; yielding the OS thread has no effect on the schedule.
const gcYieldEvery = 1024

func (s *Scheduler) dispatch(t *Task) {
	s.dispatches++
	if s.dispatches&(gcYieldEvery-1) == 0 {
		runtime.Gosched()
	}
	s.current = t
	t.state = StateRunning
	if s.tracing {
		s.trace.Push(fmt.Sprintf("%d:%s", s.clock/time.Microsecond, t.name))
	}
	sliceStart := s.clock
	if s.profiler != nil {
		s.segStart = sliceStart
	}
	t.next()
	if t.state == StateDone {
		// Drop the finished coroutine so the Task pins nothing.
		t.next, t.yield = nil, nil
	}
	if s.profiler != nil {
		s.flushSegment(t)
	}
	s.current = nil
	if s.OnSlice != nil {
		s.OnSlice(t.name, sliceStart, s.clock)
	}
	if t.state == StateDone && t.crashed {
		info := CrashInfo{Task: t.name, Value: t.crashVal}
		s.crashes = append(s.crashes, info)
		if s.OnCrash != nil {
			s.OnCrash(info)
		} else {
			panic(t.crashVal)
		}
	}
}

// advanceTo moves the clock forward and fires all timers that are due.
func (s *Scheduler) advanceTo(when time.Duration) {
	if when > s.clock {
		s.clock = when
	}
	for s.timers.Len() > 0 && s.timers[0].when <= s.clock {
		tm := heap.Pop(&s.timers).(*timer)
		if tm.task.state == StateSleeping {
			s.enqueue(tm.task)
		}
	}
}

func (s *Scheduler) fireNextTimer() {
	// Discard stale timers (task killed or woken early) without advancing
	// the clock: a dead task's deadline must not distort the timeline.
	for s.timers.Len() > 0 && s.timers[0].task.state != StateSleeping {
		heap.Pop(&s.timers)
	}
	if s.timers.Len() == 0 {
		return
	}
	tm := heap.Pop(&s.timers).(*timer)
	if tm.when > s.clock {
		s.clock = tm.when
	}
	s.enqueue(tm.task)
	// Also release any other timers that share this instant so FIFO order
	// among equal deadlines is preserved by seq ordering in the heap.
	for s.timers.Len() > 0 && s.timers[0].when <= s.clock {
		next := heap.Pop(&s.timers).(*timer)
		if next.task.state == StateSleeping {
			s.enqueue(next.task)
		}
	}
}

// taskRing is the run queue: a FIFO of tasks in a power-of-two circular
// buffer that doubles when full, so steady enqueue/dispatch traffic
// allocates nothing.
type taskRing struct {
	buf  []*Task
	head int // index of the oldest task
	n    int // tasks queued
}

func (r *taskRing) push(t *Task) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = t
	r.n++
}

// pop removes and returns the oldest task; the ring must be non-empty.
func (r *taskRing) pop() *Task {
	t := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return t
}

// grow doubles the full ring, unwrapping it so the oldest task lands at
// index 0.
func (r *taskRing) grow() {
	buf := make([]*Task, max(2*len(r.buf), 16))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

type timer struct {
	when time.Duration
	seq  int64
	task *Task
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
