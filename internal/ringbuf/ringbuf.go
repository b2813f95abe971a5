// Package ringbuf implements the Varan-style shared ring buffer at the
// heart of MVEDSUA's update pipeline (§3.1-3.2 of the paper).
//
// The leader appends each executed system call and its result; followers
// consume entries in order and validate their own syscalls against them.
// The buffer has a fixed capacity: when it fills, the leader blocks until
// the follower drains entries — this is exactly the mechanism behind the
// paper's Figure 7 (small buffers reintroduce the update pause; a 2^24
// buffer hides it completely).
//
// Besides syscall events the buffer carries control entries: promotion
// (the leader demotes itself, §3.2 t4) and termination.
//
// Storage is a true circular buffer: head/count indexes over a
// power-of-two backing array, so Put and Get are O(1) with no slice
// shifting and no steady-state allocation. The backing array still grows
// lazily toward the configured capacity, so a 2^24-entry buffer (the
// paper's largest, §6.1) only consumes memory proportional to the
// occupancy it actually reaches.
//
// Wakeups are transition-only: consumers are woken when the buffer goes
// empty→non-empty and producers when it goes full→not-full, never on
// other appends or removes. This is behaviorally identical to waking on
// every operation — a task only parks at the corresponding boundary, so
// the first opposite operation after it parks *is* the transition — but
// it keeps the wake bookkeeping off the hot path.
package ringbuf

import (
	"fmt"
	"time"

	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// Kind discriminates ring buffer entries.
type Kind int

// Entry kinds.
const (
	KindSyscall  Kind = iota // a recorded syscall event
	KindPromote              // leader demoted itself; consumer becomes leader
	KindShutdown             // producer exited; consumers should stop
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindSyscall:
		return "syscall"
	case KindPromote:
		return "promote"
	case KindShutdown:
		return "shutdown"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Entry is one slot of the ring buffer.
type Entry struct {
	Kind  Kind
	Event sysabi.Event

	// PutAt is the virtual time the entry was appended, stamped by the
	// buffer itself. It lets the consumer attribute how long an entry
	// queued in the ring (the "ring wait" component of per-request
	// latency) without a side table.
	PutAt time.Duration
}

// minStorage is the initial backing-array size (entries). Small so tiny
// test buffers stay tiny; doubling reaches any capacity quickly.
const minStorage = 8

// Buffer is a single-producer single-consumer ring of Entries with
// cooperative blocking semantics on the sim scheduler.
type Buffer struct {
	sched    *sim.Scheduler
	capacity int
	buf      []Entry // circular storage; len(buf) is a power of two
	head     int     // index of the oldest pending entry
	count    int     // current occupancy
	seq      uint64  // sequence numbers assigned to syscall events

	notEmpty sim.WaitQueue // consumers parked on an empty buffer
	notFull  sim.WaitQueue // producers parked on a full buffer
	drained  sim.WaitQueue // WaitDrained callers parked until empty

	closed bool

	// HighWater tracks the maximum occupancy ever reached, for reporting.
	HighWater int
	// ProducerBlocked counts how many times the producer had to wait on a
	// full buffer (the visible service pause of Figure 7).
	ProducerBlocked int
	// Dropped counts entries TryAppend refused on a full buffer — the
	// discard-policy path. A discarded follower shows Dropped > 0 while
	// a merely stalled one shows ProducerBlocked > 0; the two failure
	// shapes are distinguishable in the trace and in reports.
	Dropped int

	// Rec, if non-nil, receives ring-buffer metrics and trace events
	// (the flight recorder). Nil costs one pointer check per operation.
	Rec *obs.Recorder
}

// New returns a buffer with the given capacity (minimum 1).
func New(sched *sim.Scheduler, capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{sched: sched, capacity: capacity}
}

// Cap returns the buffer capacity.
func (b *Buffer) Cap() int { return b.capacity }

// Len returns the current occupancy.
func (b *Buffer) Len() int { return b.count }

// Empty reports whether no entries are pending.
func (b *Buffer) Empty() bool { return b.count == 0 }

// Full reports whether the buffer has no free slots.
func (b *Buffer) Full() bool { return b.count >= b.capacity }

// Closed reports whether Close has been called.
func (b *Buffer) Closed() bool { return b.closed }

// NextSeq returns the sequence number the next recorded event will get.
func (b *Buffer) NextSeq() uint64 { return b.seq }

// pow2ceil returns the smallest power of two >= n (n >= 1).
func pow2ceil(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// grow enlarges the backing array (occupancy == len(buf) < capacity),
// unwrapping the circular contents so head restarts at zero.
func (b *Buffer) grow() {
	size := minStorage
	if len(b.buf) > 0 {
		size = len(b.buf) * 2
	}
	if max := pow2ceil(b.capacity); size > max {
		size = max
	}
	next := make([]Entry, size)
	for i := 0; i < b.count; i++ {
		next[i] = b.buf[(b.head+i)&(len(b.buf)-1)]
	}
	b.buf = next
	b.head = 0
}

// blockUntilNotFull parks the producer until a slot frees up or the
// buffer closes, charging the per-episode accounting Put and PutBatch
// share. It reports false if the buffer is closed.
func (b *Buffer) blockUntilNotFull(t *sim.Task) bool {
	for b.Full() {
		if b.closed {
			return false
		}
		b.ProducerBlocked++
		b.Rec.Inc(obs.CRingBlocked)
		if b.Rec.Enabled() {
			b.Rec.Emitf(obs.KindRingBlock, t.Name(), "buffer full (%d/%d)", b.count, b.capacity)
			blockedAt := t.Now()
			t.Block(&b.notFull)
			b.Rec.Observe(obs.HRingBlockWait, t.Now()-blockedAt)
			if b.Rec.ProfilingEnabled() {
				t.ChargeWait(obs.LblRingWait, blockedAt)
			}
		} else {
			t.Block(&b.notFull)
		}
	}
	return !b.closed
}

// Put appends an entry, blocking the producer task while the buffer is
// full. It reports false if the buffer was closed.
func (b *Buffer) Put(t *sim.Task, e Entry) bool {
	if !b.blockUntilNotFull(t) {
		return false
	}
	b.append(e)
	return true
}

// PutBatch appends every entry in order, blocking whenever the buffer is
// full, and returns how many entries were appended. Appended == len(batch)
// unless the buffer closes mid-batch, in which case the tail is dropped
// and ok is false. Occupancy accounting and sequence numbering are
// per-entry, exactly as if each entry had been Put individually.
func (b *Buffer) PutBatch(t *sim.Task, batch []Entry) (appended int, ok bool) {
	for _, e := range batch {
		if !b.blockUntilNotFull(t) {
			return appended, false
		}
		b.append(e)
		appended++
	}
	return appended, true
}

// append stores one entry (capacity already checked) and updates the
// occupancy accounting shared by Put, PutBatch and TryAppend.
func (b *Buffer) append(e Entry) {
	if e.Kind == KindSyscall {
		e.Event.Seq = b.seq
		b.seq++
	}
	e.PutAt = b.sched.Now()
	if b.count == len(b.buf) {
		b.grow()
	}
	b.buf[(b.head+b.count)&(len(b.buf)-1)] = e
	b.count++
	if b.count > b.HighWater {
		b.HighWater = b.count
	}
	if b.Rec.Enabled() {
		b.Rec.Inc(obs.CRingPut)
		b.Rec.SetGauge(obs.GRingOccupancy, int64(b.count))
		b.Rec.MaxGauge(obs.GRingHighWater, int64(b.HighWater))
		b.Rec.EmitLazy(obs.KindRingPut, e.Kind.String(), occDetail{e, b.count, b.capacity})
	}
	if b.count == 1 {
		// empty→non-empty: the only edge a consumer can be parked behind.
		b.notEmpty.WakeAll(b.sched)
	}
}

// entryDetail renders an entry for the trace.
func entryDetail(e Entry) string {
	if e.Kind == KindSyscall {
		return e.Event.String()
	}
	return e.Kind.String()
}

// occDetail is the hot-trace detail of one put or get: the entry and
// the occupancy right after it, rendered only if the trace is read
// while the event is retained.
type occDetail struct {
	entry      Entry
	count, cap int
}

func (d occDetail) String() string {
	return fmt.Sprintf("%s (occ %d/%d)", entryDetail(d.entry), d.count, d.cap)
}

// TryAppend appends an entry without ever blocking: it reports false if
// the buffer is full or closed, leaving the entry unrecorded. This is
// the producer side of the discard-follower policy — instead of parking
// the leader behind a lagging follower, the monitor observes the failed
// append and drops the follower (the dMVX-style degradation path).
func (b *Buffer) TryAppend(e Entry) bool {
	if b.closed || b.Full() {
		if !b.closed {
			b.Dropped++
			b.Rec.Inc(obs.CRingDropped)
			if b.Rec.Enabled() {
				b.Rec.Emitf(obs.KindRingDiscard, e.Kind.String(), "%s dropped (%d total, occ %d/%d)",
					entryDetail(e), b.Dropped, b.count, b.capacity)
			}
		}
		return false
	}
	b.append(e)
	return true
}

// PutEvent is a convenience wrapper recording a syscall event.
func (b *Buffer) PutEvent(t *sim.Task, ev sysabi.Event) bool {
	return b.Put(t, Entry{Kind: KindSyscall, Event: ev})
}

// take removes and returns the oldest entry (occupancy already checked),
// charging the per-entry accounting Get and the drain calls share.
func (b *Buffer) take(t *sim.Task) Entry {
	e := b.buf[b.head]
	b.buf[b.head] = Entry{} // release payload references promptly
	b.head = (b.head + 1) & (len(b.buf) - 1)
	wasFull := b.Full()
	b.count--
	if b.Rec.Enabled() {
		b.Rec.Inc(obs.CRingGet)
		b.Rec.SetGauge(obs.GRingOccupancy, int64(b.count))
		b.Rec.EmitLazy(obs.KindRingGet, t.Name(), occDetail{e, b.count, b.capacity})
	}
	if wasFull {
		// full→not-full: the only edge a producer can be parked behind.
		b.notFull.WakeAll(b.sched)
	}
	if b.count == 0 {
		b.drained.WakeAll(b.sched)
	}
	return e
}

// Get removes and returns the oldest entry, blocking the consumer task
// while the buffer is empty. It reports false if the buffer was closed and
// fully drained.
func (b *Buffer) Get(t *sim.Task) (Entry, bool) {
	for b.Empty() {
		if b.closed {
			return Entry{}, false
		}
		b.blockEmpty(t)
	}
	return b.take(t), true
}

// blockEmpty parks a consumer on the empty buffer, attributing the
// blocked interval to the ring_wait profiling dimension when profiling
// is on (one episode per park, charged under the task's current label
// stack).
func (b *Buffer) blockEmpty(t *sim.Task) {
	if b.Rec.ProfilingEnabled() {
		blockedAt := t.Now()
		t.Block(&b.notEmpty)
		t.ChargeWait(obs.LblRingWait, blockedAt)
	} else {
		t.Block(&b.notEmpty)
	}
}

// DrainUpTo removes up to max pending entries (all of them when max <= 0)
// in one call, appending them to dst and returning the extended slice. It
// blocks while the buffer is empty; a return with no entries appended
// means the buffer was closed and fully drained. Unlike repeated Get
// calls, the whole batch transfers in a single scheduler round-trip, but
// occupancy accounting stays per-entry (HighWater, occupancy gauge and
// the put/get counters are indistinguishable from a Get loop).
func (b *Buffer) DrainUpTo(t *sim.Task, dst []Entry, max int) []Entry {
	for b.Empty() {
		if b.closed {
			return dst
		}
		b.blockEmpty(t)
	}
	n := b.count
	if max > 0 && n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		dst = append(dst, b.take(t))
	}
	return dst
}

// DrainInto removes every pending entry in one call, blocking while the
// buffer is empty. See DrainUpTo for the contract.
func (b *Buffer) DrainInto(t *sim.Task, dst []Entry) []Entry {
	return b.DrainUpTo(t, dst, 0)
}

// WaitDrained blocks until the buffer is empty or closed. The lockstep
// leader uses this to wait for the follower to consume each recorded
// event without burning a scheduler dispatch per poll.
func (b *Buffer) WaitDrained(t *sim.Task) {
	if b.Rec.ProfilingEnabled() && b.count > 0 && !b.closed {
		blockedAt := t.Now()
		for b.count > 0 && !b.closed {
			t.Block(&b.drained)
		}
		t.ChargeWait(obs.LblLockstepWait, blockedAt)
		return
	}
	for b.count > 0 && !b.closed {
		t.Block(&b.drained)
	}
}

// Peek returns the oldest entry without removing it, if one is available.
func (b *Buffer) Peek() (Entry, bool) {
	if b.Empty() {
		return Entry{}, false
	}
	return b.buf[b.head], true
}

// Close marks the buffer closed and wakes all waiters. Pending entries can
// still be drained with Get; Put fails afterwards.
func (b *Buffer) Close() {
	if b.closed {
		return
	}
	b.closed = true
	b.notEmpty.WakeAll(b.sched)
	b.notFull.WakeAll(b.sched)
	b.drained.WakeAll(b.sched)
}

// Reset discards all pending entries and reopens the buffer, reusing the
// allocation. Used when MVEDSUA rolls an update back and later retries.
// Sequence numbering restarts at zero: the next attached follower
// validates a fresh stream.
//
// All wait queues are woken: a producer parked on a full buffer at the
// moment of a rollback-triggered reset must re-check its condition (the
// buffer is now empty, so it proceeds), and a consumer parked on an
// empty buffer must observe the renumbered stream rather than sleep
// through the reopen. Without the wakeups such a task stays wedged
// forever — no future append can reach a queue nobody ever wakes.
func (b *Buffer) Reset() {
	for i := 0; i < b.count; i++ {
		b.buf[(b.head+i)&(len(b.buf)-1)] = Entry{}
	}
	b.head = 0
	b.count = 0
	b.seq = 0
	b.closed = false
	b.HighWater = 0
	b.ProducerBlocked = 0
	b.Dropped = 0
	b.Rec.Inc(obs.CRingResets)
	b.Rec.SetGauge(obs.GRingOccupancy, 0)
	b.Rec.Emit(obs.KindRingReset, "ringbuf", "reset: entries discarded, seq restarted at 0")
	b.notFull.WakeAll(b.sched)
	b.notEmpty.WakeAll(b.sched)
	b.drained.WakeAll(b.sched)
}
