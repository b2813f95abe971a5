// Multi-cursor ring: one producer, K independent consumers over a single
// recorded stream. This is the storage layer of N-variant execution
// (internal/mve's fleet mode): the leader appends each syscall event
// once, and every variant replica validates through its own Cursor, so
// adding a variant costs no extra copies of the stream.
//
// Retention follows the slowest cursor: an entry is reclaimed only once
// every open cursor has consumed it, so a lagging variant sees the full
// stream while fast siblings run ahead. Closing a cursor (variant eject)
// releases its retention immediately — the leader parked behind a dead
// variant's backlog resumes as soon as the eject lands, which is what
// makes eject-and-respawn invisible to client traffic.
//
// The consumer-side API deliberately mirrors Buffer's batch calls
// (DrainUpTo/DrainInto plus the Closed/Empty/Len observables), so the
// mve follower machinery can run unchanged against either a Buffer (the
// paper's duo, the K=1 special case) or a Cursor (fleet mode).
package ringbuf

import (
	"fmt"

	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
)

// MultiBuffer is a single-producer ring readable through any number of
// independent Cursors.
type MultiBuffer struct {
	sched    *sim.Scheduler
	capacity int
	buf      []Entry // circular storage; len(buf) is a power of two
	base     uint64  // absolute index of the oldest retained entry
	next     uint64  // absolute index the next append lands on
	seq      uint64  // sequence numbers assigned to syscall events

	cursors []*Cursor // open cursors, attach order

	notFull sim.WaitQueue // producer parked on a full buffer
	drained sim.WaitQueue // WaitAllDrained callers parked until all cursors drain

	closed bool

	// HighWater tracks the maximum retained occupancy ever reached.
	HighWater int
	// ProducerBlocked counts producer waits on a full buffer.
	ProducerBlocked int
	// Dropped counts entries TryAppend refused on a full buffer.
	Dropped int

	// Rec, if non-nil, receives ring metrics and trace events.
	Rec *obs.Recorder
}

// Cursor is one consumer's position in a MultiBuffer's stream.
type Cursor struct {
	mb   *MultiBuffer
	name string
	pos  uint64 // absolute index of the next entry this cursor reads

	notEmpty sim.WaitQueue // this cursor's consumer parked on an empty view
	closed   bool
}

// NewMulti returns a multi-cursor buffer with the given capacity
// (minimum 1). Capacity bounds retention: the producer blocks (or
// TryAppend fails) once the slowest open cursor lags that far behind.
func NewMulti(sched *sim.Scheduler, capacity int) *MultiBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &MultiBuffer{sched: sched, capacity: capacity}
}

// Cap returns the retention capacity.
func (mb *MultiBuffer) Cap() int { return mb.capacity }

// Len returns the retained occupancy (entries not yet consumed by the
// slowest open cursor; zero when no cursors are open).
func (mb *MultiBuffer) Len() int { return int(mb.next - mb.base) }

// Full reports whether retention has no free slot.
func (mb *MultiBuffer) Full() bool { return mb.Len() >= mb.capacity }

// Closed reports whether Close has been called.
func (mb *MultiBuffer) Closed() bool { return mb.closed }

// NextSeq returns the sequence number the next recorded event will get.
func (mb *MultiBuffer) NextSeq() uint64 { return mb.seq }

// Cursors returns how many cursors are open.
func (mb *MultiBuffer) Cursors() int { return len(mb.cursors) }

// OpenCursor attaches a named cursor positioned at the next appended
// entry: the new consumer sees only events recorded from now on, the
// fork point of a freshly attached variant.
func (mb *MultiBuffer) OpenCursor(name string) *Cursor {
	c := &Cursor{mb: mb, name: name, pos: mb.next}
	mb.cursors = append(mb.cursors, c)
	mb.Rec.Emitf(obs.KindRingPut, name, "cursor opened at #%d (%d open)", c.pos, len(mb.cursors))
	return c
}

// slot returns the storage slot for absolute index i.
func (mb *MultiBuffer) slot(i uint64) *Entry { return &mb.buf[int(i)&(len(mb.buf)-1)] }

// grow enlarges the backing array (retained == len(buf) < capacity),
// unwrapping so base restarts at slot zero of the new array.
func (mb *MultiBuffer) grow() {
	size := minStorage
	if len(mb.buf) > 0 {
		size = len(mb.buf) * 2
	}
	if max := pow2ceil(mb.capacity); size > max {
		size = max
	}
	next := make([]Entry, size)
	n := mb.Len()
	for i := 0; i < n; i++ {
		next[i] = *mb.slot(mb.base + uint64(i))
	}
	// Rebase absolute indexes so slot arithmetic stays aligned with the
	// unwrapped copy: base must land on slot 0.
	shift := mb.base
	mb.buf = next
	mb.base -= shift
	mb.next -= shift
	for _, c := range mb.cursors {
		c.pos -= shift
	}
}

// reclaim advances base to the slowest open cursor (or to next when no
// cursor is open), clearing freed slots and waking the producer and
// drain waiters on the relevant transitions.
func (mb *MultiBuffer) reclaim() {
	min := mb.next
	for _, c := range mb.cursors {
		if c.pos < min {
			min = c.pos
		}
	}
	if min == mb.base {
		return
	}
	wasFull := mb.Full()
	for i := mb.base; i < min; i++ {
		*mb.slot(i) = Entry{} // release payload references promptly
	}
	mb.base = min
	if mb.Rec.Enabled() {
		mb.Rec.SetGauge(obs.GRingOccupancy, int64(mb.Len()))
	}
	if wasFull && !mb.Full() {
		mb.notFull.WakeAll(mb.sched)
	}
	if mb.Len() == 0 {
		mb.drained.WakeAll(mb.sched)
	}
}

// append stores one entry (capacity already checked).
func (mb *MultiBuffer) append(e Entry) {
	if e.Kind == KindSyscall {
		e.Event.Seq = mb.seq
		mb.seq++
	}
	e.PutAt = mb.sched.Now()
	if mb.Len() == len(mb.buf) {
		mb.grow()
	}
	*mb.slot(mb.next) = e
	mb.next++
	if len(mb.cursors) == 0 {
		// Nobody will ever read it: reclaim immediately so a cursor-less
		// buffer cannot wedge its producer (and never counts as occupancy).
		mb.reclaim()
	}
	if occ := mb.Len(); occ > mb.HighWater {
		mb.HighWater = occ
	}
	if mb.Rec.Enabled() {
		mb.Rec.Inc(obs.CRingPut)
		mb.Rec.SetGauge(obs.GRingOccupancy, int64(mb.Len()))
		mb.Rec.MaxGauge(obs.GRingHighWater, int64(mb.HighWater))
	}
	// empty→non-empty per cursor: wake consumers that were waiting for
	// exactly this entry.
	for _, c := range mb.cursors {
		if c.pos+1 == mb.next {
			c.notEmpty.WakeAll(mb.sched)
		}
	}
}

// blockUntilNotFull parks the producer until retention frees a slot, a
// cursor closes, or the buffer closes. Reports false if closed.
func (mb *MultiBuffer) blockUntilNotFull(t *sim.Task) bool {
	for mb.Full() {
		if mb.closed {
			return false
		}
		mb.ProducerBlocked++
		mb.Rec.Inc(obs.CRingBlocked)
		if mb.Rec.Enabled() {
			mb.Rec.Emitf(obs.KindRingBlock, t.Name(), "multibuf full (%d/%d, %d cursors)",
				mb.Len(), mb.capacity, len(mb.cursors))
			blockedAt := t.Now()
			t.Block(&mb.notFull)
			mb.Rec.Observe(obs.HRingBlockWait, t.Now()-blockedAt)
			if mb.Rec.ProfilingEnabled() {
				t.ChargeWait(obs.LblRingWait, blockedAt)
			}
		} else {
			t.Block(&mb.notFull)
		}
	}
	return !mb.closed
}

// Put appends one entry, blocking the producer while retention is full.
// Reports false if the buffer was closed.
func (mb *MultiBuffer) Put(t *sim.Task, e Entry) bool {
	if !mb.blockUntilNotFull(t) {
		return false
	}
	mb.append(e)
	return true
}

// PutBatch appends every entry in order, blocking whenever retention is
// full, and returns how many entries were appended (the tail is dropped
// and ok is false only if the buffer closes mid-batch).
func (mb *MultiBuffer) PutBatch(t *sim.Task, batch []Entry) (appended int, ok bool) {
	for _, e := range batch {
		if !mb.blockUntilNotFull(t) {
			return appended, false
		}
		mb.append(e)
		appended++
	}
	return appended, true
}

// TryAppend appends without blocking: it reports false if retention is
// full or the buffer closed (the discard-policy path — the monitor reads
// a failed append as "the slowest variant lags too far").
func (mb *MultiBuffer) TryAppend(e Entry) bool {
	if mb.closed || mb.Full() {
		if !mb.closed {
			mb.Dropped++
			mb.Rec.Inc(obs.CRingDropped)
		}
		return false
	}
	mb.append(e)
	return true
}

// WaitDrained blocks until every open cursor has consumed every
// appended entry (or the buffer closed), mirroring Buffer.WaitDrained
// for the lockstep leader.
func (mb *MultiBuffer) WaitDrained(t *sim.Task) {
	if mb.Rec.ProfilingEnabled() && mb.Len() > 0 && !mb.closed {
		blockedAt := t.Now()
		for mb.Len() > 0 && !mb.closed {
			t.Block(&mb.drained)
		}
		t.ChargeWait(obs.LblLockstepWait, blockedAt)
		return
	}
	for mb.Len() > 0 && !mb.closed {
		t.Block(&mb.drained)
	}
}

// Close marks the buffer closed and wakes everything: the producer, all
// cursor consumers, and drain waiters. Cursors can still drain what is
// retained.
func (mb *MultiBuffer) Close() {
	if mb.closed {
		return
	}
	mb.closed = true
	mb.notFull.WakeAll(mb.sched)
	mb.drained.WakeAll(mb.sched)
	for _, c := range mb.cursors {
		c.notEmpty.WakeAll(mb.sched)
	}
}

// Reset discards all retained entries, detaches every cursor, reopens
// the buffer, and restarts sequence numbering. Used when a fleet is torn
// down and rebuilt (e.g. after a promotion installs a new leader).
func (mb *MultiBuffer) Reset() {
	for i := mb.base; i < mb.next; i++ {
		*mb.slot(i) = Entry{}
	}
	mb.base, mb.next = 0, 0
	mb.seq = 0
	mb.closed = false
	mb.HighWater = 0
	mb.ProducerBlocked = 0
	mb.Dropped = 0
	for _, c := range mb.cursors {
		c.closed = true
		c.notEmpty.WakeAll(mb.sched)
	}
	mb.cursors = nil
	mb.Rec.Inc(obs.CRingResets)
	mb.Rec.SetGauge(obs.GRingOccupancy, 0)
	mb.Rec.Emit(obs.KindRingReset, "multibuf", "reset: entries discarded, cursors detached, seq restarted")
	mb.notFull.WakeAll(mb.sched)
	mb.drained.WakeAll(mb.sched)
}

// Name returns the cursor's name.
func (c *Cursor) Name() string { return c.name }

// Lag returns how many appended entries this cursor has not consumed.
// A closed cursor reports 0: it retains nothing and will read nothing.
func (c *Cursor) Lag() int {
	if c.closed {
		return 0
	}
	return int(c.mb.next - c.pos)
}

// Len reports the cursor's pending entries (its view of occupancy).
func (c *Cursor) Len() int { return c.Lag() }

// Empty reports whether the cursor has consumed every appended entry.
func (c *Cursor) Empty() bool { return c.pos == c.mb.next }

// Closed reports whether the cursor was released (or its buffer closed):
// the consumer-side teardown signal, mirroring Buffer.Closed for the
// shared follower machinery.
func (c *Cursor) Closed() bool { return c.closed || c.mb.closed }

// Close releases the cursor: its retention is reclaimed immediately, a
// producer parked behind its backlog resumes, and any consumer parked on
// it observes teardown. Closing twice is a no-op. This is the variant
// eject path.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	lag := c.Lag()
	c.closed = true
	mb := c.mb
	for i, oc := range mb.cursors {
		if oc == c {
			mb.cursors = append(mb.cursors[:i], mb.cursors[i+1:]...)
			break
		}
	}
	mb.Rec.Emitf(obs.KindRingGet, c.name, "cursor closed at #%d lag %d (%d open)", c.pos, lag, len(mb.cursors))
	c.notEmpty.WakeAll(mb.sched)
	mb.reclaim()
	if len(mb.cursors) == 0 && mb.Len() == 0 {
		mb.drained.WakeAll(mb.sched)
	}
}

// lagDetail is the hot-trace detail of one cursor read: the entry and
// the cursor's lag right after it.
type lagDetail struct {
	entry Entry
	lag   int
}

func (d lagDetail) String() string {
	return fmt.Sprintf("%s (lag %d)", entryDetail(d.entry), d.lag)
}

// take consumes the entry at the cursor position (bounds already
// checked), charging the shared per-entry accounting.
func (c *Cursor) take(t *sim.Task) Entry {
	e := *c.mb.slot(c.pos)
	c.pos++
	if c.mb.Rec.Enabled() {
		c.mb.Rec.Inc(obs.CRingGet)
		c.mb.Rec.EmitLazy(obs.KindRingGet, c.name, lagDetail{e, c.Lag()})
	}
	return e
}

// Get removes and returns the cursor's oldest pending entry, blocking
// while its view is empty. Reports false once the cursor (or buffer) is
// closed and drained.
// blockEmpty parks a consumer on the cursor's empty view, charging the
// blocked interval to the ring_wait dimension when profiling is on.
func (c *Cursor) blockEmpty(t *sim.Task) {
	if c.mb.Rec.ProfilingEnabled() {
		blockedAt := t.Now()
		t.Block(&c.notEmpty)
		t.ChargeWait(obs.LblRingWait, blockedAt)
	} else {
		t.Block(&c.notEmpty)
	}
}

func (c *Cursor) Get(t *sim.Task) (Entry, bool) {
	for c.Empty() {
		if c.Closed() {
			return Entry{}, false
		}
		c.blockEmpty(t)
	}
	if c.closed {
		return Entry{}, false
	}
	e := c.take(t)
	c.mb.reclaim()
	return e, true
}

// DrainUpTo removes up to max pending entries (all of them when max <= 0)
// in one call, appending to dst. It blocks while the cursor's view is
// empty; a return with nothing appended means the cursor or buffer
// closed. The whole batch transfers in one scheduler round-trip, with
// per-entry accounting, mirroring Buffer.DrainUpTo.
func (c *Cursor) DrainUpTo(t *sim.Task, dst []Entry, max int) []Entry {
	for c.Empty() {
		if c.Closed() {
			return dst
		}
		c.blockEmpty(t)
	}
	if c.closed {
		return dst
	}
	n := c.Lag()
	if max > 0 && n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		dst = append(dst, c.take(t))
	}
	c.mb.reclaim()
	return dst
}

// DrainInto removes every pending entry in one call; see DrainUpTo.
func (c *Cursor) DrainInto(t *sim.Task, dst []Entry) []Entry {
	return c.DrainUpTo(t, dst, 0)
}

// String describes the cursor for logs.
func (c *Cursor) String() string {
	return fmt.Sprintf("cursor %s@#%d (lag %d)", c.name, c.pos, c.Lag())
}
