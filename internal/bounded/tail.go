// Package bounded holds Tail, the newest-N store behind every bounded
// log in the pipeline: the flight recorder's hot ring and span store,
// the scheduler's dispatch trace and the MVE monitor's event log. It is
// a leaf package so sim and obs, which import nothing internal, can use
// it.
package bounded

// Tail keeps the newest Limit items pushed into it and counts the older
// ones it evicted. Storage grows by append until the limit is reached
// (NewTailPrealloc allocates it all at once), after which each push
// overwrites the oldest slot. The zero value has
// limit 0 and drops everything pushed into it.
type Tail[T any] struct {
	items   []T
	limit   int
	start   int // index of the oldest item once the tail is full
	dropped int64
}

// NewTail returns an empty tail that retains at most limit items.
func NewTail[T any](limit int) Tail[T] { return Tail[T]{limit: limit} }

// NewTailPrealloc is NewTail with storage for all limit items allocated
// up front, for a tail that is sure to fill: it skips the append growth
// and the garbage that growth leaves.
func NewTailPrealloc[T any](limit int) Tail[T] {
	return Tail[T]{items: make([]T, 0, limit), limit: limit}
}

// Push appends v, evicting the oldest item when the tail is full.
func (t *Tail[T]) Push(v T) {
	if len(t.items) < t.limit {
		t.items = append(t.items, v)
		return
	}
	t.dropped++
	if t.limit == 0 {
		return
	}
	t.items[t.start] = v
	if t.start++; t.start == t.limit {
		t.start = 0
	}
}

// Items returns a copy of the retained items, oldest first, or nil when
// the tail is empty.
func (t *Tail[T]) Items() []T {
	if len(t.items) == 0 {
		return nil
	}
	out := make([]T, 0, len(t.items))
	out = append(out, t.items[t.start:]...)
	return append(out, t.items[:t.start]...)
}

// Len returns the number of retained items.
func (t *Tail[T]) Len() int { return len(t.items) }

// Limit returns the most items the tail retains.
func (t *Tail[T]) Limit() int { return t.limit }

// Dropped returns how many items Push evicted.
func (t *Tail[T]) Dropped() int64 { return t.dropped }
