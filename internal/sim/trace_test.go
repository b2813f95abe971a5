package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestTraceCapCircularTail pins the fix for unbounded trace growth:
// once the cap is hit, the trace becomes a circular tail that keeps the
// newest entries and counts what it evicted.
func TestTraceCapCircularTail(t *testing.T) {
	s := New()
	s.SetTraceCapacity(4)
	s.SetTracing(true)
	s.Go("worker", func(tk *Task) {
		for i := 0; i < 10; i++ {
			tk.Advance(time.Microsecond)
			tk.Yield()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	trace := s.Trace()
	if len(trace) != 4 {
		t.Fatalf("trace length %d, want capacity 4\ntrace: %v", len(trace), trace)
	}
	total := s.Dispatches()
	if want := total - 4; s.TraceDropped() != want {
		t.Errorf("TraceDropped = %d, want %d (of %d dispatches)", s.TraceDropped(), want, total)
	}
	// The surviving window must be the newest dispatches in order: the
	// worker yields every 1µs, so timestamps are strictly increasing and
	// the last entry is the final dispatch.
	for i := 1; i < len(trace); i++ {
		if trace[i-1] >= trace[i] && len(trace[i-1]) == len(trace[i]) {
			t.Errorf("trace not in dispatch order at %d: %q then %q", i, trace[i-1], trace[i])
		}
	}
	// The final dispatch is the one that resumes the worker after its
	// last Yield, at the final clock value.
	last := fmt.Sprintf("%d:worker", s.Now()/time.Microsecond)
	if trace[len(trace)-1] != last {
		t.Errorf("newest trace entry %q, want %q", trace[len(trace)-1], last)
	}
}

// TestTraceDefaultCapBounded verifies SetTracing alone cannot grow the
// trace past DefaultTraceCap (the regression this PR fixes: it used to
// append forever).
func TestTraceDefaultCapBounded(t *testing.T) {
	s := New()
	s.SetTracing(true)
	if s.trace.Limit() != DefaultTraceCap {
		t.Fatalf("trace limit = %d after SetTracing, want DefaultTraceCap %d", s.trace.Limit(), DefaultTraceCap)
	}
}

// TestSetTraceCapacityClears documents that resizing restarts the tail.
func TestSetTraceCapacityClears(t *testing.T) {
	s := New()
	s.SetTraceCapacity(2)
	s.SetTracing(true)
	s.Go("a", func(tk *Task) {
		for i := 0; i < 5; i++ {
			tk.Yield()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s.SetTraceCapacity(8)
	if len(s.Trace()) != 0 || s.TraceDropped() != 0 {
		t.Fatalf("trace not cleared by SetTraceCapacity: len=%d dropped=%d", len(s.Trace()), s.TraceDropped())
	}
}

// TestOnSliceObservesDispatches checks the dispatch hook sees every run
// slice with its virtual interval, and that attaching it does not
// change scheduling (same final clock and dispatch count as a bare
// run).
func TestOnSliceObservesDispatches(t *testing.T) {
	run := func(hook bool) (slices int, busy time.Duration, clock time.Duration, dispatches int64) {
		s := New()
		if hook {
			s.OnSlice = func(task string, start, end time.Duration) {
				if end < start {
					t.Errorf("slice for %q ends before it starts: %v > %v", task, start, end)
				}
				slices++
				busy += end - start
			}
		}
		s.Go("a", func(tk *Task) {
			tk.Advance(3 * time.Millisecond)
			tk.Yield()
			tk.Advance(time.Millisecond)
		})
		s.Go("b", func(tk *Task) {
			tk.Sleep(2 * time.Millisecond)
		})
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return slices, busy, s.Now(), s.Dispatches()
	}
	slices, busy, clock, dispatches := run(true)
	if int64(slices) != dispatches {
		t.Errorf("hook saw %d slices, want one per dispatch (%d)", slices, dispatches)
	}
	// Task a charges 4ms of CPU; task b sleeps (off-CPU). The summed
	// slice time is exactly the charged work.
	if want := 4 * time.Millisecond; busy != want {
		t.Errorf("summed slice time %v, want %v", busy, want)
	}
	_, _, bareClock, bareDispatches := run(false)
	if clock != bareClock || dispatches != bareDispatches {
		t.Errorf("OnSlice perturbed the run: clock %v vs %v, dispatches %d vs %d",
			clock, bareClock, dispatches, bareDispatches)
	}
}
