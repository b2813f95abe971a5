package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// countingDetail is a lazy detail that counts its renders.
type countingDetail struct {
	renders *int
	text    string
}

func (d countingDetail) String() string {
	*d.renders++
	return d.text
}

// TestEmitLazyRendersOnlyRetainedSlotsOnRead pins the laziness
// contract: nothing is rendered at emit time or for evicted slots, each
// retained slot is rendered exactly once per Trace, and the recorder's
// accounting is the same as for eager events.
func TestEmitLazyRendersOnlyRetainedSlotsOnRead(t *testing.T) {
	clk := &manualClock{}
	r := New(clk.now, Options{TraceCapacity: 4})
	renders := make([]int, 10)
	r.Emit(KindStage, "ctl", "deployed")
	for i := range renders {
		clk.t = time.Duration(i+1) * time.Second
		r.EmitLazy(KindSyscall, "p", countingDetail{&renders[i], fmt.Sprintf("call %d", i)})
	}
	for i, n := range renders {
		if n != 0 {
			t.Fatalf("detail %d rendered %d times at emit time", i, n)
		}
	}
	before := r.Snapshot()
	if before.TraceLen != 5 || r.TraceDropped() != 6 {
		t.Fatalf("TraceLen = %d, dropped = %d; want 5 and 6", before.TraceLen, r.TraceDropped())
	}
	for pass := 1; pass <= 2; pass++ {
		trace := r.Trace()
		for i, n := range renders {
			want := 0
			if i >= 6 {
				want = pass
			}
			if n != want {
				t.Fatalf("Trace #%d: detail %d rendered %d times, want %d", pass, i, n, want)
			}
		}
		if got := trace[len(trace)-1].Detail; got != "call 9" {
			t.Fatalf("newest detail = %q, want %q", got, "call 9")
		}
	}
	after := r.Snapshot()
	if after.TraceLen != before.TraceLen || after.TraceDropped != before.TraceDropped {
		t.Fatalf("reading the trace changed the accounting: %+v -> %+v", before, after)
	}
	r.FormatTimeline(true)
	if renders[9] != 2 {
		t.Fatalf("FormatTimeline(true) rendered a hot detail (%d renders)", renders[9])
	}
	r.FormatTimeline(false)
	if renders[9] != 3 {
		t.Fatalf("FormatTimeline(false) rendered the newest detail %d times in all, want 3", renders[9])
	}
}

// TestEmitLazyMatchesEmit: a recorder fed lazy details reads back
// exactly like one fed the same details eagerly.
func TestEmitLazyMatchesEmit(t *testing.T) {
	eager, lazy := &manualClock{}, &manualClock{}
	re := New(eager.now, Options{TraceCapacity: 3, MilestoneCapacity: 2})
	rl := New(lazy.now, Options{TraceCapacity: 3, MilestoneCapacity: 2})
	var renders int
	kinds := []Kind{KindSyscall, KindStage, KindRingPut, KindValidate, KindRole, KindRingGet, KindFault, KindSyscall}
	for i, k := range kinds {
		eager.t, lazy.t = time.Duration(i)*time.Millisecond, time.Duration(i)*time.Millisecond
		text := fmt.Sprintf("event %d", i)
		re.Emit(k, "a", text)
		rl.EmitLazy(k, "a", countingDetail{&renders, text})
	}
	if renders != 2 {
		t.Fatalf("%d details rendered at emit time, want 2 (the retained milestones)", renders)
	}
	for _, only := range []bool{false, true} {
		if e, l := re.FormatTimeline(only), rl.FormatTimeline(only); e != l {
			t.Fatalf("FormatTimeline(%v) differs:\neager:\n%s\nlazy:\n%s", only, e, l)
		}
	}
	if e, l := re.Snapshot(), rl.Snapshot(); e.TraceLen != l.TraceLen ||
		e.TraceDropped != l.TraceDropped || e.MilestonesDropped != l.MilestonesDropped {
		t.Fatalf("snapshots differ: %+v vs %+v", e, l)
	}
}

// TestMilestoneAtCapacityIsNotFormatted: Emitf and EmitLazy check the
// milestone cap before rendering, and still count the drop.
func TestMilestoneAtCapacityIsNotFormatted(t *testing.T) {
	r := New(nil, Options{MilestoneCapacity: 2})
	r.Emit(KindStage, "ctl", "one")
	r.Emit(KindStage, "ctl", "two")
	var renders int
	r.Emitf(KindStage, "ctl", "three %s", countingDetail{&renders, "x"})
	r.EmitLazy(KindRole, "p", countingDetail{&renders, "four"})
	if renders != 0 {
		t.Fatalf("a dropped milestone was rendered %d times", renders)
	}
	if got := r.Snapshot().MilestonesDropped; got != 2 {
		t.Fatalf("milestonesDropped = %d, want 2", got)
	}
	if got := len(r.Milestones()); got != 2 {
		t.Fatalf("milestones = %d, want 2", got)
	}
}

// TestFormatTimelineMilestonesMatchFilteredTrace: the milestone-only
// timeline is the merged trace with the hot events filtered out, also
// when milestones were emitted out of time order or at equal times.
func TestFormatTimelineMilestonesMatchFilteredTrace(t *testing.T) {
	clk := &manualClock{}
	r := New(clk.now, Options{TraceCapacity: 2})
	for i, at := range []int{5, 3, 3, 9, 1, 3, 7, 7} {
		clk.t = time.Duration(at) * time.Millisecond
		kind := KindStage
		if i%3 == 1 {
			kind = KindSyscall
		}
		r.Emit(kind, "a", fmt.Sprintf("event %d", i))
	}
	var want strings.Builder
	for _, e := range r.Trace() {
		if !e.Kind.Hot() {
			want.WriteString(e.String() + "\n")
		}
	}
	if got := r.FormatTimeline(true); got != want.String() {
		t.Fatalf("FormatTimeline(true):\n%s\nwant:\n%s", got, want.String())
	}
}

// BenchmarkRecorderHotEmit measures one hot event into a warm (wrapped)
// ring: lazy, the way the per-syscall and per-entry sites emit, and
// eager through Emitf for contrast.
//
//	go test -bench RecorderHotEmit -benchmem ./internal/obs/
func BenchmarkRecorderHotEmit(b *testing.B) {
	newWarm := func() *Recorder {
		r := New(nil, Options{TraceCapacity: 1024})
		for i := 0; i < 2048; i++ {
			r.Emit(KindRingPut, "syscall", "warm")
		}
		return r
	}
	b.Run("lazy", func(b *testing.B) {
		r := newWarm()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.EmitLazy(KindRingPut, "syscall", benchDetail{uint64(i), i & 255, 256})
		}
	})
	b.Run("eager", func(b *testing.B) {
		r := newWarm()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Emitf(KindRingPut, "syscall", "#%d (occ %d/%d)", uint64(i), i&255, 256)
		}
	})
}

// benchDetail is a ring-put-shaped lazy detail.
type benchDetail struct {
	seq      uint64
	occ, cap int
}

func (d benchDetail) String() string { return fmt.Sprintf("#%d (occ %d/%d)", d.seq, d.occ, d.cap) }
