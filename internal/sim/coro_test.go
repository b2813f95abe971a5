package sim

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// Tasks are coroutines: these tests pin what the coroutine keeps alive,
// how it unwinds, and that any goroutine may resume it.

// awaitFinalizer forces collections until done closes, failing the test
// if it has not after a few seconds.
func awaitFinalizer(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-done:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s was never collected", what)
		}
	}
}

// payload is big enough to get its own allocation, so its finalizer
// reports exactly its own collection.
type payload [1 << 12]byte

func newTrackedPayload() (*payload, <-chan struct{}) {
	p := new(payload)
	collected := make(chan struct{})
	runtime.SetFinalizer(p, func(*payload) { close(collected) })
	return p, collected
}

func TestCoroutineReleasesCapturedStateWhileParked(t *testing.T) {
	s := New()
	var q WaitQueue
	var sum byte
	var parked *Task
	collected := func() <-chan struct{} {
		p, collected := newTrackedPayload()
		parked = s.Go("holder", func(tk *Task) {
			sum += p[0] // last use of p
			tk.Block(&q)
		})
		return collected
	}()
	if err := s.Run(); err == nil {
		t.Fatal("Run returned nil with the holder still blocked")
	}
	awaitFinalizer(t, collected, "payload captured by a parked task")
	if parked.State() != StateBlocked {
		t.Fatalf("holder state = %v, want blocked", parked.State())
	}
	runtime.KeepAlive(s)
}

func TestFinishedTaskPinsNothing(t *testing.T) {
	s := New()
	var sum byte
	var finished *Task
	collected := func() <-chan struct{} {
		p, collected := newTrackedPayload()
		finished = s.Go("user", func(tk *Task) {
			tk.Yield()
			sum += p[0]
		})
		return collected
	}()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	awaitFinalizer(t, collected, "payload captured by a finished task")
	if !finished.Done() {
		t.Fatal("task not done")
	}
	if finished.next != nil || finished.yield != nil {
		t.Fatal("finished task still references its coroutine")
	}
}

func TestCoroutineKillUnwindsDeferredCleanup(t *testing.T) {
	s := New()
	var q WaitQueue
	var cleaned []string
	victim := func(name string, park func(*Task)) *Task {
		return s.Go(name, func(tk *Task) {
			defer func() { cleaned = append(cleaned, name) }()
			tk.Yield() // kill a coroutine that has already been resumed once
			park(tk)
			t.Errorf("%s survived kill", name)
		})
	}
	blocked := victim("blocked", func(tk *Task) { tk.Block(&q) })
	sleeping := victim("sleeping", func(tk *Task) { tk.Sleep(time.Hour) })
	s.Go("killer", func(tk *Task) {
		tk.Yield()
		tk.Yield()
		blocked.Kill()
		sleeping.Kill()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(cleaned) != 2 || cleaned[0] != "blocked" || cleaned[1] != "sleeping" {
		t.Fatalf("deferred cleanup ran for %v, want [blocked sleeping]", cleaned)
	}
	for _, v := range []*Task{blocked, sleeping} {
		if !v.Done() || v.Crashed() || v.next != nil {
			t.Fatalf("%s: done=%v crashed=%v coroutine kept=%v", v.Name(), v.Done(), v.Crashed(), v.next != nil)
		}
	}
	if s.Now() >= time.Hour {
		t.Fatalf("clock ran to the sleep deadline: %v", s.Now())
	}
}

func TestCoroutineCrashReachesOnCrash(t *testing.T) {
	s := New()
	var crashes []CrashInfo
	s.OnCrash = func(c CrashInfo) { crashes = append(crashes, c) }
	cleaned := false
	bad := s.Go("bad", func(tk *Task) {
		defer func() { cleaned = true }()
		tk.Sleep(time.Millisecond)
		tk.Yield()
		panic("boom")
	})
	after := false
	s.Go("bystander", func(tk *Task) {
		tk.Sleep(2 * time.Millisecond)
		after = true
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(crashes) != 1 || crashes[0].Task != "bad" || crashes[0].Value != "boom" {
		t.Fatalf("crashes = %+v", crashes)
	}
	if !cleaned || !bad.Crashed() || bad.next != nil {
		t.Fatalf("cleaned=%v crashed=%v coroutine kept=%v", cleaned, bad.Crashed(), bad.next != nil)
	}
	if !after {
		t.Fatal("scheduler stopped after the crash")
	}
}

// goroutineID parses the current goroutine's id from its stack header.
func goroutineID() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.Atoi(string(buf[:bytes.IndexByte(buf, ' ')]))
	if err != nil {
		panic(err)
	}
	return id
}

// runEpoch drives each shard from a fresh goroutine, so a task's
// coroutine is resumed by a different goroutine every epoch while its
// own stack, and the goroutine it runs on, carry over.
func TestShardedResumesCoroutinesFromFreshGoroutines(t *testing.T) {
	const epochs = 8
	ss := NewSharded(2, time.Millisecond)
	var resumers [2]map[int]bool
	var bodies [2]map[int]bool
	var ticks [2]int
	for shard := 0; shard < 2; shard++ {
		shard := shard
		resumers[shard] = map[int]bool{}
		bodies[shard] = map[int]bool{}
		ss.Shard(shard).OnSlice = func(string, time.Duration, time.Duration) {
			resumers[shard][goroutineID()] = true
		}
		ss.Go(shard, "ticker", func(tk *Task) {
			local := 0 // lives on the coroutine stack across epochs
			for i := 0; i < epochs; i++ {
				bodies[shard][goroutineID()] = true
				local++
				tk.Sleep(time.Millisecond)
			}
			ticks[shard] = local
		})
	}
	if err := ss.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for shard := 0; shard < 2; shard++ {
		if ticks[shard] != epochs {
			t.Fatalf("shard %d: ticker counted %d, want %d", shard, ticks[shard], epochs)
		}
		if len(bodies[shard]) != 1 {
			t.Fatalf("shard %d: task body ran on %d goroutines, want 1", shard, len(bodies[shard]))
		}
		if len(resumers[shard]) < epochs {
			t.Fatalf("shard %d: resumed from %d goroutines over %d epochs", shard, len(resumers[shard]), epochs)
		}
	}
}
