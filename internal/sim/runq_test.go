package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestTaskRingMatchesReferenceQueue drives the circular run queue and a
// plain slice FIFO with the same random pushes and pops and compares
// them after every step. Bursts of pushes while the ring is wrapped
// exercise growth with head != 0.
func TestTaskRingMatchesReferenceQueue(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tasks := make([]*Task, 256)
			for i := range tasks {
				tasks[i] = &Task{id: i}
			}
			var ring taskRing
			var ref []*Task
			wrappedGrowths := 0
			for step := 0; step < 5000; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					tk := tasks[rng.Intn(len(tasks))]
					if ring.n == len(ring.buf) && ring.head != 0 {
						wrappedGrowths++
					}
					ring.push(tk)
					ref = append(ref, tk)
				case op < 9:
					if len(ref) == 0 {
						continue
					}
					got, want := ring.pop(), ref[0]
					ref = ref[1:]
					if got != want {
						t.Fatalf("step %d: pop = task %d, ref %d", step, got.id, want.id)
					}
				default: // burst: grow past the current size
					for n := rng.Intn(40); n > 0; n-- {
						tk := tasks[rng.Intn(len(tasks))]
						if ring.n == len(ring.buf) && ring.head != 0 {
							wrappedGrowths++
						}
						ring.push(tk)
						ref = append(ref, tk)
					}
				}
				if ring.n != len(ref) {
					t.Fatalf("step %d: len = %d, ref %d", step, ring.n, len(ref))
				}
				if size := len(ring.buf); size&(size-1) != 0 {
					t.Fatalf("step %d: ring size %d is not a power of two", step, size)
				}
				for i, want := range ref {
					if got := ring.buf[(ring.head+i)&(len(ring.buf)-1)]; got != want {
						t.Fatalf("step %d: slot %d = task %d, ref %d", step, i, got.id, want.id)
					}
				}
				for i := ring.n; i < len(ring.buf); i++ {
					if ring.buf[(ring.head+i)&(len(ring.buf)-1)] != nil {
						t.Fatalf("step %d: free slot %d still holds a task", step, i)
					}
				}
			}
			for len(ref) > 0 {
				if got := ring.pop(); got != ref[0] {
					t.Fatalf("drain: pop = task %d, ref %d", got.id, ref[0].id)
				}
				ref = ref[1:]
			}
			if wrappedGrowths == 0 {
				t.Fatal("no growth happened while the ring was wrapped")
			}
		})
	}
}

// The steady dispatch path allocates nothing: each RunFor below makes
// ten dispatches of tasks that charge a microsecond and yield.
func TestSteadyDispatchAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tasks int
	}{{"enqueue_dispatch", 1}, {"yield_ping_pong", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			for i := 0; i < tc.tasks; i++ {
				s.Go("spinner", func(tk *Task) {
					for {
						tk.Advance(time.Microsecond)
						tk.Yield()
					}
				})
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := s.RunFor(10 * time.Microsecond); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%v allocs per 10 dispatches, want 0", allocs)
			}
			if got := s.Dispatches(); got < 1000 {
				t.Fatalf("only %d dispatches", got)
			}
		})
	}
}
