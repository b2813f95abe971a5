package bounded

import (
	"fmt"
	"reflect"
	"testing"
)

// TestTailMatchesModel pushes 0..n-1 into a tail and compares it with
// the model "the last min(n, limit) values, the rest dropped", at the
// fill levels where a circular store goes wrong: empty, one short of
// full, exactly full, and wrapped more than twice.
func TestTailMatchesModel(t *testing.T) {
	for _, c := range []struct {
		name string
		make func(int) Tail[int]
	}{{"grow", NewTail[int]}, {"prealloc", NewTailPrealloc[int]}} {
		for _, limit := range []int{1, 2, 5, 8} {
			for _, n := range []int{0, limit - 1, limit, 2*limit + 3} {
				t.Run(fmt.Sprintf("%s/limit%d/n%d", c.name, limit, n), func(t *testing.T) {
					checkTailModel(t, c.make(limit), limit, n)
				})
			}
		}
	}
}

func checkTailModel(t *testing.T, tl Tail[int], limit, n int) {
	var model []int
	for i := 0; i < n; i++ {
		tl.Push(i)
		model = append(model, i)
	}
	dropped := 0
	if len(model) > limit {
		dropped = len(model) - limit
		model = model[dropped:]
	}
	if model == nil {
		if got := tl.Items(); got != nil {
			t.Fatalf("Items() = %v, want nil", got)
		}
	} else if got := tl.Items(); !reflect.DeepEqual(got, model) {
		t.Fatalf("Items() = %v, want %v", got, model)
	}
	if tl.Len() != len(model) || tl.Dropped() != int64(dropped) || tl.Limit() != limit {
		t.Fatalf("Len %d Dropped %d Limit %d, want %d %d %d",
			tl.Len(), tl.Dropped(), tl.Limit(), len(model), dropped, limit)
	}
}

// TestTailItemsIsACopy checks a caller cannot reach the live storage.
func TestTailItemsIsACopy(t *testing.T) {
	tl := NewTail[int](3)
	tl.Push(1)
	tl.Items()[0] = 99
	if got := tl.Items()[0]; got != 1 {
		t.Fatalf("Items()[0] = %d after mutating a returned slice, want 1", got)
	}
}

// TestTailZeroValueDropsEverything pins the zero value's behaviour.
func TestTailZeroValueDropsEverything(t *testing.T) {
	var tl Tail[string]
	tl.Push("a")
	tl.Push("b")
	if tl.Len() != 0 || tl.Items() != nil || tl.Dropped() != 2 {
		t.Fatalf("zero Tail: Len %d Items %v Dropped %d", tl.Len(), tl.Items(), tl.Dropped())
	}
}
