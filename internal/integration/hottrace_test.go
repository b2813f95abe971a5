package integration

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mvedsua/internal/apps/kvstore"
	"mvedsua/internal/apptest"
	"mvedsua/internal/core"
	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files")

// hotTraceCap is small enough that both scenarios wrap the hot ring, so
// the goldens pin eviction as well as the rendered detail of every
// retained syscall, validation and ring event.
const hotTraceCap = 256

// smallRingRecorder returns a recorder with a hotTraceCap-entry hot
// ring whose clock is read through *clock, which the caller points at
// the world's scheduler once the world exists.
func smallRingRecorder(clock **sim.Scheduler) *obs.Recorder {
	return obs.New(func() time.Duration { return (*clock).Now() }, obs.Options{TraceCapacity: hotTraceCap})
}

// checkGolden compares got against testdata/name byte for byte
// (rewriting the file under -update).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if string(want) != got {
		t.Fatalf("%s differs from the rendered timeline (%d vs %d bytes); first difference at byte %d",
			path, len(want), len(got), firstDiff(string(want), got))
	}
}

func firstDiff(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestHotTimelineGoldenDuo pins the full timeline, hot events included,
// of a kvstore duo taken through one update on a wrapped hot ring.
func TestHotTimelineGoldenDuo(t *testing.T) {
	var s *sim.Scheduler
	w := apptest.NewWorld(core.Config{Recorder: smallRingRecorder(&s)})
	s = w.S
	w.C.Start(kvstore.New(kvstore.SpecFor("2.0.0", false)))
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		c := apptest.Connect(w.K, tk, kvstore.Port)
		defer c.Close(tk)
		for i := 0; i < 8; i++ {
			c.Do(tk, fmt.Sprintf("SET k%d v%d", i, i))
		}
		w.C.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{PerEntryXform: time.Microsecond}))
		for i := 0; i < 6; i++ {
			c.Do(tk, fmt.Sprintf("GET k%d", i))
			c.Do(tk, "INCR n")
			tk.Sleep(5 * time.Millisecond)
		}
		w.C.Promote()
		pump(tk, c, 4)
		w.C.Commit()
		pump(tk, c, 2)
	})
	if err := w.Run(time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if w.Rec.TraceDropped() == 0 {
		t.Fatalf("hot ring never wrapped; grow the scenario past %d hot events", hotTraceCap)
	}
	checkGolden(t, "hot_timeline_duo.golden", w.Rec.FormatTimeline(false))
}

// TestHotTimelineGoldenFleet pins the full timeline of a K=3 kvstore
// fleet through a canary update, which exercises the multi-cursor ring
// reads, on a wrapped hot ring.
func TestHotTimelineGoldenFleet(t *testing.T) {
	var s *sim.Scheduler
	w := apptest.NewFleetWorld(core.FleetConfig{
		Config:   core.Config{Recorder: smallRingRecorder(&s)},
		Variants: []string{"r1", "r2", "r3"},
		Canary:   core.CanaryGate{Window: 100 * time.Millisecond, MaxDivergences: 2},
	})
	s = w.S
	w.C.Start(kvstore.New(kvstore.SpecFor("2.0.0", false)))
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		c := apptest.Connect(w.K, tk, kvstore.Port)
		defer c.Close(tk)
		for i := 0; i < 6; i++ {
			c.Do(tk, fmt.Sprintf("SET f%d %d", i, i))
		}
		w.C.Update(kvstore.Update("2.0.0", "2.0.1", kvstore.UpdateOpts{}))
		for i := 0; i < 30; i++ {
			c.Do(tk, "INCR fleet")
			tk.Sleep(5 * time.Millisecond)
		}
		tk.Sleep(200 * time.Millisecond)
		if n := w.Rec.Counter(obs.CCanaryPromotions); n != 1 {
			t.Errorf("canary promotions = %d, want 1", n)
		}
	})
	if err := w.Run(time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if w.Rec.TraceDropped() == 0 {
		t.Fatalf("hot ring never wrapped; grow the scenario past %d hot events", hotTraceCap)
	}
	checkGolden(t, "hot_timeline_fleet.golden", w.Rec.FormatTimeline(false))
}
