package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// small shrinks a workload so a test runs it in well under a second of
// wall time; the mechanisms are the same as the full size.
func small(t *testing.T, name string) spec {
	t.Helper()
	sp, err := specFor(name)
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case wlDuo:
		sp.keys, sp.window = 256, 40*time.Millisecond
	case wlUpdate:
		sp.keys, sp.dwell = 512, 10*time.Millisecond
	case wlSharded:
		sp.keys, sp.window = 128, 20*time.Millisecond
	}
	return sp
}

// runOnce sets up and measures one world with a short wall budget and
// returns the oracle's verdict, the phase and the virtual summary.
func runOnce(t *testing.T, sp spec, seed int64) (result, *phase, string) {
	t.Helper()
	w, _, err := setup(sp, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := measure(w, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	account(&res, w)
	note := virtualNote(w, ph)
	if err := w.teardown(); err != nil {
		t.Fatal(err)
	}
	return res, ph, note
}

func TestWorkloadsPassTheOracle(t *testing.T) {
	for _, name := range []string{wlDuo, wlUpdate, wlSharded} {
		res, ph, _ := runOnce(t, small(t, name), 1)
		if res.Failed != 0 || res.Attempted == 0 || ph.ok == 0 {
			t.Errorf("%s: attempted %d failed %d verified %d, notes %v", name, res.Attempted, res.Failed, ph.ok, res.notes)
		}
	}
}

// A broken state transformation must surface as failed hops, never as
// a passing run: the hop that breaks and the hop queued behind it.
func TestBrokenUpdateCountsAsFailure(t *testing.T) {
	sp := small(t, wlUpdate)
	sp.breakHop = 1
	res, _, _ := runOnce(t, sp, 1)
	if res.Failed != 2 {
		t.Fatalf("failed = %d, want 2 (broken hop plus the hop behind it); notes %v", res.Failed, res.notes)
	}
}

// The oracle compares every reply with the client's reference model: a
// reply that disagrees with it is a failure.
func TestWrongReplyCountsAsFailure(t *testing.T) {
	w, _, err := setup(small(t, wlDuo), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cl := w.clients[0]
	for i := range cl.expect {
		cl.expect[i] = "$5\r\nwrong\r\n"
	}
	if _, err := measure(w, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var res result
	account(&res, w)
	if err := w.teardown(); err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || cl.mBad == 0 {
		t.Fatalf("corrupted reference model passed: failed %d", res.Failed)
	}
}

// The program receives only what the seed generates, so two runs with
// one seed agree on every virtual result, and another seed still
// passes the oracle.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{wlDuo, wlUpdate, wlSharded} {
		sp := small(t, name)
		_, a, noteA := runOnce(t, sp, 7)
		_, b, noteB := runOnce(t, sp, 7)
		if a.fp != b.fp || noteA != noteB {
			t.Errorf("%s: same seed, different virtual results:\n%s\n%s", name, noteA, noteB)
		}
		res, _, _ := runOnce(t, sp, 8)
		if res.Failed != 0 {
			t.Errorf("%s: seed 8 failed the oracle: %v", name, res.notes)
		}
	}
}

// The traced pass installs every probe yet must reproduce the untraced
// pass's virtual fingerprint.
func TestTracedRunKeepsFingerprint(t *testing.T) {
	for _, name := range []string{wlDuo, wlSharded} {
		sp := small(t, name)
		w, _, err := setup(sp, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		w.probeState()
		traced, err := measure(w, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.teardown(); err != nil {
			t.Fatal(err)
		}
		_, bare, _ := runOnce(t, sp, 3)
		if traced.fp != bare.fp {
			t.Errorf("%s: traced %+v, untraced %+v", name, traced.fp, bare.fp)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	var exact []int64
	for i := 0; i < 100000; i++ {
		v := int64(rng.ExpFloat64() * 50000)
		h.add(v)
		exact = append(exact, v)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := float64(exact[int(math.Ceil(q*float64(len(exact))))-1])
		if got := h.quantile(q); math.Abs(got-want) > want/64+1 {
			t.Errorf("q%.3f = %.0f, want %.0f within 1/64", q, got, want)
		}
	}
}

// Scaling a histogram while merging must scale its quantiles, within
// the histogram's resolution.
func TestHistMergeScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h, scaled hist
	for i := 0; i < 100000; i++ {
		h.add(int64(rng.ExpFloat64() * 50000))
	}
	scaled.mergeScaled(&h, 0.7)
	if scaled.n != h.n {
		t.Fatalf("scaled holds %d samples, want %d", scaled.n, h.n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := h.quantile(q) * 0.7
		if got := scaled.quantile(q); math.Abs(got-want) > want/32+1 {
			t.Errorf("q%.2f = %.0f, want %.0f within 1/32", q, got, want)
		}
	}
}

// A span of the reference clock cuts its slices out of the work clock
// and reports a positive speed.
func TestRefSpan(t *testing.T) {
	startRef()
	span := ref.open()
	for start := time.Now(); time.Since(start) < 3*refEvery; {
		if ref.due() {
			ref.slice()
		}
	}
	work, speed, next := ref.close(span)
	if speed.mean <= 0 || speed.median <= 0 {
		t.Errorf("speed %+v, want > 0", speed)
	}
	if work < 3*refEvery-refEvery/2 || work > 3*refEvery+refEvery/2 {
		t.Errorf("work %v over a %v loop with %d slices, want the slices cut out", work, 3*refEvery, len(ref.log))
	}
	if next.first != len(ref.log)-1 {
		t.Errorf("next span opens at slice %d, want the closing slice %d", next.first, len(ref.log)-1)
	}
}
