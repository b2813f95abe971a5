package mve

import (
	"testing"
	"time"

	"mvedsua/internal/dsl"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// clockDuo runs a leader and a follower that issue clock() forever, the
// follower's stream passing through rules, and returns the scheduler
// after a warm-up so every queue has reached its steady size.
func clockDuo(t *testing.T, rules *dsl.RuleSet) (*sim.Scheduler, *Monitor) {
	t.Helper()
	s, _, m := world(64, Costs{})
	leader := m.StartSingleLeader("v0")
	follower := m.AttachFollower("v1", rules)
	s.Go("leader", func(tk *sim.Task) {
		for {
			leader.Invoke(tk, sysabi.Call{Op: sysabi.OpClock})
			tk.Sleep(time.Microsecond)
		}
	})
	s.Go("follower", func(tk *sim.Task) {
		for {
			follower.Invoke(tk, sysabi.Call{Op: sysabi.OpClock})
		}
	})
	if err := s.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return s, m
}

// TestRuleHitAllocsWithRecorderOff pins that a rule hit with no
// recorder and no event log costs only the rewrite itself: one
// allocation per event more than a rule that never fires (the rule's
// own binding and emission). The rule-hit log and trace lines box their
// arguments at the call, so unguarded they would add two more.
func TestRuleHitAllocsWithRecorderOff(t *testing.T) {
	perRound := func(rules *dsl.RuleSet) (float64, *Monitor) {
		s, m := clockDuo(t, rules)
		allocs := testing.AllocsPerRun(50, func() {
			if err := s.RunFor(10 * time.Microsecond); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / 10, m
	}
	fire, m := perRound(dsl.MustParse(`
rule "tick" {
    match clock(t) {
        emit clock(t);
    }
}
`))
	pass, _ := perRound(dsl.MustParse(`
rule "never" {
    match clock(t) where t < 0 {
        emit clock(t);
    }
}
`))
	if m.Stats.Rewritten < 500 {
		t.Fatalf("rule fired %d times", m.Stats.Rewritten)
	}
	if fire > pass+1 {
		t.Fatalf("%v allocs per rewritten event, %v per passed-through event; a rule hit may add at most 1", fire, pass)
	}
}
