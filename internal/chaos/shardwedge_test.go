package chaos

import "testing"

// TestShardWedgeSharded runs one sharded shard-wedge scenario end to end:
// the wedged shard reaps nothing, the healthy ones reap, every shard
// keeps advancing and reclaiming, and the books balance.
func TestShardWedgeSharded(t *testing.T) {
	res := RunShardWedge(ShardWedgeScenario{Shards: 4, Seed: 1})
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.WedgedReaped != 0 {
		t.Errorf("WedgedReaped = %d, want 0 (the wedged janitor must not reap)", res.WedgedReaped)
	}
	if res.HealthyReapedMin <= 0 {
		t.Errorf("HealthyReapedMin = %d, want > 0 (healthy shards must reap during the wedge)", res.HealthyReapedMin)
	}
	if res.WedgedAdvanceMin <= 0 || res.HealthyAdvanceMin <= 0 {
		t.Errorf("advances per window: wedged %d, healthy %d, want both > 0 (reclamation does not ride on the janitor)",
			res.WedgedAdvanceMin, res.HealthyAdvanceMin)
	}
}

// TestShardWedgeControl runs the unsharded control: the same wedge
// freezes reap service map-wide (leaks pile up unreaped) and converges
// only after the janitor resumes.
func TestShardWedgeControl(t *testing.T) {
	res := RunShardWedge(ShardWedgeScenario{Shards: 1, Seed: 1})
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.WedgeLeaks < 1 {
		t.Errorf("WedgeLeaks = %d, want >= 1 (the wedge window must see leaks)", res.WedgeLeaks)
	}
	if res.Reaped < res.Leaked {
		t.Errorf("reaped=%d < leaked=%d after convergence", res.Reaped, res.Leaked)
	}
}
