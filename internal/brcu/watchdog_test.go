package brcu

import (
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
)

// watchdogTick is one janitor tick as far as the watchdog is concerned:
// the health check, and — when it broadcast — the forced drain round the
// janitor's drain stage answers with, through the service handle h.
func watchdogTick(w *Watchdog, h *Handle) {
	if w.Check() {
		h.Barrier()
	}
}

// TestWatchdogRecoversStalledEpoch is the acceptance scenario for the
// watchdog: a domain misconfigured with an absurdly patient ForceThreshold
// has a reader stall inside a critical section, so the epoch sticks and
// every flushed batch queues forever. The watchdog must recover — epoch
// advancing again, unreclaimed memory back to zero — WITHOUT the stalled
// reader ever cooperating: it is never unstalled, never polls, never exits.
func TestWatchdogRecoversStalledEpoch(t *testing.T) {
	const patience = 1 << 20
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	// A threshold this patient means ordinary advancing never neutralizes
	// anyone within the test's lifetime: only the watchdog can unstick it.
	d := NewDomain(nil, WithMaxLocalTasks(8), WithForceThreshold(patience))

	stalled := d.Register()
	writer := d.Register()

	stalled.Enter() // the misconfigured laggard: never polls, never exits

	// 32 full batches. The first flush still advances (the reader is
	// current at epoch 0); every later one gives up on the laggard, so the
	// epoch freezes and all batches queue.
	for i := 0; i < 256; i++ {
		retireOne(t, pool, cache, writer)
	}

	e0 := d.Epoch()
	if got := d.Stats().Unreclaimed.Load(); got != 256 {
		t.Fatalf("setup: unreclaimed = %d, want 256 (the stalled epoch must block every drain)", got)
	}
	if d.pendingBatches() == 0 {
		t.Fatal("setup: no flushed batches queued")
	}

	w := d.NewWatchdog(nil)
	service := d.Register()
	defer service.Unregister()

	// Recovery: the stall detector escalates every 3 no-advance ticks,
	// halving the effective threshold down to 1 (20 halvings) and then
	// broadcasting, which neutralizes the stalled reader; the drain round
	// that answers the broadcast forces the queue out.
	for i := 0; d.Stats().Unreclaimed.Load() != 0 || d.Epoch() == e0; i++ {
		if i == 3*21+3 {
			t.Fatalf("watchdog never recovered: epoch %d (stuck at %d), unreclaimed %d, escalations %d, broadcasts %d",
				d.Epoch(), e0, d.Stats().Unreclaimed.Load(),
				d.Stats().WatchdogEscalations.Load(), d.Stats().Broadcasts.Load())
		}
		watchdogTick(w, service)
	}

	// De-escalation: once healthy, calm ticks walk the effective threshold
	// back up to the configured value (and stay there — a lingering empty
	// batch used to re-trigger the stall detector here forever).
	for i := 0; d.EffectiveForceThreshold() != patience; i++ {
		if i == 8*21 {
			t.Fatalf("effective threshold never restored: %d (broadcasts %d)",
				d.EffectiveForceThreshold(), d.Stats().Broadcasts.Load())
		}
		watchdogTick(w, service)
	}
	for i := 0; i < 16; i++ {
		watchdogTick(w, service)
	}
	if eff := d.EffectiveForceThreshold(); eff != patience {
		t.Fatalf("effective threshold left the configured value again: %d", eff)
	}

	if d.Stats().WatchdogEscalations.Load() == 0 {
		t.Fatal("recovery without a recorded escalation")
	}
	if d.Stats().Broadcasts.Load() == 0 {
		t.Fatal("recovery without a broadcast: the escalation ladder must end in one")
	}
	if stalled.Poll() {
		t.Fatal("the stalled reader must have been neutralized (it never cooperated)")
	}

	writer.Unregister()
	stalled.Unregister() // RbReq phase: legal to unregister without exiting
}

// TestWatchdogIdleOnHealthyDomain: a domain that advances normally must see
// no interventions at all.
func TestWatchdogIdleOnHealthyDomain(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(nil, WithMaxLocalTasks(4), WithForceThreshold(2))
	writer := d.Register()
	defer writer.Unregister()

	w := d.NewWatchdog(nil)
	for i := 0; i < 400; i++ {
		retireOne(t, pool, cache, writer)
		if i%16 == 0 {
			watchdogTick(w, writer)
		}
	}
	// Drain fully, then idle: an empty task set with a static epoch is the
	// healthy steady state and must never look like a stall.
	writer.Barrier()
	for i := 0; i < 25; i++ {
		watchdogTick(w, writer)
	}

	if n := d.Stats().WatchdogEscalations.Load(); n != 0 {
		t.Fatalf("healthy domain saw %d escalations", n)
	}
	if n := d.Stats().Broadcasts.Load(); n != 0 {
		t.Fatalf("healthy domain saw %d broadcasts", n)
	}
	if eff := d.EffectiveForceThreshold(); eff != 2 {
		t.Fatalf("effective threshold drifted to %d on a healthy domain", eff)
	}
}
