package brcu

import (
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
)

// watchdogTick is one janitor tick as far as the watchdog is concerned:
// the health check, and — when it reports a stall — the forced drain round
// the janitor's armed drain stage answers with, through the service handle
// h.
func watchdogTick(w *Watchdog, h *Handle) {
	if w.Check() {
		h.Barrier()
	}
}

// TestWatchdogRecoversStalledEpoch is the acceptance scenario for the
// watchdog: a domain misconfigured with an absurdly patient ForceThreshold
// has a reader stall inside a critical section, so the epoch sticks and
// every flushed batch queues forever. Detection plus ONE forced round must
// recover — epoch advancing again, unreclaimed memory back to zero —
// WITHOUT the stalled reader ever cooperating: it is never unstalled,
// never polls, never exits.
func TestWatchdogRecoversStalledEpoch(t *testing.T) {
	const patience = 1 << 20
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	// A threshold this patient means ordinary advancing never neutralizes
	// anyone within the test's lifetime: only a forced round can unstick it.
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

	// Recovery: watchdogStallTicks no-advance ticks are the detection; the
	// round it arms signals the stalled reader at an exhausted budget and
	// forces the queue out.
	for i := 0; d.Stats().Unreclaimed.Load() != 0 || d.Epoch() == e0; i++ {
		if i == watchdogStallTicks+1 {
			t.Fatalf("one forced round did not recover: epoch %d (stuck at %d), unreclaimed %d, stall drains %d",
				d.Epoch(), e0, d.Stats().Unreclaimed.Load(), d.Stats().StallDrains.Load())
		}
		watchdogTick(w, service)
	}
	if d.Stats().StallDrains.Load() == 0 {
		t.Fatal("recovery without a recorded stall drain")
	}
	if stalled.Poll() {
		t.Fatal("the stalled reader must have been neutralized (it never cooperated)")
	}

	// Once drained, an empty task set behind a static epoch is healthy: the
	// detector must not fire again.
	n := d.Stats().StallDrains.Load()
	for i := 0; i < 16; i++ {
		watchdogTick(w, service)
	}
	if got := d.Stats().StallDrains.Load(); got != n {
		t.Fatalf("stall drains went %d → %d on a drained domain", n, got)
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

	if n := d.Stats().StallDrains.Load(); n != 0 {
		t.Fatalf("healthy domain saw %d stall drains", n)
	}
}
