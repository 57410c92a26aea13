package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/reap"
)

// waitFor polls cond until it holds, failing the test after a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// owner stands for the object a goroutine holds to use a handle.
type owner struct{ h *Handle }

// TestAdoptDroppedHandle: a handle dropped while it holds a non-empty
// BRCU batch, a set shield and an HP retired list (a node its own shield
// kept on the last scan) is adopted once the collector finds its owner
// unreachable; afterwards one Barrier from a live handle balances the
// books, and ReapedHandles is 1.
func TestAdoptDroppedHandle(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(BackendBRCU, Config{MaxLocalTasks: 64, ScanThreshold: 1 << 20})
	live := d.Register()
	defer live.Unregister()
	rec := d.Stats()

	dropLoadedHandle(t, d, pool, cache)
	waitFor(t, "the dropped handle's adoption", func() bool { return rec.ReapedHandles.Load() == 1 })
	live.Barrier()
	if got := rec.Unreclaimed.Load(); got != 0 {
		t.Fatalf("unreclaimed = %d after one live Barrier, want 0", got)
	}
	if got := rec.ReapedHandles.Load(); got != 1 {
		t.Fatalf("ReapedHandles = %d, want 1", got)
	}
	if got := rec.AdoptedNodes.Load(); got != 4 {
		t.Fatalf("AdoptedNodes = %d, want the 3 batched and 1 retired", got)
	}
	if got := d.brcu.HandlesPeak(); got != 3 {
		t.Fatalf("HandlesPeak = %d, want adopter, live and dropped", got)
	}
}

// dropLoadedHandle registers a handle under an owner, loads it and drops
// the owner.
//
//go:noinline
func dropLoadedHandle(t *testing.T, d *Domain, pool *alloc.Pool[node], cache *alloc.Cache[node]) {
	o := &owner{h: d.Register()}
	AdoptWhenUnreachable(o, o.h)
	h := o.h
	retire := func() uint64 {
		slot, _ := pool.Alloc(cache)
		pool.Hdr(slot).Retire()
		h.Retire(slot, pool)
		return slot
	}
	s := h.NewShield()
	s.ProtectSlot(retire())
	h.Barrier() // the node reaches h's retired list, where h's own shield keeps it
	for i := 0; i < 3; i++ {
		retire() // stays in h's BRCU batch
	}
	if got := h.HP.PendingRetired(); got != 1 {
		t.Fatalf("retired list holds %d, want the 1 shielded node", got)
	}
	if got := d.Stats().Unreclaimed.Load(); got != 4 {
		t.Fatalf("unreclaimed = %d before the drop, want 4", got)
	}
}

// TestEmergencyDrainBoundsGarbage: with backpressure on, a retiring
// handle drains inline past the drain tier, so an absolute ceiling holds
// even when the batch thresholds would never flush.
func TestEmergencyDrainBoundsGarbage(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(BackendBRCU, Config{MaxLocalTasks: 1 << 20, ScanThreshold: 1 << 20, ForceThreshold: 2})
	bp := d.EnableBackpressure(reap.BackpressureConfig{Ceiling: 8})
	if bp == nil {
		t.Fatal("EnableBackpressure returned nil for a BRCU domain")
	}

	h := d.Register()
	defer h.Unregister()
	for i := 0; i < 200; i++ {
		slot, _ := pool.Alloc(cache)
		pool.Hdr(slot).Retire()
		h.Retire(slot, pool)
	}
	h.Barrier()

	rec := d.Stats()
	if peak := rec.Unreclaimed.Peak(); peak > 8 {
		t.Fatalf("peak unreclaimed = %d, exceeded the ceiling 8", peak)
	}
	if got := rec.Unreclaimed.Load(); got != 0 {
		t.Fatalf("unreclaimed = %d after barrier, want 0", got)
	}
}

// TestBackpressureNilForRCU: an HP-RCU domain has no garbage bound to key
// the ladder to.
func TestBackpressureNilForRCU(t *testing.T) {
	d := NewDomain(BackendRCU, Config{})
	if d.EnableBackpressure(reap.BackpressureConfig{}) != nil {
		t.Fatal("EnableBackpressure must be a no-op on an RCU-backed domain")
	}
}
