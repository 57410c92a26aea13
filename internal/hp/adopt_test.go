package hp

import (
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
)

// TestAdoptReleasesShieldsAndOrphansRetired exercises the Unregister that
// internal/core's adoption runs for a handle whose owner is gone: shield
// protections drop, the retired list becomes domain orphans, the handle
// leaves the registry, and a survivor's Reclaim frees the abandoned nodes.
func TestAdoptReleasesShieldsAndOrphansRetired(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(nil, WithScanThreshold(1024))
	dead := d.Register()
	live := d.Register()
	defer live.Unregister()

	slot, _ := pool.Alloc(cache)
	s := dead.NewShield()
	s.ProtectSlot(slot)
	pool.Hdr(slot).Retire()
	dead.Retire(slot, pool)

	dead.Unregister()
	if s.Get() != 0 {
		t.Fatal("Unregister must clear the dead handle's shield values")
	}
	if d.Shields() != 0 {
		t.Fatalf("shield gauge = %d after Unregister, want 0", d.Shields())
	}
	if n := len(d.handles.Snapshot()); n != 1 {
		t.Fatalf("%d handles registered, want the survivor alone", n)
	}

	live.Reclaim()
	if pool.Hdr(slot).State() != alloc.StateFree {
		t.Fatal("survivor's Reclaim did not free the adopted orphan")
	}
	if got := d.Stats().Unreclaimed.Load(); got != 0 {
		t.Fatalf("unreclaimed = %d, want 0", got)
	}
}
