package core

import (
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/hp"
)

type node struct {
	key  int64
	next atomicx.AtomicRef
}

// TestTwoStepRetirementTimeline replays Figure 4: T1 retires p while T2 is
// inside a critical section holding a shield on p; p survives (1) until
// the critical section ends and (2) until the shield clears, in that
// order.
func TestTwoStepRetirementTimeline(t *testing.T) {
	for _, backend := range []Backend{BackendRCU, BackendBRCU} {
		name := map[Backend]string{BackendRCU: "HP-RCU", BackendBRCU: "HP-BRCU"}[backend]
		t.Run(name, func(t *testing.T) {
			pool := alloc.NewPool[node]()
			cache := pool.NewCache()
			d := NewDomain(backend, Config{MaxLocalTasks: 1, ForceThreshold: 1 << 30, ScanThreshold: 1})
			t1 := d.Register()
			t2 := d.Register()
			defer t1.Unregister()
			defer t2.Unregister()

			slot, _ := pool.Alloc(cache)

			// T2 begins a critical section and protects p, without
			// validation (safe inside a CS, §3.2).
			t2.Pin()
			s := t2.NewShield()
			s.ProtectSlot(slot)

			// T1 retires p (two-step).
			pool.Hdr(slot).Retire()
			t1.Retire(slot, pool)

			// Step 1 pending: the critical section defers HP-Retire.
			for i := 0; i < 4; i++ {
				t1.HP.Reclaim() // HP alone cannot free it: not yet HP-retired
			}
			if pool.Hdr(slot).State() == alloc.StateFree {
				t.Fatal("freed while the critical section was live")
			}

			// T2 exits; the grace period can now elapse, moving p to the
			// HP stage — where the shield still blocks reclamation.
			t2.Unpin()
			t1.Barrier()
			if pool.Hdr(slot).State() == alloc.StateFree {
				t.Fatal("freed while a shield still protects it")
			}

			// Clearing the shield finally allows reclamation.
			s.Clear()
			t1.Barrier()
			if pool.Hdr(slot).State() != alloc.StateFree {
				t.Fatal("not freed after shield cleared and barrier")
			}
			if got := d.Stats().Snapshot(); got.Retired != 1 || got.Reclaimed != 1 || got.Unreclaimed != 0 {
				t.Fatalf("stats = %+v", got)
			}
		})
	}
}

// chain builds a singly linked chain of n nodes and returns the head slot
// and all slots.
func chain(pool *alloc.Pool[node], cache *alloc.Cache[node], n int) (uint64, []uint64) {
	slots := make([]uint64, n)
	var next atomicx.Ref
	for i := n - 1; i >= 0; i-- {
		s, nd := pool.Alloc(cache)
		nd.key = int64(i)
		nd.next.Store(next)
		next = atomicx.MakeRef(s, 0)
		slots[i] = s
	}
	return slots[0], slots
}

type chainCursor struct {
	cur atomicx.Ref
	pos int64
}

type testProtector struct{ s *hp.Shield }

func (p *testProtector) Protect(c *chainCursor) { p.s.ProtectSlot(c.cur.Slot()) }

// TestRCUBarrierNeverSignals: HP-RCU's BRCU domain never signals, so a
// reader parked in a section survives another handle's Barrier — the
// advance at an exhausted budget that neutralizes it under HP-BRCU — and a
// node retired after it entered stays out of the HP step until it leaves.
func TestRCUBarrierNeverSignals(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(BackendRCU, Config{MaxLocalTasks: 1, ScanThreshold: 1})
	reader, writer := d.Register(), d.Register()
	defer reader.Unregister()
	defer writer.Unregister()

	reader.Pin()
	slot, _ := pool.Alloc(cache)
	pool.Hdr(slot).Retire()
	writer.Retire(slot, pool)
	writer.Barrier()
	if !reader.brcu.Poll() {
		t.Fatal("another handle's Barrier neutralized an HP-RCU reader")
	}
	if got := d.Stats().Signals.Load(); got != 0 {
		t.Fatalf("signals = %d under HP-RCU, want 0", got)
	}
	if pool.Hdr(slot).State() == alloc.StateFree {
		t.Fatal("a node retired inside a live HP-RCU section was freed")
	}
	reader.Unpin()
	writer.Barrier()
	if pool.Hdr(slot).State() != alloc.StateFree {
		t.Fatal("node not freed once the reader left its section")
	}
}

// TestGarbageBoundAccessors checks the §5 bound plumbing.
func TestGarbageBoundAccessors(t *testing.T) {
	d := NewDomain(BackendBRCU, Config{MaxLocalTasks: 10, ForceThreshold: 3})
	a := d.Register()
	b := d.Register()
	defer a.Unregister()
	defer b.Unregister()
	// G = 30, N = 3 (the domain's adopter handle and two workers):
	// 2GN + GN² = 180 + 270 = 450, +5 shields.
	if got := d.GarbageBound(5); got != 455 {
		t.Fatalf("bound = %d, want 455", got)
	}
	if got := NewDomain(BackendRCU, Config{}).GarbageBound(5); got != -1 {
		t.Fatalf("RCU bound = %d, want -1", got)
	}
	if got := d.GarbageBoundFor(4, 0); got != 2*30*4+30*16 {
		t.Fatalf("boundFor(4) = %d", got)
	}
}
