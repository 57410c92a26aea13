package hlist

import (
	"sync"
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/brcu"
)

// TestStalledBaselineReaderIsNeverSignalled: the RCU baseline runs on a
// BRCU domain that never signals, whatever options it is built with. A
// reader stalled inside its find — pinned, standing on a node — under
// writers churning that very key is never neutralized, and the node is
// not reclaimed before the reader unpins; the garbage grows instead.
// Table 2's RCU row (unbounded, 0 signals) rests on this.
func TestStalledBaselineReaderIsNeverSignalled(t *testing.T) {
	const key, writers, rounds = 10, 2, 2000
	l := NewEBR(brcu.WithMaxLocalTasks(4), brcu.WithForceThreshold(1))
	r := l.Register()
	defer r.Unregister()
	r.Insert(key, key)

	_, cur, found := r.find(key) // stays pinned until release
	if !found {
		t.Fatal("setup: key not found")
	}
	slot := cur.Slot()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := l.Register()
			defer h.Unregister()
			for i := 0; i < rounds; i++ {
				h.Remove(key)
				h.Insert(key, key)
			}
		}()
	}
	wg.Wait()

	s := l.Stats().Snapshot()
	if s.Signals != 0 || !r.h.Poll() {
		t.Fatalf("the RCU baseline signalled a stalled reader (signals=%d)", s.Signals)
	}
	if l.pool.Hdr(slot).State() == alloc.StateFree {
		t.Fatal("the node under a pinned reader was reclaimed")
	}
	if s.Unreclaimed < rounds {
		t.Fatalf("unreclaimed = %d under a stalled reader, want ≥ %d: the epoch should be held", s.Unreclaimed, rounds)
	}

	r.release()
	r.Barrier()
	if l.pool.Hdr(slot).State() != alloc.StateFree {
		t.Fatal("the node was not reclaimed after the reader unpinned")
	}
	if got := l.Stats().Unreclaimed.Load(); got != 0 {
		t.Fatalf("unreclaimed = %d after the reader unpinned and a barrier", got)
	}
}
