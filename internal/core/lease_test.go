package core_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/hlist"
)

// TestLongTraversalNeverReaped is the lease argument as a test: Poll
// stores nothing, so during one long critical section the lease goes
// stale — far past LeaseTimeout, under a 1 ms janitor that looks at it
// every tick — and the handle is still never reaped, because the lease
// scan only ever acts on a handle that is outside every section, and the
// Enter that began this one stamped it. 10⁶ traversal steps, in sections
// each longer than the timeout, from the only reapable handle in the
// domain (so a reap could only be its own).
func TestLongTraversalNeverReaped(t *testing.T) {
	const (
		nodes        = 1 << 18
		leaseTimeout = 2 * time.Millisecond
	)
	l := hlist.NewHPBRCU(core.Config{})
	j := l.Domain().StartJanitor(core.JanitorConfig{
		Reaper:       true,
		LeaseTimeout: leaseTimeout,
		Interval:     time.Millisecond,
		Grace:        2 * time.Millisecond,
	})
	defer j.Stop()

	h := l.Register()
	for k := int64(nodes - 1); k >= 0; k-- { // descending: every insert lands at the head
		h.Insert(k, k)
	}
	// From here on: a prefill slow enough to be descheduled between two
	// Inserts for longer than these test-sized timeouts (the race detector
	// manages it) is legitimately reaped and resurrects.
	rec := l.Stats()
	gen, reaped := h.Core().Gen(), rec.ReapedHandles.Load()

	var stop, staleInSection atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // witness that the lease really went stale mid-traversal
		defer wg.Done()
		for !stop.Load() {
			if time.Now().UnixNano()-h.Core().Lease() > int64(leaseTimeout) {
				staleInSection.Store(true)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	t0 := time.Now()
	steps := 0
	for steps < 1_000_000 || time.Since(t0) <= 2*leaseTimeout {
		if v, ok := h.GetOptimistic(nodes - 1); !ok || v != nodes-1 {
			t.Fatalf("GetOptimistic(last) = (%d, %v)", v, ok)
		}
		steps += nodes
	}
	elapsed := time.Since(t0)
	stop.Store(true)
	wg.Wait()

	t.Logf("%d steps in %v; janitor ticks=%d stale lease seen mid-run: %v",
		steps, elapsed, j.Report().Ticks, staleInSection.Load())
	if !staleInSection.Load() {
		t.Skip("traversals finished inside the lease timeout on this host; the stale-lease window never opened")
	}
	if got := rec.ReapedHandles.Load() - reaped; got != 0 {
		t.Fatalf("ReapedHandles grew by %d: a handle inside a long traversal was reaped", got)
	}
	if got := h.Core().Gen(); got != gen {
		t.Fatalf("generation %d → %d: the traversing handle was reaped and resurrected", gen, got)
	}
	if h.Core().Reaped() {
		t.Fatal("the traversing handle is in the Reaped phase")
	}
	h.Unregister()
}
