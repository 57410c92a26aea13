package core_test

import (
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/hlist"
)

// TestLongTraversalNeverReaped is the lease argument as a test: Poll
// stores nothing, so one long operation shows the scan no new Out word
// for far longer than LeaseTimeout — under a 1 ms janitor that looks
// every tick — and the handle is still never reaped, because the scan
// only ever claims a word that is outside every section, and the Enter
// that began this one replaced the last such word. 10⁶ traversal steps,
// in operations each longer than the timeout, from the only reapable
// handle in the domain (so a reap could only be its own).
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

	// The witness that the window really opened: one traversal, entered
	// once, that outlasted the lease timeout.
	t0 := time.Now()
	var longest time.Duration
	steps := 0
	for steps < 1_000_000 || time.Since(t0) <= 2*leaseTimeout {
		op := time.Now()
		if v, ok := h.GetOptimistic(nodes - 1); !ok || v != nodes-1 {
			t.Fatalf("GetOptimistic(last) = (%d, %v)", v, ok)
		}
		longest = max(longest, time.Since(op))
		steps += nodes
	}

	t.Logf("%d steps in %v; longest traversal %v", steps, time.Since(t0), longest)
	if longest <= leaseTimeout {
		t.Skip("every traversal finished inside the lease timeout on this host; the window never opened")
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
