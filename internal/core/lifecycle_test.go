package core

import (
	"errors"
	"testing"

	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/brcu"
)

// TestContainedPanicKeepsTheBound: a handle that retires fewer than
// flushAt nodes between contained panics must still pay Algorithm 5's
// budget. Containment leaves the partial batch local, so it fills, is
// pushed and counted like any other, and the reader holding the epoch is
// signalled at the budget. Were containment to push it, the push would go
// uncounted, the reader would never be signalled, and the garbage would
// grow past the §5 bound without limit.
func TestContainedPanicKeepsTheBound(t *testing.T) {
	const n, flushAt, rounds = 32, 4, 100
	cw, d := newChainWalk(t, BackendBRCU, n, Config{
		MaxLocalTasks: flushAt, ForceThreshold: 2, ScanThreshold: 1, PanicPolicy: PanicRecover,
	})
	holder := d.Register() // holds the epoch it entered at for the whole test
	defer holder.Unregister()
	holder.Pin()
	defer holder.Unpin()

	// A panic in a step, raised where Walk's recover barrier covers it: the
	// step hooks, which a yield period arms without ever yielding.
	boom := errors.New("user code panicked")
	defer func(p int) { atomicx.YieldPeriod, StepHook = p, nil }(atomicx.YieldPeriod)
	atomicx.YieldPeriod = 1 << 30
	StepHook = func(*brcu.Handle) { panic(boom) }
	cache := cw.pool.NewCache()
	for r := 0; r < rounds; r++ {
		for i := 0; i < flushAt-1; i++ {
			slot, _ := cw.pool.Alloc(cache)
			cw.pool.Hdr(slot).Retire()
			cw.h.Retire(slot, cw.pool)
		}
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatal("the find returned: the panic was not raised")
				}
				if pe, _ := v.(*PanicError); pe == nil || pe.Value != boom || pe.Poisoned {
					t.Fatalf("recovered %v, want a restored *PanicError wrapping the user panic", v)
				}
			}()
			cw.find()
		}()
	}

	s := d.Stats().Snapshot()
	if s.PanicsRecovered != rounds {
		t.Fatalf("PanicsRecovered = %d, want %d", s.PanicsRecovered, rounds)
	}
	if b := d.GarbageBoundObserved(); s.PeakUnreclaimed > b {
		t.Fatalf("peak unreclaimed %d exceeds the §5 bound %d (signals %d)", s.PeakUnreclaimed, b, s.Signals)
	}
	if s.Signals == 0 {
		t.Fatal("the reader holding the epoch was never signalled")
	}
}
