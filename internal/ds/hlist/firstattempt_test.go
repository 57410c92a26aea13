package hlist

// Tests of the first attempts (core.Attempt) of a read and of a write's
// find on the hash map: that real reclaimer signals landing in first
// attempts never let a wrong value or a lost update through, that a marked
// run hands the find's live section to the walk, and that every condition
// an attempt cannot honour sends the traversal down the walk instead.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/obs"
)

// TestFirstAttemptUnderSignals churns an HP-BRCU hash map with no hook
// armed — so every Get runs a first attempt, unlike under any chaos mode,
// which arms the fault layer — and a reclaimer that flushes at every
// retire and signals the first laggard. Readers check every value against
// its key until the domain has counted both signals and rollbacks.
func TestFirstAttemptUnderSignals(t *testing.T) {
	const (
		keys, buckets = 1 << 10, 1 << 6
		readers       = 2
		deadline      = 20 * time.Second
	)
	m := NewExpeditedOf(core.BackendBRCU, HHS, buckets, core.Config{MaxLocalTasks: 1, ForceThreshold: 1, ScanThreshold: 1})
	valueOf := func(k int64) int64 { return 3*k + 1 }
	fill := m.Register()
	for k := int64(0); k < keys; k += 2 {
		fill.Insert(k, valueOf(k))
	}
	fill.Unregister()

	var (
		stop, enough atomic.Bool
		wg           sync.WaitGroup
		gets         atomic.Int64
	)
	wg.Add(readers + 1)
	go func() { // the writer: every Remove retires, every retire flushes
		defer wg.Done()
		h := m.Register()
		defer h.Unregister()
		for rng := uint64(0xbeef); !stop.Load(); {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if k := int64(rng % keys); rng&(1<<40) == 0 {
				h.Insert(k, valueOf(k))
			} else {
				h.Remove(k)
			}
		}
	}()
	for r := 0; r < readers; r++ {
		go func(rng uint64) {
			defer wg.Done()
			h := m.Register()
			defer h.Unregister()
			for !stop.Load() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := int64(rng % keys)
				if v, ok := h.Get(k); ok && v != valueOf(k) {
					t.Errorf("Get(%d) = %d, want %d", k, v, valueOf(k))
				}
				if gets.Add(1)%4096 == 0 {
					s := m.Stats().Snapshot()
					enough.Store(s.Signals > 0 && s.Rollbacks > 0 && gets.Load() > 1<<16)
				}
			}
		}(uint64(r+1) * 0x9E3779B97F4A7C15)
	}
	for start := time.Now(); !enough.Load() && time.Since(start) < deadline; {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	s := m.Stats().Snapshot()
	t.Logf("%d gets: %d signals, %d rollbacks", gets.Load(), s.Signals, s.Rollbacks)
	if s.Signals == 0 || s.Rollbacks == 0 {
		t.Fatalf("signals = %d, rollbacks = %d after %v: no signal landed in a read, the test is vacuous", s.Signals, s.Rollbacks, deadline)
	}
}

// TestReadRoutesToWalk: a read whose first attempt could not honour what
// the handle or the process asks of it runs the walk from the start — a
// bound context (only the walk cancels), a poisoned handle (only the walk
// refuses one), and each step hook (only the walk's steps run them).
func TestReadRoutesToWalk(t *testing.T) {
	cfg := core.Config{PanicPolicy: core.PanicRecover}
	newMap := func() (*Expedited, *ExpeditedHandle) {
		m := NewExpeditedOf(core.BackendBRCU, HHS, 4, cfg)
		h := m.Register()
		t.Cleanup(h.Unregister)
		for k := int64(0); k < 16; k++ {
			h.Insert(k, k+100)
		}
		return m, h
	}
	// panicOf runs a Get that must panic and returns what it panicked with.
	panicOf := func(h *ExpeditedHandle) (r any) {
		defer func() { r = recover() }()
		v, ok := h.Get(3)
		t.Fatalf("Get = (%d,%v), want a panic: the read did not take the walk", v, ok)
		return nil
	}
	atPanic := func(period uint64) *fault.Injector {
		var plans [fault.NumSites]fault.Plan
		plans[fault.SitePanic] = fault.Plan{Period: period}
		return fault.New(fault.Config{Seed: 1, Plans: plans})
	}

	t.Run("ctx", func(t *testing.T) {
		_, h := newMap()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := h.GetCtx(ctx, 3); !errors.Is(err, context.Canceled) {
			t.Fatalf("GetCtx(cancelled) err = %v, want context.Canceled", err)
		}
	})

	t.Run("fault", func(t *testing.T) {
		m, h := newMap()
		fault.Activate(atPanic(1))
		r := panicOf(h)
		fault.Deactivate()
		if pe, ok := r.(*core.PanicError); !ok || pe.Poisoned || pe.Value != fault.ErrInjectedPanic {
			t.Fatalf("recovered %v, want the injected panic contained as a restored *PanicError", r)
		}
		// Left Out: a handle stuck in its section would have to be
		// signalled before another handle's barrier could free anything.
		other := m.Register()
		defer other.Unregister()
		other.Remove(5)
		sig := m.Stats().Signals.Load()
		other.Barrier()
		if got := m.Stats().Signals.Load(); got != sig {
			t.Fatalf("signals %d → %d across a barrier: the contained read left its handle in a section", sig, got)
		}
		if v, ok := h.Get(3); !ok || v != 103 {
			t.Fatalf("Get after containment = (%d,%v), want (103,true)", v, ok)
		}
	})

	t.Run("poisoned", func(t *testing.T) {
		_, h := newMap()
		// A restoration that panics poisons the handle: the walk's recover
		// barrier clears the get protectors, and this one has no shield.
		shield := h.getProt.curS
		h.getProt.curS = nil
		fault.Activate(atPanic(1))
		r := panicOf(h)
		fault.Deactivate()
		h.getProt.curS = shield
		if pe, ok := r.(*core.PanicError); !ok || !pe.Poisoned {
			t.Fatalf("recovered %v, want a poisoned *PanicError", r)
		}
		if pe, ok := panicOf(h).(*core.PanicError); !ok || !pe.Poisoned {
			t.Fatalf("Get on a poisoned handle panicked with %v, want its *PanicError", pe)
		}
	})

	// Each hook is seen to route by core.StepHook, which only a walk's
	// instrumented steps run.
	yield := atomicx.YieldPeriod
	for _, hook := range []struct {
		name     string
		arm, off func()
	}{
		{"obs", func() { obs.Activate(obs.NewCollector(0)) }, obs.Deactivate},
		{"yield", func() { atomicx.YieldPeriod = 1 << 30 }, func() { atomicx.YieldPeriod = yield }},
		{"fault", func() { fault.Activate(atPanic(1 << 62)) }, fault.Deactivate},
	} {
		t.Run("hook/"+hook.name, func(t *testing.T) {
			_, h := newMap()
			steps := 0
			core.StepHook = func(*brcu.Handle) { steps++ }
			hook.arm()
			v, ok := h.Get(3)
			hook.off()
			core.StepHook = nil
			if !ok || v != 103 || steps == 0 {
				t.Fatalf("Get = (%d,%v) with %d instrumented steps, want (103,true) from the walk", v, ok, steps)
			}
		})
	}
}

// TestFindFirstAttemptUnderSignals is TestFirstAttemptUnderSignals for the
// write side: two writers insert and remove overlapping keys of an HP-BRCU
// hash map, with no hook armed, so every find runs a first attempt and
// hands its caller a position shielded before its committing poll, while a
// reclaimer that flushes at every retire signals the first laggard. Each
// writer books its own successful inserts and removes per key; at the end
// a key must be present exactly when its books add up to one, every value
// read or removed must match its key, and after the drain nothing may be
// left unreclaimed.
func TestFindFirstAttemptUnderSignals(t *testing.T) {
	const (
		keys, buckets = 1 << 8, 1 << 4
		writers       = 2
		deadline      = 20 * time.Second
	)
	m := NewExpeditedOf(core.BackendBRCU, HHS, buckets, core.Config{MaxLocalTasks: 1, ForceThreshold: 1, ScanThreshold: 1})
	valueOf := func(k int64) int64 { return 3*k + 1 }

	var (
		stop, enough atomic.Bool
		wg           sync.WaitGroup
		ops          atomic.Int64
		books        [writers][keys]int
	)
	next := func(rng *uint64) uint64 {
		*rng ^= *rng << 13
		*rng ^= *rng >> 7
		*rng ^= *rng << 17
		return *rng
	}
	wg.Add(writers + 1)
	for w := 0; w < writers; w++ {
		go func(w int, rng uint64) {
			defer wg.Done()
			h := m.Register()
			defer h.Unregister()
			for !stop.Load() {
				r := next(&rng)
				k := int64(r % keys)
				if r&(1<<40) == 0 {
					if h.Insert(k, valueOf(k)) {
						books[w][k]++
					}
				} else if v, ok := h.Remove(k); ok {
					if v != valueOf(k) {
						t.Errorf("Remove(%d) = %d, want %d", k, v, valueOf(k))
					}
					books[w][k]--
				}
				if ops.Add(1)%4096 == 0 {
					s := m.Stats().Snapshot()
					enough.Store(s.Signals > 0 && s.Rollbacks > 0 && ops.Load() > 1<<17)
				}
			}
		}(w, uint64(w+1)*0x9E3779B97F4A7C15)
	}
	go func() { // the reader
		defer wg.Done()
		h := m.Register()
		defer h.Unregister()
		for rng := uint64(0xbeef); !stop.Load(); {
			k := int64(next(&rng) % keys)
			if v, ok := h.Get(k); ok && v != valueOf(k) {
				t.Errorf("Get(%d) = %d, want %d", k, v, valueOf(k))
			}
		}
	}()
	for start := time.Now(); !enough.Load() && time.Since(start) < deadline; {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	s := m.Stats().Snapshot()
	t.Logf("%d writes: %d signals, %d rollbacks", ops.Load(), s.Signals, s.Rollbacks)
	if s.Signals == 0 || s.Rollbacks == 0 {
		t.Fatalf("signals = %d, rollbacks = %d after %v: no signal landed in a traversal, the test is vacuous", s.Signals, s.Rollbacks, deadline)
	}

	h := m.Register()
	for k := int64(0); k < keys; k++ {
		net := 0
		for w := range books {
			net += books[w][k]
		}
		v, ok := h.Get(k)
		if (net != 0 && net != 1) || ok != (net == 1) || ok && v != valueOf(k) {
			t.Errorf("key %d: Get = (%d,%v), but the writers' books net %d successful inserts over removes", k, v, ok, net)
		}
	}
	for i := 0; i < 8; i++ {
		h.Barrier()
	}
	h.Unregister()
	if s := m.Stats().Snapshot(); s.Retired == 0 || s.Unreclaimed != 0 {
		t.Fatalf("after the drain: retired = %d, unreclaimed = %d (reclaimed %d); want retires, all reclaimed", s.Retired, s.Unreclaimed, s.Reclaimed)
	}
}

// TestFindHandsOffAMarkedRun: a find whose first attempt meets a marked
// node hands its live section to the walk, which excises the run in its
// masked region and finishes the find in that same section — no rollback
// is counted — whatever the run bound.
func TestFindHandsOffAMarkedRun(t *testing.T) {
	for _, kind := range []Kind{HarrisMichael, Harris} {
		l := NewExpeditedOf(core.BackendBRCU, kind, 1, core.Config{})
		h := l.Register()
		o := h.shared()
		for k := int64(0); k < 10; k++ {
			h.Insert(k, k)
		}
		for k := int64(3); k < 6; k++ {
			if !markOnly(o, k) {
				t.Fatalf("markOnly(%d) failed", k)
			}
		}
		if !h.Insert(20, 20) {
			t.Fatal("Insert(20) failed")
		}
		if got := l.Stats().Retired.Load(); got != 3 {
			t.Errorf("bound %d: the find retired %d of the 3 marked nodes, want all of them excised", o.bound, got)
		}
		if got := linked(o); got != 8 {
			t.Errorf("bound %d: linked = %d after the find, want 8", o.bound, got)
		}
		if rb := l.Stats().Rollbacks.Load(); rb != 0 {
			t.Errorf("bound %d: rollbacks = %d, want 0: a marked run hands the live section over, it does not roll back", o.bound, rb)
		}
		h.Unregister()
	}
}

// TestFindRoutesToWalk: a write whose find could not honour what the handle
// or the process asks of it runs the walk from the start — a poisoned
// handle (only the walk refuses one), and each step hook (only the walk's
// steps run them), the fault layer's with SitePanic contained and the
// handle left Out.
func TestFindRoutesToWalk(t *testing.T) {
	cfg := core.Config{PanicPolicy: core.PanicRecover}
	newMap := func() (*Expedited, *ExpeditedHandle) {
		m := NewExpeditedOf(core.BackendBRCU, HHS, 4, cfg)
		h := m.Register()
		t.Cleanup(h.Unregister)
		for k := int64(0); k < 16; k++ {
			h.Insert(k, k+100)
		}
		return m, h
	}
	// panicOf runs op, which must panic, and returns what it panicked with.
	panicOf := func(op func() bool) (r any) {
		defer func() { r = recover() }()
		ok := op()
		t.Fatalf("op = %v, want a panic: the find did not take the walk", ok)
		return nil
	}
	atPanic := func(period uint64) *fault.Injector {
		var plans [fault.NumSites]fault.Plan
		plans[fault.SitePanic] = fault.Plan{Period: period}
		return fault.New(fault.Config{Seed: 1, Plans: plans})
	}

	t.Run("fault", func(t *testing.T) {
		m, h := newMap()
		fault.Activate(atPanic(1))
		r := panicOf(func() bool { return h.Insert(40, 140) })
		fault.Deactivate()
		if pe, ok := r.(*core.PanicError); !ok || pe.Poisoned || pe.Value != fault.ErrInjectedPanic {
			t.Fatalf("recovered %v, want the injected panic contained as a restored *PanicError", r)
		}
		other := m.Register()
		defer other.Unregister()
		other.Remove(5)
		sig := m.Stats().Signals.Load()
		other.Barrier()
		if got := m.Stats().Signals.Load(); got != sig {
			t.Fatalf("signals %d → %d across a barrier: the contained find left its handle in a section", sig, got)
		}
		if !h.Insert(40, 140) {
			t.Fatal("Insert after containment failed")
		}
		if v, ok := h.Remove(40); !ok || v != 140 {
			t.Fatalf("Remove after containment = (%d,%v), want (140,true)", v, ok)
		}
	})

	t.Run("poisoned", func(t *testing.T) {
		_, h := newMap()
		// A restoration that panics poisons the handle: the find walk's
		// recover barrier clears prot, and this one has no cur shield.
		shield := h.prot.curS
		h.prot.curS = nil
		fault.Activate(atPanic(1))
		r := panicOf(func() bool { return h.Insert(40, 140) })
		fault.Deactivate()
		h.prot.curS = shield
		if pe, ok := r.(*core.PanicError); !ok || !pe.Poisoned {
			t.Fatalf("recovered %v, want a poisoned *PanicError", r)
		}
		if pe, ok := panicOf(func() bool { return h.Insert(41, 141) }).(*core.PanicError); !ok || !pe.Poisoned {
			t.Fatalf("Insert on a poisoned handle panicked with %v, want its *PanicError", pe)
		}
	})

	yield := atomicx.YieldPeriod
	for _, hook := range []struct {
		name     string
		arm, off func()
	}{
		{"obs", func() { obs.Activate(obs.NewCollector(0)) }, obs.Deactivate},
		{"yield", func() { atomicx.YieldPeriod = 1 << 30 }, func() { atomicx.YieldPeriod = yield }},
		{"fault", func() { fault.Activate(atPanic(1 << 62)) }, fault.Deactivate},
	} {
		t.Run("hook/"+hook.name, func(t *testing.T) {
			_, h := newMap()
			steps := 0
			core.StepHook = func(*brcu.Handle) { steps++ }
			hook.arm()
			inserted := h.Insert(40, 140)
			v, removed := h.Remove(3)
			hook.off()
			core.StepHook = nil
			if !inserted || !removed || v != 103 || steps == 0 {
				t.Fatalf("Insert = %v, Remove = (%d,%v) with %d instrumented steps; want true, (103,true) from the walk", inserted, v, removed, steps)
			}
		})
	}
}
