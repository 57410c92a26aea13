package hlist

// Tests of the one loop of a read and of a write's find on the hash map and
// the list: that real reclaimer signals landing in a first section never
// let a wrong value or a lost update through, that a marked run is excised
// in place, that a find's shields are committed by its poll, and that every
// hook drives the same loop, through Walk.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/listtest"
	"github.com/smrgo/hpbrcu/internal/ds/lnode"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/obs"
)

// TestFirstAttemptUnderSignals churns an HP-BRCU hash map with no hook
// armed — so every Get's Step is the inline poll and countdown, unlike
// under any chaos mode, which arms the fault layer and sends every Step to
// Walk — and a reclaimer that flushes at every retire and signals the first
// laggard. Readers check every value against
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

// countingProtector counts the Protect calls of the protector it wraps.
type countingProtector[C any] struct {
	core.Protector[C]
	n *int
}

func (p countingProtector[C]) Protect(c *C) {
	*p.n++
	p.Protector.Protect(c)
}

// armedHooks are the three things that arm the step hooks, each with a
// plan that never fires, so the traversal's result is the unhooked one.
func armedHooks() []struct {
	name     string
	arm, off func()
} {
	yield := atomicx.YieldPeriod
	return []struct {
		name     string
		arm, off func()
	}{
		{"obs", func() { obs.Activate(obs.NewCollector(0)) }, obs.Deactivate},
		{"yield", func() { atomicx.YieldPeriod = 1 << 30 }, func() { atomicx.YieldPeriod = yield }},
		{"fault", func() { fault.Activate(atPanic(1 << 62)) }, fault.Deactivate},
	}
}

// atPanic is a fault plan that panics at every period-th hooked step.
func atPanic(period uint64) *fault.Injector {
	var plans [fault.NumSites]fault.Plan
	plans[fault.SitePanic] = fault.Plan{Period: period}
	return fault.New(fault.Config{Seed: 1, Plans: plans})
}

// TestReadRoutesToWalk: a read's every step goes to Walk while a hook is
// armed, and the read is the same loop: each hook (obs, the yield harness,
// the fault layer) runs its steps through Walk — core.StepHook sees them —
// and the short read still commits through Conclude without a Protect or a
// rollback. Through Walk a panic at a step (SitePanic) is contained as a
// *PanicError with the handle left Out, and a handle whose restore failed
// is refused.
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
		t.Fatalf("Get = (%d,%v), want a panic: the read's steps did not run the hooks", v, ok)
		return nil
	}

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
		// A restoration that panics poisons the handle: Walk's recover
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

	for _, hook := range armedHooks() {
		t.Run("hook/"+hook.name, func(t *testing.T) {
			m, h := newMap()
			protects := 0
			h.getBuf.Init(h.h, countingProtector[getCursor]{h.getProt, &protects}, countingProtector[getCursor]{h.getBackup, &protects})
			steps := 0
			core.StepHook = func(*brcu.Handle) { steps++ }
			hook.arm()
			v, ok := h.Get(3)
			hook.off()
			core.StepHook = nil
			if !ok || v != 103 || steps == 0 || protects != 0 {
				t.Fatalf("Get = (%d,%v) with %d hooked steps and %d protections; want (103,true) through Walk's steps, committed by Conclude unshielded", v, ok, steps, protects)
			}
			if rb := m.Stats().Rollbacks.Load(); rb != 0 {
				t.Fatalf("%d rollbacks: the hooked read did not commit in its first section", rb)
			}
		})
	}
}

// TestFindFirstAttemptUnderSignals is TestFirstAttemptUnderSignals for the
// write side (listtest.FindUnderSignals): two writers insert and remove
// overlapping keys of an HP-BRCU hash map, with no hook armed, so every
// find hands its caller a position shielded before its committing poll,
// while a reclaimer that flushes at every retire signals the first
// laggard; the writers' books must balance and the drain must reclaim
// everything.
func TestFindFirstAttemptUnderSignals(t *testing.T) {
	m := NewExpeditedOf(core.BackendBRCU, HHS, 1<<4, core.Config{MaxLocalTasks: 1, ForceThreshold: 1, ScanThreshold: 1})
	listtest.FindUnderSignals(t, listtest.Of("HashMap/HP-BRCU", false, true, m), 1<<8)
}

// TestFindHandsOffAMarkedRun: a find that meets a marked run hands that
// step to Walk, which excises the run in its masked region and lets the
// find go on from where the run ends in the same section — whatever the
// run bound, no rollback is counted and no node is visited twice. With the
// step hooks armed, core.StepHook counts the find's steps: one per node
// before and after the run, one per excision and one past the tail. A find
// that gave up at the run and started over from the head would step the
// prefix again (and, with nobody else to excise the run, forever: the hook
// stops it).
func TestFindHandsOffAMarkedRun(t *testing.T) {
	defer func(p int) { atomicx.YieldPeriod, core.StepHook = p, nil }(atomicx.YieldPeriod)
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
		// 7 live nodes and the tail, and one step per excision: a whole
		// run in one under Harris, each marked node in its own under
		// Harris-Michael (bound 1).
		excisions := map[Kind]int{Harris: 1, HarrisMichael: 3}[kind]
		want := 7 + 1 + excisions
		steps := 0
		core.StepHook = func(*brcu.Handle) {
			if steps++; steps > 10*want {
				panic("the find keeps stepping: it restarted at the marked run")
			}
		}
		atomicx.YieldPeriod = 1 << 30 // arms the hooks, never yields
		inserted, thrown := func() (ok bool, r any) {
			defer func() { r = recover() }()
			return h.Insert(20, 20), nil
		}()
		atomicx.YieldPeriod, core.StepHook = 0, nil
		if thrown != nil || !inserted {
			t.Fatalf("bound %d: Insert(20) = %v, panicked with %v", o.bound, inserted, thrown)
		}
		if steps != want {
			t.Errorf("bound %d: the find took %d steps across the marked run, want %d: each node once", o.bound, steps, want)
		}
		if got := l.Stats().Retired.Load(); got != 3 {
			t.Errorf("bound %d: the find retired %d of the 3 marked nodes, want all of them excised", o.bound, got)
		}
		if got := linked(o); got != 8 {
			t.Errorf("bound %d: linked = %d after the find, want 8", o.bound, got)
		}
		if rb := l.Stats().Rollbacks.Load(); rb != 0 {
			t.Errorf("bound %d: rollbacks = %d, want 0: a marked run is excised in the live section, it does not roll back", o.bound, rb)
		}
		h.Unregister()
	}
}

// preProtector runs before, once, ahead of the protector it wraps.
type preProtector struct {
	core.Protector[cursor]
	before func(c *cursor)
}

func (p *preProtector) Protect(c *cursor) {
	if f := p.before; f != nil {
		p.before = nil
		f(c)
	}
	p.Protector.Protect(c)
}

// TestFindCommitsItsShields stages, in the list's own find, what a shield
// stored after Conclude would lose. Just before the find shields its
// destination, another handle unlinks and retires that node and its barrier
// frees it. Inside the section that barrier has to neutralize the finder
// first, so Conclude's poll fails and the find rolls back and returns the
// next position; a find that concluded before shielding would be out of its
// section by then and return the freed node.
func TestFindCommitsItsShields(t *testing.T) {
	l := NewExpeditedOf(core.BackendBRCU, Harris, 1, core.Config{MaxLocalTasks: 1, ScanThreshold: 1})
	fill := l.Register()
	for k := int64(0); k < 10; k++ {
		fill.Insert(k, k)
	}
	fill.Unregister()
	h, other := l.Register(), l.Register()
	defer h.Unregister()
	defer other.Unregister()

	pool := h.l.Pool
	var victim uint64
	h.searchBuf.Init(h.h, &preProtector{h.prot, func(c *cursor) {
		victim = c.cur.Slot()
		n := pool.At(victim)
		next := n.Next.Load()
		if !n.Next.CompareAndSwap(next, next.WithTag(lnode.MarkBit)) || !pool.At(c.prev).Next.CompareAndSwap(c.cur, next) {
			t.Errorf("could not unlink the destination, slot %d", victim)
		}
		pool.Hdr(victim).Retire()
		other.retire(victim)
		other.Barrier()
		// Errorf, not Fatalf: the find must still leave its section.
		if pool.Hdr(victim).State() != alloc.StateFree {
			t.Errorf("the destination survived the barrier: the test does not reach the hazard")
		}
	}}, h.backup)

	_, cur, found := h.find(5)
	if victim == 0 {
		t.Fatal("the find stored no shield")
	}
	if cur.Slot() == victim || found {
		t.Fatalf("find(5) = (slot %d, found %v): it returned the node freed before its shields were committed", cur.Slot(), found)
	}
	if cur.IsNil() || pool.Hdr(cur.Slot()).State() == alloc.StateFree || h.l.At(cur).Key.Load() != 6 {
		t.Fatalf("find(5) returned %v, want the live node of key 6", cur)
	}
	if s := l.Stats().Snapshot(); s.Signals == 0 || s.Rollbacks != 1 {
		t.Fatalf("signals = %d, rollbacks = %d; want the finder signalled and rolled back once", s.Signals, s.Rollbacks)
	}
}

// TestFindRoutesToWalk: a write's find runs the read's one loop. Each hook
// (obs, the yield harness, the fault layer) sends its steps through Walk —
// core.StepHook sees them — and a short find still commits in its first
// section, with its destination alone shielded, in prot. Through Walk a
// panic at a step (SitePanic) is contained with the handle left Out, and a
// handle whose restore failed is refused.
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
		t.Fatalf("op = %v, want a panic: the find's steps did not run the hooks", ok)
		return nil
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
		// A restoration that panics poisons the handle: Walk's recover
		// barrier clears prot, and this one has no cur shield.
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

	for _, hook := range armedHooks() {
		t.Run("hook/"+hook.name, func(t *testing.T) {
			m, h := newMap()
			var inProt, inBackup int
			h.searchBuf.Init(h.h, countingProtector[cursor]{h.prot, &inProt}, countingProtector[cursor]{h.backup, &inBackup})
			steps := 0
			core.StepHook = func(*brcu.Handle) { steps++ }
			hook.arm()
			inserted := h.Insert(40, 140)
			v, removed := h.Remove(3)
			hook.off()
			core.StepHook = nil
			if !inserted || !removed || v != 103 || steps == 0 {
				t.Fatalf("Insert = %v, Remove = (%d,%v) with %d hooked steps; want true, (103,true) through Walk's steps", inserted, v, removed, steps)
			}
			if rb := m.Stats().Rollbacks.Load(); inProt != 2 || inBackup != 0 || rb != 0 {
				t.Fatalf("two finds shielded %d positions in prot and %d in backup, with %d rollbacks; want their two destinations in prot, committed in their first sections", inProt, inBackup, rb)
			}
		})
	}
}
