package skiplist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/listtest"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/hp"
)

// filled builds a list holding the keys [0, n) with towers drawn from a
// fixed seed, so a test that counts steps sees the same list every run.
func filled(t *testing.T, s *Expedited, n int64) *ExpeditedHandle {
	t.Helper()
	h := s.Register()
	t.Cleanup(h.Unregister)
	h.rng = atomicx.NewRand(1)
	for k := int64(0); k < n; k++ {
		if !h.Insert(k, k+1) {
			t.Fatalf("Insert(%d) into a list without it failed", k)
		}
	}
	return h
}

// count arms the fault layer with plans that never fire, so the loops run
// their hooks and the poll and shield sites count their arrivals: one per
// loop iteration, one per shield store.
func count(t *testing.T) *fault.Injector {
	t.Helper()
	var plans [fault.NumSites]fault.Plan
	plans[fault.SitePoll] = fault.Plan{Period: 1 << 62}
	plans[fault.SiteShield] = fault.Plan{Period: 1 << 62}
	inj := fault.New(fault.Config{Seed: 1, Plans: plans})
	fault.Activate(inj)
	t.Cleanup(fault.Deactivate)
	return inj
}

// TestDescentCheckpointsOnce is TestWalkCheckpointCadence's twin for the
// package's claim that a descent never pays a mid-descent checkpoint at the
// default period: on a 2^16-key list every find stores exactly the shields
// of its final commit — the window and two per level above it — in one
// critical-section attempt, because no descent is as long as
// core.DefaultBackupPeriod. A Get commits its reads with Conclude's poll
// and stores no shield at all, whether a hook is armed (every step then
// goes through Walk) or not. It also pins what this package's cursor is:
// the window, small enough to copy without noticing.
func TestDescentCheckpointsOnce(t *testing.T) {
	if sz := unsafe.Sizeof(cursor{}); sz > 32 {
		t.Fatalf("cursor is %d bytes: it is copied at every checkpoint and must stay its window", sz)
	}
	const (
		keys       = 1 << 16
		descents   = 4096
		findStores = 2 + 2*(MaxHeight-1)
		getStores  = 0
	)
	for _, backend := range []core.Backend{core.BackendRCU, core.BackendBRCU} {
		name := map[core.Backend]string{core.BackendRCU: "HP-RCU", core.BackendBRCU: "HP-BRCU"}[backend]
		t.Run(name, func(t *testing.T) {
			s := newExpedited(backend, core.Config{})
			h := filled(t, s, keys)
			inj := count(t)
			getShields := []*hp.Shield{h.getProt.predS, h.getProt.curS, h.getBackup.predS, h.getBackup.curS}
			rng, longest := atomicx.NewRand(0xfeed), uint64(0)
			for i := 0; i < descents; i++ {
				key := int64(rng.Next() % keys)

				polls, stores := inj.Arrivals(fault.SitePoll), inj.Arrivals(fault.SiteShield)
				h.find(key, false)
				if got := inj.Arrivals(fault.SiteShield) - stores; got != findStores {
					t.Fatalf("find(%d) stored %d shields, want the final checkpoint's %d and nothing else", key, got, findStores)
				}
				if h.succs[0].IsNil() || h.l.at(h.succs[0]).Key.Load() != key || h.preds[0] == h.succs[0].Slot() {
					t.Fatalf("find(%d) recorded the level-0 link %d → %v", key, h.preds[0], h.succs[0])
				}
				longest = max(longest, inj.Arrivals(fault.SitePoll)-polls)

				polls, stores = inj.Arrivals(fault.SitePoll), inj.Arrivals(fault.SiteShield)
				if v, ok := h.Get(key); !ok || v != key+1 {
					t.Fatalf("Get(%d) = (%d,%v)", key, v, ok)
				}
				if got := inj.Arrivals(fault.SiteShield) - stores; got != getStores {
					t.Fatalf("Get(%d) stored %d shields under a hook, want %d: it commits unshielded", key, got, getStores)
				}
				longest = max(longest, inj.Arrivals(fault.SitePoll)-polls)

				for _, sh := range getShields {
					sh.Clear()
				}
				fault.Deactivate()
				v, ok := h.Get(key)
				fault.Activate(inj)
				if !ok || v != key+1 {
					t.Fatalf("unhooked Get(%d) = (%d,%v)", key, v, ok)
				}
				for _, sh := range getShields {
					if sh.Get() != 0 {
						t.Fatalf("unhooked Get(%d) left slot %d shielded, want no shield: it concludes unshielded", key, sh.Get())
					}
				}
			}
			if rb := s.Stats().Rollbacks.Load(); rb != 0 {
				t.Fatalf("%d rollbacks with nothing else running: init ran more than once a descent", rb)
			}
			t.Logf("longest of %d descents: %d steps (checkpoint period %d)", 2*descents, longest, core.DefaultBackupPeriod)
		})
	}
}

// TestGetResumesNotRestarts is hlist's test of the same name on a descent:
// Gets on two cores, checkpointing every eighth step, against a reclaimer
// that does nothing but retire never-linked nodes — so the list does not
// change — flushing every eighth retire and forcing the epoch at the first
// laggard. Every Get must be right, and the same key sequence may cost at
// most a checkpoint period and the failed poll's iteration per rollback
// more loop iterations than it costs with nothing else running: a rollback
// resumes in the level its checkpoint was taken in, never from the top.
func TestGetResumesNotRestarts(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("SKIPPED: needs 2 cores; on one the reclaimer never lands inside a Get")
	}
	const (
		keys   = 1 << 16
		period = 8
		// A Get is a few hundred nanoseconds, so most of them see no
		// neutralization; keep passing over the sequence until enough did.
		gets, minPasses, maxPasses, minRollbacks = 4096, 2, 400, 8
	)
	s := NewHPBRCU(core.Config{BackupPeriod: period, MaxLocalTasks: 8, ForceThreshold: 1, ScanThreshold: 8})
	h := filled(t, s, keys)
	inj := count(t)
	pass := func() {
		rng := atomicx.NewRand(0xfeed) // the same keys every pass
		for i := 0; i < gets; i++ {
			key := int64(rng.Next() % (2 * keys))
			v, ok := h.Get(key)
			if present := key < keys; ok != present || ok && v != key+1 {
				t.Errorf("Get(%d) = (%d,%v) under constant neutralization", key, v, ok)
			}
		}
	}
	pass()
	alone := inj.Arrivals(fault.SitePoll)
	if rb := s.Stats().Rollbacks.Load(); rb != 0 {
		t.Fatalf("%d rollbacks with nothing else running", rb)
	}

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		wh := s.Register()
		defer wh.Unregister()
		for !stop.Load() {
			slot, _ := s.pool.Alloc(wh.cache)
			s.pool.Hdr(slot).Retire()
			wh.retire(slot)
		}
	}()
	passes := uint64(0)
	for ; passes < minPasses || passes < maxPasses && s.Stats().Rollbacks.Load() < minRollbacks; passes++ {
		pass()
	}
	stop.Store(true)
	wg.Wait()

	visited := inj.Arrivals(fault.SitePoll) - alone
	rollbacks := uint64(s.Stats().Rollbacks.Load())
	t.Logf("%d passes of %d gets: %d loop iterations a pass alone, %d in all, %d rollbacks", passes, gets, alone, visited, rollbacks)
	if rollbacks < minRollbacks {
		t.Fatalf("%d rollbacks in %d gets: the reclaimer does not neutralize the reader, the test is vacuous", rollbacks, passes*gets)
	}
	if min, max := passes*alone, passes*alone+rollbacks*(period+1); visited < min || visited > max {
		t.Fatalf("%d loop iterations for %d passes and %d rollbacks, want within [%d, %d]", visited, passes, rollbacks, min, max)
	}
}

// TestFindFirstAttemptUnderSignals runs listtest.FindUnderSignals on an
// HP-BRCU skip list: with no hook armed, every find shields its record
// before its committing poll while a reclaimer that flushes at every
// retire signals the first laggard.
func TestFindFirstAttemptUnderSignals(t *testing.T) {
	s := NewHPBRCU(core.Config{MaxLocalTasks: 1, ForceThreshold: 1, ScanThreshold: 1})
	listtest.FindUnderSignals(t, listtest.Of("SkipList/HP-BRCU", true, true, s), 1<<8)
	if err := s.CheckSlow(); err != nil {
		t.Fatal(err)
	}
}

// TestCommittedOperationSurvivesContainedPanic removes every key of a list
// once, with a panic injected at roughly every 600th traversal step (the
// chaos corpus's plan). Remove traverses twice — to find the node, and
// after marking it, to unlink and retire it — so some panics land after
// the removal took effect. Under PanicRecover those must not show: a Remove
// that ends in a contained panic left its key in the list, and every key
// that is gone was retired. Under PanicRethrow the caller gets the original
// value back, also from the second traversal.
func TestCommittedOperationSurvivesContainedPanic(t *testing.T) {
	const keys = 2000
	for _, policy := range []core.PanicPolicy{core.PanicRecover, core.PanicRethrow} {
		name := map[core.PanicPolicy]string{core.PanicRecover: "recover", core.PanicRethrow: "rethrow"}[policy]
		t.Run(name, func(t *testing.T) {
			s := NewHPBRCU(core.Config{PanicPolicy: policy})
			h := filled(t, s, keys)

			var plans [fault.NumSites]fault.Plan
			plans[fault.SitePanic] = fault.Plan{Period: 600, Cooldown: 32}
			inj := fault.New(fault.Config{Seed: 1, Plans: plans})
			fault.Activate(inj)
			defer fault.Deactivate()

			// remove reports Remove's result and the panic it ended in, if any.
			remove := func(key int64) (ok bool, thrown any) {
				defer func() { thrown = recover() }()
				_, ok = h.Remove(key)
				return ok, nil
			}
			thrown := map[int64]any{} // key → what its Remove ended in
			for key := int64(0); key < keys; key++ {
				ok, r := remove(key)
				switch {
				case r != nil:
					thrown[key] = r
				case !ok:
					t.Fatalf("Remove(%d) of a present key = false", key)
				}
			}
			fault.Deactivate()

			left := map[int64]bool{}
			for _, key := range h.l.KeysSlow() {
				left[key] = true
			}
			afterEffect := 0 // panics that reached the caller from the unlinking find
			for key, r := range thrown {
				pe, contained := r.(*core.PanicError)
				switch {
				case policy == core.PanicRethrow && r != fault.ErrInjectedPanic:
					t.Fatalf("Remove(%d) ended in %v, want the injected panic itself", key, r)
				case policy == core.PanicRecover && (!contained || pe.Poisoned || pe.Value != fault.ErrInjectedPanic):
					t.Fatalf("Remove(%d) ended in %v, want the injected panic contained", key, r)
				}
				if !left[key] {
					afterEffect++
				}
			}
			for key := range left {
				if thrown[key] == nil {
					t.Fatalf("key %d is still there and its Remove did not panic", key)
				}
			}
			fired, gone := int(inj.Fired(fault.SitePanic)), int64(keys-len(left))
			t.Logf("%d panics injected, %d reached the caller, %d of those after the removal took effect; %d keys gone", fired, len(thrown), afterEffect, gone)
			if got := s.Stats().PanicsRecovered.Load(); got != int64(fired) {
				t.Fatalf("PanicsRecovered = %d for %d injected panics", got, fired)
			}
			if policy == core.PanicRethrow {
				if afterEffect == 0 {
					t.Fatal("no panic from the unlinking find reached the caller: the test does not reach it")
				}
				return
			}
			if afterEffect > 0 {
				t.Fatalf("%d Removes ended in a contained panic and removed their key anyway", afterEffect)
			}
			if len(thrown) == fired {
				t.Fatal("every injected panic reached the caller: none landed in a find after a removal took effect, the test does not reach it")
			}
			if got := s.Stats().Retired.Load(); got != gone {
				t.Fatalf("Retired = %d for %d keys gone: a marked node lost its owner", got, gone)
			}
			if err := h.l.CheckSlow(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
