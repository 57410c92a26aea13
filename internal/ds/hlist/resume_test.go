package hlist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/fault"
)

// TestNeutralizedReadResumes neutralizes a long optimistic read at its
// 50th step, through core.StepHook and SelfNeutralize — the rollback a
// reclaimer's signal or an injected fault causes — under both expedited
// schemes: an HP-RCU section is never signalled, so this is the only way
// one rolls back. The read must return the right value after exactly one
// rollback, having resumed from its last complete checkpoint: it repeats
// at most a period of steps, not the 50 a restart from the head would.
// The handle must then serve the next operations as before.
func TestNeutralizedReadResumes(t *testing.T) {
	defer func(p int) { atomicx.YieldPeriod, core.StepHook = p, nil }(atomicx.YieldPeriod)
	const n, key, at, period = 200, 150, 50, 8
	for _, sc := range []struct {
		name    string
		backend core.Backend
	}{{"HP-RCU", core.BackendRCU}, {"HP-BRCU", core.BackendBRCU}} {
		t.Run(sc.name, func(t *testing.T) {
			l := NewExpeditedOf(sc.backend, Harris, 1, core.Config{BackupPeriod: period, MaxLocalTasks: 8, ScanThreshold: 8})
			h := l.Register()
			defer h.Unregister()
			for k := int64(n - 1); k >= 0; k-- { // descending: every insert lands at the head
				h.Insert(k, k*31+7)
			}
			// read runs GetOptimistic(key) with the step hooks armed and
			// neutralizes its section at hooked step stopAt (0: never).
			read := func(stopAt int) (v int64, found bool, steps int) {
				neutralized := false
				core.StepHook = func(b *brcu.Handle) {
					if steps++; steps == stopAt {
						neutralized = b.SelfNeutralize()
					}
				}
				atomicx.YieldPeriod = 1 << 30 // arms the hooks, never yields
				v, found = h.GetOptimistic(key)
				atomicx.YieldPeriod, core.StepHook = 0, nil
				if stopAt != 0 && !neutralized {
					t.Fatalf("step %d: SelfNeutralize planted nothing; the read was not in its section", stopAt)
				}
				return v, found, steps
			}
			_, _, clean := read(0)
			before := l.Stats().Rollbacks.Load()
			v, found, steps := read(at)
			if !found || v != key*31+7 {
				t.Fatalf("GetOptimistic(%d) = (%d,%v) after the rollback, want (%d,true)", key, v, found, key*31+7)
			}
			if rb := l.Stats().Rollbacks.Load() - before; rb != 1 {
				t.Fatalf("%d rollbacks, want the 1 the neutralization caused", rb)
			}
			if steps <= clean || steps > clean+period {
				t.Fatalf("the neutralized read took %d steps, a clean one %d: a resume repeats 1..%d of them, a restart %d", steps, clean, period, at)
			}
			// The handle is reusable as it stands: no re-registration.
			if v, found := h.Get(42); !found || v != 42*31+7 {
				t.Fatalf("Get(42) after the rollback = (%d,%v), want (%d,true)", v, found, 42*31+7)
			}
			if !h.Insert(n, n) {
				t.Fatal("Insert after the rollback failed")
			}
			if v, found := h.GetOptimistic(n); !found || v != n {
				t.Fatalf("GetOptimistic(%d) after the rollback = (%d,%v), want (%d,true)", n, v, found, n)
			}
		})
	}
}

// TestGetResumesNotRestarts runs the list's own Get loop on two cores
// against a reclaimer that does nothing but retire, flushing every eighth
// retire and forcing the epoch at the first laggard: every Get must still be
// right, and the nodes it visits must show that a rollback resumed from
// the last complete checkpoint — at most BackupPeriod steps back — never
// from the head.
//
// Nodes visited are counted by the poll site's arrivals: the fault layer
// is armed with a plan that (practically) never fires, so the loop runs its
// step hooks and each iteration is one arrival. The reclaimer retires
// never-linked nodes without traversing, so every arrival is the reader's.
func TestGetResumesNotRestarts(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("SKIPPED: needs 2 cores; on one the reclaimer never lands inside a Get")
	}
	const (
		nodes  = 4096
		period = core.DefaultBackupPeriod
		// When the two threads really run side by side the reader is
		// neutralized several times per Get; when the host time-slices
		// them onto one core, once per quantum. Keep reading until either
		// has produced enough rollbacks to mean something.
		minGets, maxGets, minRollbacks = 200, 20000, 8
	)
	l := NewExpeditedOf(core.BackendBRCU, HHS, 1, core.Config{MaxLocalTasks: 8, ForceThreshold: 1, ScanThreshold: 8})
	h := l.Register()
	for k := int64(2*nodes - 2); k >= 0; k -= 2 { // descending: every insert lands at the head
		h.Insert(k, k+1)
	}

	var plans [fault.NumSites]fault.Plan
	plans[fault.SitePoll] = fault.Plan{Period: 1 << 62}
	inj := fault.New(fault.Config{Seed: 1, Plans: plans})
	fault.Activate(inj)

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		wh := l.Register()
		defer wh.Unregister()
		for !stop.Load() {
			slot, _ := l.pool.Alloc(wh.cache)
			l.pool.Hdr(slot).Retire()
			wh.retire(slot)
		}
	}()

	var steps uint64
	gets, rng := 0, uint64(0xfeed)
	for ; gets < minGets || gets < maxGets && l.Stats().Rollbacks.Load() < minRollbacks; gets++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		key := int64(rng % (2 * nodes))
		v, ok := h.Get(key)
		if present := key&1 == 0; ok != present || ok && v != key+1 {
			t.Errorf("Get(%d) = (%d,%v) under constant neutralization", key, v, ok)
		}
		steps += uint64(key+1)/2 + 1 // every even key below key, plus the node it stops on
	}
	stop.Store(true)
	wg.Wait()
	fault.Deactivate()
	h.Unregister()

	visited := inj.Arrivals(fault.SitePoll)
	rollbacks := uint64(l.Stats().Rollbacks.Load())
	t.Logf("%d gets: %d steps, %d loop iterations, %d rollbacks", gets, steps, visited, rollbacks)
	if rollbacks < minRollbacks {
		t.Fatalf("%d rollbacks in %d gets: the reclaimer does not neutralize the reader, the test is vacuous", rollbacks, gets)
	}
	// A rollback costs the steps since the last complete checkpoint, at
	// most a period of them, and the iteration whose poll failed.
	if max := steps + rollbacks*(period+1); visited < steps || visited > max {
		t.Fatalf("%d loop iterations for %d steps and %d rollbacks, want within [%d, %d]",
			visited, steps, rollbacks, steps, max)
	}
}
