package hpbrcu_test

// Tests corresponding to the paper's §5 analysis: BRCU correctness
// (Theorem 5.1), the garbage bound, lock-freedom preservation (Theorem
// 5.3), robustness against stalled threads, and starvation behaviour in
// long-running operations (Tables 2 and Figure 1/6 claims).

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/bench"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/hmlist"
)

type tnode struct{ v int64 }

// TestBRCUDeferCorrectness is a randomized check of Theorem 5.1: a task
// scheduled while a critical section is live, and whose critical section
// was never neutralized, must not execute before the section ends. (With
// neutralization the theorem's second disjunct holds via the rollback —
// exercised separately in internal/brcu.)
func TestBRCUDeferCorrectness(t *testing.T) {
	pool := alloc.NewPool[tnode]()
	cache := pool.NewCache()
	// Huge ForceThreshold: no neutralization, so the first disjunct must
	// hold unconditionally.
	d := brcu.NewDomain(nil, brcu.WithMaxLocalTasks(1), brcu.WithForceThreshold(1<<30))
	reader := d.Register()
	writer := d.Register()
	defer reader.Unregister()
	defer writer.Unregister()

	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 300; round++ {
		var executed atomic.Bool
		writer.SetExecutor(func(rs []alloc.Retired) {
			executed.Store(true)
			new(alloc.Frees).FreeAll(rs)
		})

		reader.Enter()
		// Schedule a task mid-section (plus filler defers that drive the
		// epoch machinery a random amount).
		slot, _ := pool.Alloc(cache)
		pool.Hdr(slot).Retire()
		writer.Defer(slot, pool)
		for i := rng.Intn(5); i > 0; i-- {
			s2, _ := pool.Alloc(cache)
			pool.Hdr(s2).Retire()
			writer.Defer(s2, pool)
		}
		if executed.Load() {
			t.Fatalf("round %d: task executed inside a live, un-neutralized critical section", round)
		}
		if !reader.Poll() {
			t.Fatalf("round %d: reader neutralized despite infinite threshold", round)
		}
		reader.Exit()
		writer.Barrier()
		if !executed.Load() {
			t.Fatalf("round %d: task never executed after the section ended", round)
		}
	}
}

// TestMemoryBoundHolds stresses an HP-BRCU list with a stalled thread and
// checks the §5 bound 2GN+GN²+H at the data-structure level.
func TestMemoryBoundHolds(t *testing.T) {
	l := hmlist.NewHPBRCU(core.Config{MaxLocalTasks: 16, ForceThreshold: 2})
	const writers = 3

	// Stalled thread inside a critical section for the whole run.
	stalled := l.Domain().Register()
	stalled.Pin()

	// Shield count H: each list handle owns 9 shields, the raw stalled
	// handle none.
	bound := l.Domain().GarbageBoundFor(writers+1, writers*9)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := l.Register()
			defer h.Unregister()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4000; i++ {
				k := rng.Int63n(64)
				h.Insert(k, k)
				h.Remove(k)
				if peak := l.Stats().Unreclaimed.Peak(); peak > bound {
					t.Errorf("peak unreclaimed %d exceeds bound %d", peak, bound)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	stalled.Unpin()
	stalled.Unregister()

	if peak := l.Stats().Unreclaimed.Peak(); peak > bound {
		t.Fatalf("final peak %d exceeds bound %d", peak, bound)
	}
	if l.Stats().Retired.Load() == 0 {
		t.Fatal("vacuous: no retires")
	}
}

// TestRobustnessStalledThread is Table 2's criterion measured through the
// harness: bounded schemes keep the peak far below the retire count even
// with a permanently stalled reader; unbounded ones track it.
func TestRobustnessStalledThread(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	for _, s := range []hpbrcu.Scheme{hpbrcu.RCU, hpbrcu.HP, hpbrcu.NBR, hpbrcu.HPRCU, hpbrcu.HPBRCU} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			res := bench.RunStalled(bench.StallConfig{
				Scheme: s, Writers: 2, KeyRange: 128, Duration: 150 * time.Millisecond,
			})
			if res.Retired < 1000 {
				t.Skipf("too little churn to judge (retired=%d)", res.Retired)
			}
			bounded := res.PeakUnreclaimed < res.Retired/4
			if s.Robust() && !bounded {
				t.Fatalf("%s: peak %d vs retired %d — expected bounded", s, res.PeakUnreclaimed, res.Retired)
			}
			if !s.Robust() && bounded {
				t.Fatalf("%s: peak %d vs retired %d — expected unbounded growth", s, res.PeakUnreclaimed, res.Retired)
			}
		})
	}
}

// TestLongRunningStarvation is the Figure 1 claim as an assertion. With
// scans far longer than NBR's broadcast period, NBR's reader is
// neutralized once per reclamation batch whether or not it lags, and every
// neutralization restarts the scan from the entry point, while HP-BRCU's
// reader is signalled only when it blocks the epoch and rolls back to its
// last checkpoint — so NBR pays at least 100× the restarts per completed
// scan that HP-BRCU pays rollbacks, and completes (almost) no scans.
//
// Both are claims about a controlled interleaving — reader and writer
// steps alternating at step granularity — so they are asserted where the
// harness controls it, on every host: the test pins itself to one P,
// which is where RunLongScan arms atomicx.YieldPeriod. At the host's own
// GOMAXPROCS the only thing no scheduler can take away is asserted: the
// HP-BRCU reader completes scans. What real cores do to NBR under
// cooperative polling (wasted work, not zero scans) is measured by
// `smrbench fig6`, not asserted here (EXPERIMENTS.md, "Long-running
// operations").
func TestLongRunningStarvation(t *testing.T) {
	run := func(s hpbrcu.Scheme) bench.Measurement {
		return bench.RunLongScan(bench.LongScanConfig{
			Structure: bench.LongScanStructureFor(s), Scheme: s,
			Readers: 1, Writers: 2,
			KeyRange: 1 << 14, Duration: 250 * time.Millisecond,
		})
	}
	// RunLongScan arms atomicx.YieldPeriod whenever it finds one P (the
	// native leg too under GOMAXPROCS=1), so save it before any run.
	defer func(saved int) { atomicx.YieldPeriod = saved }(atomicx.YieldPeriod)
	native := run(hpbrcu.HPBRCU)
	t.Logf("GOMAXPROCS=%d: HP-BRCU scans=%d rollbacks=%d",
		runtime.GOMAXPROCS(0), native.Ops, native.Rollbacks)
	if native.Ops == 0 {
		t.Fatal("HP-BRCU reader starved — it must keep completing long scans")
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	nbr := run(hpbrcu.NBR)
	ours := run(hpbrcu.HPBRCU)
	t.Logf("one P, yield period %d: NBR scans=%d restarts=%d; HP-BRCU scans=%d rollbacks=%d",
		atomicx.YieldPeriod, nbr.Ops, nbr.Rollbacks, ours.Ops, ours.Rollbacks)
	if ours.Ops == 0 {
		t.Fatal("HP-BRCU reader starved — it must keep completing long scans")
	}
	// restarts/scan ≥ 100 × rollbacks/scan, cross-multiplied (a scheme that
	// completed no scan at all counts as one).
	if nbr.Rollbacks*ours.Ops < 100*ours.Rollbacks*max(nbr.Ops, 1) {
		t.Fatalf("NBR paid %d restarts over %d scans vs HP-BRCU's %d rollbacks over %d — expected ≥ 100× per scan under restart-from-entry",
			nbr.Rollbacks, nbr.Ops, ours.Rollbacks, ours.Ops)
	}
	if nbr.Ops > ours.Ops/2 {
		t.Fatalf("NBR completed %d scans vs HP-BRCU's %d — expected starvation under restart-from-entry",
			nbr.Ops, ours.Ops)
	}
}

// TestLockFreedomProgress is Theorem 5.3's observable consequence: with
// one thread being continuously neutralized (tiny batch, eager force),
// the system as a whole keeps completing operations.
func TestLockFreedomProgress(t *testing.T) {
	l := hmlist.NewHPBRCU(core.Config{MaxLocalTasks: 2, ForceThreshold: 1, BackupPeriod: 4})
	{
		h := l.Register()
		for k := int64(127); k >= 0; k-- {
			h.Insert(k, k)
		}
		h.Unregister()
	}

	var stop atomic.Bool
	var ops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := l.Register()
			defer h.Unregister()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := rng.Int63n(128)
				h.Insert(k, k)
				h.Remove(k)
				h.Get(k)
				ops.Add(3)
				runtime.Gosched()
			}
		}(int64(w + 1))
	}
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if ops.Load() == 0 {
		t.Fatal("no operations completed: lock-freedom violated")
	}
	if l.Stats().Signals.Load() == 0 {
		t.Log("note: no neutralizations occurred; progress check is weak this run")
	}
	t.Logf("ops=%d signals=%d rollbacks=%d", ops.Load(), l.Stats().Signals.Load(), l.Stats().Rollbacks.Load())
}
