package brcu

import (
	"runtime"
	"sync"
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
)

type node struct{ key int64 }

// pendingBatches reports how many flushed batches are waiting in the
// global task set.
func (d *Domain) pendingBatches() int {
	d.tasksMu.Lock()
	n := len(d.tasks)
	d.tasksMu.Unlock()
	return n
}

func retireOne(t *testing.T, pool *alloc.Pool[node], cache *alloc.Cache[node], h *Handle) uint64 {
	t.Helper()
	slot, _ := pool.Alloc(cache)
	pool.Hdr(slot).Retire()
	h.Defer(slot, pool)
	return slot
}

func TestPhasePacking(t *testing.T) {
	for _, ph := range []uint64{phaseOut, phaseInCs, phaseInRm, phaseRbReq} {
		for _, e := range []uint64{0, 1, 7, 1 << 40} {
			gotPh, gotE := unpack(pack(ph, e))
			if gotPh != ph || gotE != e {
				t.Fatalf("pack/unpack(%d,%d) = (%d,%d)", ph, e, gotPh, gotE)
			}
		}
	}
}

func TestCriticalSectionBlocksReclamation(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(nil, WithMaxLocalTasks(1), WithForceThreshold(1000000))
	reader := d.Register()
	reclaimer := d.Register()
	defer reclaimer.Unregister()

	reader.Enter()
	slot := retireOne(t, pool, cache, reclaimer)
	for i := 0; i < 10; i++ {
		retireOne(t, pool, cache, reclaimer)
	}
	if pool.Hdr(slot).State() == alloc.StateFree {
		t.Fatal("node freed under a live critical section without signalling")
	}
	reader.Exit()
	reader.Unregister()
	reclaimer.Barrier()
	if pool.Hdr(slot).State() != alloc.StateFree {
		t.Fatal("node not freed after reader exited")
	}
}

func TestNeutralizationUnblocksReclamation(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	// Force after 2 failed advances (the paper's default).
	d := NewDomain(nil, WithMaxLocalTasks(1), WithForceThreshold(2))
	stalled := d.Register()
	reclaimer := d.Register()
	defer reclaimer.Unregister()

	stalled.Enter() // simulated stalled thread: never polls

	slot := retireOne(t, pool, cache, reclaimer)
	// Each Defer is a flush (batch=1); after ForceThreshold failures the
	// reclaimer must signal the stalled thread and advance anyway.
	for i := 0; i < 8; i++ {
		retireOne(t, pool, cache, reclaimer)
	}
	if pool.Hdr(slot).State() != alloc.StateFree {
		t.Fatal("stalled thread blocked reclamation: BRCU must bound the critical section")
	}
	if d.Stats().Signals.Load() == 0 {
		t.Fatal("no signal was recorded")
	}
	if !stalled.Poll() == false {
		// Poll must now report the rollback request.
		t.Log("stalled thread sees RbReq:", !stalled.Poll())
	}
	if stalled.Poll() {
		t.Fatal("stalled thread must observe the neutralization at its next poll")
	}
	// The stalled thread rolls back: re-enter supersedes RbReq.
	stalled.Enter()
	if !stalled.Poll() {
		t.Fatal("fresh critical section must not inherit the old RbReq")
	}
	stalled.Exit()
	stalled.Unregister()
}

func TestSelectiveSignalling(t *testing.T) {
	// Only lagging threads are signalled; current ones are left alone.
	d := NewDomain(nil, WithMaxLocalTasks(1), WithForceThreshold(1))
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()

	lagging := d.Register()
	current := d.Register()
	reclaimer := d.Register()
	defer current.Unregister()
	defer reclaimer.Unregister()

	lagging.Enter()
	// Advance the epoch once so `lagging` is behind, then re-pin `current`
	// at the fresh epoch.
	retireOne(t, pool, cache, reclaimer)
	current.Enter()

	// One more flush: `lagging` (behind the epoch) must be signalled,
	// `current` (at the epoch) must not. A further flush would advance the
	// epoch once more and legitimately make `current` a laggard, so check
	// after exactly one.
	sigBefore := d.Stats().Signals.Load()
	retireOne(t, pool, cache, reclaimer)
	if d.Stats().Signals.Load() == sigBefore {
		t.Fatal("lagging thread was never signalled")
	}
	if !lagging.Poll() == false {
		t.Log("ok")
	}
	if lagging.Poll() {
		t.Fatal("lagging thread must be neutralized")
	}
	if !current.Poll() {
		t.Fatal("current-epoch thread must NOT be signalled (selective policy)")
	}
	current.Exit()
	lagging.Exit()
	lagging.Unregister()
}

func TestForceThresholdDelaysSignals(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(nil, WithMaxLocalTasks(1), WithForceThreshold(3))
	reader := d.Register()
	reclaimer := d.Register()
	defer reclaimer.Unregister()

	reader.Enter()
	retireOne(t, pool, cache, reclaimer) // advances (reader is current)... reader now lags
	// pushCnt resets on success; the next two flushes fail quietly.
	retireOne(t, pool, cache, reclaimer)
	if d.Stats().Signals.Load() != 0 {
		t.Fatal("signalled before reaching ForceThreshold")
	}
	retireOne(t, pool, cache, reclaimer)
	if d.Stats().Signals.Load() != 0 {
		t.Fatal("signalled before reaching ForceThreshold")
	}
	retireOne(t, pool, cache, reclaimer) // third failure: force
	if d.Stats().Signals.Load() != 1 {
		t.Fatalf("signals = %d, want 1 after threshold", d.Stats().Signals.Load())
	}
	reader.Exit()
	reader.Unregister()
}

func TestMaskDefersNeutralization(t *testing.T) {
	d := NewDomain(nil)
	h := d.Register()
	defer h.Unregister()

	h.Enter()
	ran, rb := h.Mask(func() {
		// Neutralize mid-mask, as a concurrent reclaimer would.
		st := h.status.Load()
		ph, e := unpack(st)
		if ph != phaseInRm {
			t.Fatalf("phase in mask = %d, want InRm", ph)
		}
		if !h.status.CompareAndSwap(st, pack(phaseRbReq, e)) {
			t.Fatal("simulated signal CAS failed")
		}
	})
	if !ran {
		t.Fatal("mask body must run")
	}
	if !rb {
		t.Fatal("rollback must be demanded after a mid-mask neutralization")
	}
	h.Enter() // rollback = re-enter
	h.Exit()
}

func TestMaskRefusesWhenAlreadyNeutralized(t *testing.T) {
	d := NewDomain(nil)
	h := d.Register()
	defer h.Unregister()

	h.Enter()
	st := h.status.Load()
	_, e := unpack(st)
	h.status.Store(pack(phaseRbReq, e)) // simulated signal before Mask

	ran, rb := h.Mask(func() { t.Fatal("body must not run after neutralization") })
	if ran || !rb {
		t.Fatalf("Mask after neutralization: ran=%v rb=%v, want false,true", ran, rb)
	}
	h.Exit()
}

func TestMaskOutsideCSPanics(t *testing.T) {
	d := NewDomain(nil)
	h := d.Register()
	defer h.Unregister()
	defer func() {
		if recover() == nil {
			t.Fatal("Mask outside a critical section must panic")
		}
	}()
	h.Mask(func() {})
}

func TestRefreshCatchesUp(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(nil, WithMaxLocalTasks(1), WithForceThreshold(1000000))
	reader := d.Register()
	reclaimer := d.Register()
	defer reclaimer.Unregister()

	reader.Enter()
	retireOne(t, pool, cache, reclaimer) // epoch advances; reader lags
	slot := retireOne(t, pool, cache, reclaimer)
	_ = slot
	// Reader refreshes: it is no longer lagging, so the epoch can advance
	// without signals.
	if !reader.Refresh() {
		t.Fatal("Refresh must succeed when not neutralized")
	}
	e0 := d.Epoch()
	retireOne(t, pool, cache, reclaimer)
	if d.Epoch() == e0 {
		t.Fatal("epoch should advance after the reader refreshed")
	}
	if d.Stats().Signals.Load() != 0 {
		t.Fatal("no signals expected with a refreshing reader")
	}
	reader.Exit()
	reader.Unregister()
}

// TestGarbageBoundUnderStall checks the §5 robustness bound: with a stalled
// thread pinned forever, the number of retired-but-unreclaimed nodes stays
// below 2GN + GN² (+0 shields: plain BRCU has none).
func TestGarbageBoundUnderStall(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(nil, WithMaxLocalTasks(8), WithForceThreshold(2))
	stalled := d.Register()
	w := d.Register()
	defer w.Unregister()

	stalled.Enter() // never polls, never exits

	bound := d.GarbageBound()
	for i := 0; i < 20000; i++ {
		retireOne(t, pool, cache, w)
		if got := d.Stats().Unreclaimed.Load(); got > bound {
			t.Fatalf("unreclaimed %d exceeds bound %d at iteration %d", got, bound, i)
		}
	}
	if peak := d.Stats().Unreclaimed.Peak(); peak > bound {
		t.Fatalf("peak %d exceeds bound %d", peak, bound)
	}
	stalled.Exit()
	stalled.Unregister()
}

// TestExecuteExpiredDropsRunBatches: the drain filters d.tasks in place, so
// it must zero the slots it vacates — an expired batch left in the slice's
// spare capacity would pin its backing array until a later flush happened
// to overwrite that index. It runs once behind an HP-BRCU reader that is
// never signalled in time and once behind a baseline's pinned reader.
func TestExecuteExpiredDropsRunBatches(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"Signalling", WithForceThreshold(1 << 20)},
		{"NeverSignal", NeverSignal()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := alloc.NewPool[node]()
			cache := pool.NewCache()
			d := NewDomain(nil, WithMaxLocalTasks(8), tc.opt)
			reader := d.Register()
			w := d.Register()
			defer w.Unregister()

			reader.Enter() // pinned: every flush after the first queues
			for i := 0; i < 32*8; i++ {
				retireOne(t, pool, cache, w)
			}
			if n := d.pendingBatches(); n < 31 {
				t.Fatalf("setup: %d batches queued behind the pinned reader, want ≥ 31", n)
			}
			reader.Exit()
			reader.Unregister()
			w.Barrier()

			if got := d.Stats().Unreclaimed.Load(); got != 0 {
				t.Fatalf("unreclaimed = %d after the barrier", got)
			}
			d.tasksMu.Lock()
			defer d.tasksMu.Unlock()
			for i, b := range d.tasks[len(d.tasks):cap(d.tasks)] {
				if b.tasks != nil || b.epoch != 0 || b.flushed != 0 {
					t.Fatalf("spare slot %d of d.tasks still holds an executed batch (epoch %d, %d tasks)",
						len(d.tasks)+i, b.epoch, len(b.tasks))
				}
			}
		})
	}
}

// TestDeferConcurrent runs concurrent reclaimers with readers constantly
// entering/polling/rolling back, checking counters balance at the end.
func TestDeferConcurrent(t *testing.T) {
	pool := alloc.NewPool[node]()
	d := NewDomain(nil, WithMaxLocalTasks(8), WithForceThreshold(2))
	const writers, readers = 3, 3
	const perWriter = 4000

	var wg sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := d.Register()
			defer h.Unregister()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Enter()
				for s := 0; s < 50; s++ {
					if !h.Poll() {
						h.RecordRollback()
						h.Enter()
					}
				}
				h.Exit()
				runtime.Gosched()
			}
		}()
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := d.Register()
			defer h.Unregister()
			c := pool.NewCache()
			for i := 0; i < perWriter; i++ {
				slot, _ := pool.Alloc(c)
				pool.Hdr(slot).Retire()
				h.Defer(slot, pool)
			}
		}()
	}

	// Wait for the writers only.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Writers register/unregister inside the goroutines; simply wait until
	// all retires are accounted for, then stop readers.
	for d.Stats().Retired.Load() < writers*perWriter {
		runtime.Gosched()
	}
	close(stop)
	<-done

	fin := d.Register()
	fin.Barrier()
	fin.Unregister()
	s := d.Stats().Snapshot()
	if s.Retired != writers*perWriter {
		t.Fatalf("retired = %d, want %d", s.Retired, writers*perWriter)
	}
	if s.Unreclaimed != 0 {
		t.Fatalf("unreclaimed = %d after final barrier, want 0 (reclaimed=%d)", s.Unreclaimed, s.Reclaimed)
	}
}
