package brcu

import (
	"runtime"
	"sync"
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
)

// The tests in this file hold a NeverSignal domain to plain RCU (§2.2):
// the RCU and NR baselines of every data structure run on one, entering
// with Pin, leaving with Unpin and retiring with the counting Defer inside
// the section.

func isFree(pool *alloc.Pool[node], slot uint64) bool {
	return pool.Hdr(slot).State() == alloc.StateFree
}

// TestNoReclaimMode: NR counts every retire and never frees, whatever the
// barriers do.
func TestNoReclaimMode(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(nil, NoReclaim(), NeverSignal(), WithMaxLocalTasks(1))
	h := d.Register()
	defer h.Unregister()

	var slots []uint64
	for i := 0; i < 100; i++ {
		slots = append(slots, retireOne(t, pool, cache, h))
	}
	h.Barrier()
	s := d.Stats().Snapshot()
	if s.Retired != 100 || s.Reclaimed != 0 || s.Unreclaimed != 100 {
		t.Fatalf("NR stats = %+v, want retired=100 reclaimed=0 unreclaimed=100", s)
	}
	for _, slot := range slots {
		if st := pool.Hdr(slot).State(); st != alloc.StateRetired {
			t.Fatalf("NR domain freed slot %d (state %d): it must never free", slot, st)
		}
	}
}

// TestEpochAdvancesWhenQuiescent: with no section live, every forced
// round advances the epoch of a never-signalling domain by one.
func TestEpochAdvancesWhenQuiescent(t *testing.T) {
	d := NewDomain(nil, NeverSignal())
	h := d.Register()
	defer h.Unregister()

	e0 := d.Epoch()
	h.ForceFlush()
	if d.Epoch() != e0+1 {
		t.Fatalf("epoch = %d with no section live, want %d", d.Epoch(), e0+1)
	}
	h.ForceFlush()
	if d.Epoch() != e0+2 {
		t.Fatalf("epoch = %d after a second round, want %d", d.Epoch(), e0+2)
	}
}

// TestPinBlocksReclamation: a node retired while another handle's section
// stands is not freed, however many barriers run, and nothing is
// signalled; once the section ends, a barrier frees it.
func TestPinBlocksReclamation(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(nil, NeverSignal(), WithMaxLocalTasks(1))
	reader := d.Register()
	reclaimer := d.Register()
	defer reclaimer.Unregister()

	reader.Pin()
	slot := retireOne(t, pool, cache, reclaimer)
	for i := 0; i < 10; i++ {
		reclaimer.Barrier() // cannot advance past the pinned reader
	}
	if isFree(pool, slot) {
		t.Fatal("node reclaimed while a section from before its retire is live")
	}
	if n := d.Stats().Signals.Load(); n != 0 || !reader.Poll() {
		t.Fatalf("never-signalling domain signalled (signals=%d, poll=%v)", n, reader.Poll())
	}

	reader.Unpin()
	reader.Unregister()
	reclaimer.Barrier()
	if !isFree(pool, slot) {
		t.Fatal("node not reclaimed after the section ended")
	}
}

// TestLaggingPinBlocksAdvance: a section pinned at the current epoch lets
// one advance through; from then on it lags and blocks every further
// advance, forced or not, for as long as it stands. Re-pinning catches up.
func TestLaggingPinBlocksAdvance(t *testing.T) {
	d := NewDomain(nil, NeverSignal())
	a := d.Register()
	b := d.Register()
	defer a.Unregister()
	defer b.Unregister()

	e0 := d.Epoch()
	a.Pin() // pinned at the current epoch
	b.ForceFlush()
	if d.Epoch() != e0+1 {
		t.Fatalf("epoch = %d with the only section current, want %d", d.Epoch(), e0+1)
	}
	for i := 0; i < 10; i++ { // a lags by one from here on
		b.ForceFlush()
	}
	if d.Epoch() != e0+1 {
		t.Fatalf("epoch advanced to %d past a lagging section", d.Epoch())
	}
	if n := d.Stats().Signals.Load(); n != 0 || !a.Poll() {
		t.Fatalf("never-signalling domain signalled (signals=%d, poll=%v)", n, a.Poll())
	}
	a.Unpin()
	a.Pin() // catches up
	b.ForceFlush()
	if d.Epoch() != e0+2 {
		t.Fatalf("epoch = %d after the re-pin, want %d", d.Epoch(), e0+2)
	}
	a.Unpin()
}

// TestDeferredRunsAfterTwoEpochs: a node deferred at epoch e is freed only
// once the epoch reaches e+2, so one Defer — one advance — cannot free it.
func TestDeferredRunsAfterTwoEpochs(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(nil, NeverSignal(), WithMaxLocalTasks(1))
	h := d.Register()
	defer h.Unregister()

	e := d.Epoch()
	slot := retireOne(t, pool, cache, h) // batch of 1: flush, advance, drain
	if d.Epoch() != e+1 || isFree(pool, slot) {
		t.Fatalf("after one Defer: epoch %d (want %d), freed=%v (want false)", d.Epoch(), e+1, isFree(pool, slot))
	}
	h.Barrier()
	if !isFree(pool, slot) {
		t.Fatal("node not freed after the barrier")
	}
}

// TestDeferInsidePinFreesAfterUnpin: a baseline retires inside its own
// section, which is never rolled back, so the counting Defer is legal
// there. The section blocks its own retires like anyone else's: the node
// survives every advance the section allows and is freed after Unpin.
func TestDeferInsidePinFreesAfterUnpin(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(nil, NeverSignal(), WithMaxLocalTasks(1))
	h := d.Register()
	defer h.Unregister()

	h.Pin()
	slot := retireOne(t, pool, cache, h)
	for i := 0; i < 10; i++ {
		retireOne(t, pool, cache, h)
		h.Barrier()
	}
	if isFree(pool, slot) {
		t.Fatal("node freed inside the section that retired it")
	}
	h.Unpin()
	h.Barrier()
	if !isFree(pool, slot) {
		t.Fatal("node not freed after the section ended")
	}
}

// TestDeferNoCountInsideSectionPanics: core's uncounted entry is the one
// defer a rollback could replay, so it refuses an unmasked section.
func TestDeferNoCountInsideSectionPanics(t *testing.T) {
	pool := alloc.NewPool[node]()
	slot, _ := pool.Alloc(pool.NewCache())
	pool.Hdr(slot).Retire()
	d := NewDomain(nil)
	h := d.Register()
	defer h.Unregister()

	h.Enter()
	defer func() {
		if recover() == nil {
			t.Fatal("DeferNoCount inside an unmasked section must panic")
		}
		h.Exit()
	}()
	h.DeferNoCount(slot, pool)
}

// TestPinDeferChurn runs the baselines' pattern from several goroutines
// on a never-signalling domain: inside one pinned section, swap a shared
// cell's node, retire the old one, then read another cell's node and
// check that it outlives a yield — whoever retires it meanwhile, the
// pin keeps it from being freed. At the end everything is freed.
func TestPinDeferChurn(t *testing.T) {
	pool := alloc.NewPool[node]()
	d := NewDomain(nil, NeverSignal(), WithMaxLocalTasks(16))
	const workers = 4
	const perWorker = 3000

	var shared [8]struct {
		mu   sync.Mutex
		slot uint64
	}
	c := pool.NewCache()
	for i := range shared {
		shared[i].slot, _ = pool.Alloc(c)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			h := d.Register()
			defer h.Unregister()
			c := pool.NewCache()
			for i := 0; i < perWorker; i++ {
				h.Pin()
				cell := &shared[(seed+i)%len(shared)]
				ns, _ := pool.Alloc(c)
				cell.mu.Lock()
				old := cell.slot
				cell.slot = ns
				cell.mu.Unlock()
				pool.Hdr(old).Retire()
				h.Defer(old, pool)

				read := &shared[(seed+i+1)%len(shared)]
				read.mu.Lock()
				cur := read.slot
				read.mu.Unlock()
				runtime.Gosched()
				if isFree(pool, cur) {
					t.Error("a node read inside a live section was freed")
					h.Unpin()
					return
				}
				h.Unpin()
			}
		}(w)
	}
	wg.Wait()

	fin := d.Register()
	fin.Barrier()
	fin.Unregister()
	s := d.Stats().Snapshot()
	if s.Retired != workers*perWorker || s.Unreclaimed != 0 || s.Signals != 0 {
		t.Fatalf("retired=%d unreclaimed=%d signals=%d, want %d, 0, 0",
			s.Retired, s.Unreclaimed, s.Signals, workers*perWorker)
	}
}
