package hpbrcu

// Adoption through Register's finalizer (DESIGN.md §7): what the garbage
// collector may adopt, what it must not, and the backpressure thresholds
// that follow N and H without sampling.

import (
	"runtime"
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/core"
)

// collectUntil runs garbage collections until cond holds, failing the test
// after a deadline.
func collectUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestReferencedIdleHandleIsNeverAdopted: a handle its owner still
// references is never adopted however many collections run, however long
// it idles while another worker churns; its garbage stays stuck in its
// batch and inside the §5 bound.
func TestReferencedIdleHandleIsNeverAdopted(t *testing.T) {
	m, err := NewHHSList(HPBRCU, Config{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	idle := m.Register()
	for k := int64(0); k < 16; k++ { // 16 retires, below the batch: they stay in idle's batch
		idle.Insert(k, k)
		idle.Remove(k)
	}
	w := m.Register()
	for i := 0; i < 4096; i++ {
		k := int64(100 + i%64)
		w.Insert(k, k)
		w.Remove(k)
		if i%512 == 0 {
			runtime.GC()
		}
	}
	for i := 0; i < 4; i++ {
		runtime.GC()
		w.Barrier()
	}
	time.Sleep(10 * time.Millisecond) // the finalizer goroutine's chance, had any been queued

	s := m.Stats().Snapshot()
	if s.ReapedHandles != 0 {
		t.Fatalf("ReapedHandles = %d: a referenced handle was adopted", s.ReapedHandles)
	}
	if s.Unreclaimed < 16 {
		t.Fatalf("unreclaimed = %d: the idle handle's batch drained without it", s.Unreclaimed)
	}
	if b := GarbageBoundObserved(m); s.PeakUnreclaimed > b {
		t.Fatalf("peak unreclaimed %d exceeds the §5 bound %d", s.PeakUnreclaimed, b)
	}
	idle.Unregister()
	w.Unregister()
	if err := Close(m, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestGoexitInsidePinIsAdopted: a goroutine that exits inside a critical
// section leaves its status word InCs forever. Under HP-RCU, which never
// signals, that section holds the epoch; once the collector finds the
// handle unreachable, adoption forces the word Out and the epoch advances
// again.
func TestGoexitInsidePinIsAdopted(t *testing.T) {
	m, err := NewHHSList(HPRCU, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := m.Stats()
	live := m.Register()
	defer live.Unregister()

	handed, done := make(chan *guardedHandle, 1), make(chan struct{})
	go func() {
		defer close(done)
		g := m.Register().(*guardedHandle)
		handed <- g
		g.inner.(coreHandle).Core().Pin()
		runtime.Goexit()
	}()
	g := <-handed
	<-done

	a0 := rec.EpochAdvances.Load()
	live.Barrier()
	if got := rec.EpochAdvances.Load() - a0; got > 1 {
		t.Fatalf("%d epoch advances past a pinned HP-RCU section, want at most 1", got)
	}
	runtime.KeepAlive(g) // the test's reference ends here

	collectUntil(t, "the exited goroutine's handle to be adopted", func() bool { return rec.ReapedHandles.Load() == 1 })
	a1 := rec.EpochAdvances.Load()
	live.Barrier()
	if got := rec.EpochAdvances.Load() - a1; got < 2 {
		t.Fatalf("%d epoch advances after the adoption, want the Barrier's rounds to advance again", got)
	}
}

// TestGCDuringOperationDoesNotAdopt: a step hook runs collections in the
// middle of a Get whose caller holds the handle nowhere else. The guard's
// runtime.KeepAlive keeps it reachable to the end of the operation, so the
// handle the operation is running on is not adopted under it; once the
// operation is over, a collection adopts it. PanicRethrow, the default, so
// no deferred latch keeps the guard alive instead.
func TestGCDuringOperationDoesNotAdopt(t *testing.T) {
	const n = 256
	m, err := NewHHSList(HPBRCU, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := m.Register()
	for k := int64(0); k < n; k++ {
		h.Insert(k, k)
	}
	h.Unregister()
	rec := m.Stats()

	during := int64(-1)
	defer func(p int) { atomicx.YieldPeriod, core.StepHook = p, nil }(atomicx.YieldPeriod)
	atomicx.YieldPeriod = 1 // arms the step hooks
	core.StepHook = func(*brcu.Handle) {
		if during >= 0 {
			return
		}
		for i := 0; i < 20 && rec.ReapedHandles.Load() == 0; i++ {
			runtime.GC()
			time.Sleep(time.Millisecond) // the finalizer goroutine's chance
		}
		during = rec.ReapedHandles.Load()
	}
	v, ok := getThroughDroppedHandle(m, n-1)
	atomicx.YieldPeriod, core.StepHook = 0, nil

	if during != 0 {
		t.Fatalf("ReapedHandles = %d during the operation: the running handle was adopted", during)
	}
	if !ok || v != n-1 {
		t.Fatalf("Get(%d) = (%d, %v)", n-1, v, ok)
	}
	collectUntil(t, "the dropped handle to be adopted after its operation", func() bool { return rec.ReapedHandles.Load() == 1 })
}

// getThroughDroppedHandle registers a handle and runs one Get through it;
// nothing but the operation itself references the handle.
//
//go:noinline
func getThroughDroppedHandle(m Map, k int64) (int64, bool) { return m.Register().Get(k) }

// TestBackpressureTracksRegistrations: the ladder's thresholds follow the
// §5 bound the moment a registration or a shield moves it, with no retire
// and no sampling in between.
func TestBackpressureTracksRegistrations(t *testing.T) {
	m, err := NewHashMap(HPBRCU, 64, Config{Backpressure: BackpressureConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	bp := m.(*mapImpl).bp
	var hs []MapHandle
	for i := 0; i < 4; i++ {
		hs = append(hs, m.Register())
		b := GarbageBoundObserved(m)
		if want := int64(0.5 * float64(b)); bp.DrainAt() != want {
			t.Fatalf("after %d registrations: DrainAt = %d, want half the bound %d", i+1, bp.DrainAt(), b)
		}
	}
	for _, h := range hs {
		h.Unregister()
	}
}
