package brcu

import (
	"sync"
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/alloc"
)

// leaseDomain builds a domain with leases on and a large batch so deferred
// tasks stay local (the interesting state for adoption).
func leaseDomain(t *testing.T) *Domain {
	t.Helper()
	d := NewDomain(nil, WithMaxLocalTasks(1024), WithForceThreshold(1000000))
	d.EnableLeases()
	return d
}

func TestQuarantineReapAdoptsBatch(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := leaseDomain(t)
	victim := d.Register()
	for i := 0; i < 5; i++ {
		retireOne(t, pool, cache, victim)
	}
	if len(victim.batch) != 5 {
		t.Fatalf("victim batch = %d, want 5 local tasks", len(victim.batch))
	}

	// Two-phase reap: quarantine, confirm, adopt, publish.
	if !victim.TryQuarantine() {
		t.Fatal("TryQuarantine failed on an out-of-CS handle")
	}
	if !victim.TryQuarantine() {
		t.Fatal("re-quarantine of a quarantined handle must succeed (re-arm)")
	}
	if !victim.TryBeginReap() {
		t.Fatal("TryBeginReap failed on a quarantined handle")
	}
	if n := victim.AdoptBatch(); n != 5 {
		t.Fatalf("AdoptBatch = %d, want 5", n)
	}
	if victim.batch != nil {
		t.Fatal("victim batch not detached after adoption")
	}
	if got := d.pendingBatches(); got != 1 {
		t.Fatalf("pendingBatches = %d, want 1 adopted batch", got)
	}
	victim.FinishReap()
	d.RemoveAll([]*Handle{victim})
	if d.handles.Len() != 0 {
		t.Fatalf("registry has %d handles after RemoveAll", d.handles.Len())
	}

	// A fresh handle's barrier drains the adopted garbage: the leak is
	// recovered without the dead owner's cooperation.
	drainer := d.Register()
	drainer.Barrier()
	drainer.Unregister()
	if got := d.rec.Unreclaimed.Load(); got != 0 {
		t.Fatalf("unreclaimed = %d after adopting drain, want 0", got)
	}
}

func TestOwnerCancelsQuarantine(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	defer func() {
		h.Exit()
		h.Unregister()
	}()

	if !h.TryQuarantine() {
		t.Fatal("TryQuarantine failed")
	}
	// The owner wakes up: Enter resolves the quarantine via the owner-wins
	// CAS, so the reaper's confirmation must fail.
	h.Enter()
	if h.TryBeginReap() {
		t.Fatal("TryBeginReap succeeded after the owner cancelled the quarantine")
	}
	if h.Gen() != 0 {
		t.Fatal("cancelling a quarantine must not count as a resurrection")
	}
}

func TestQuarantineRefusedInsideCS(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	h.Enter()
	if h.TryQuarantine() {
		t.Fatal("TryQuarantine succeeded inside a live critical section")
	}
	h.Exit()
	h.Unregister()
}

func TestExitPreservesReaperPhases(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	if !h.TryQuarantine() {
		t.Fatal("TryQuarantine failed")
	}
	// A racing Exit (e.g. a slow owner finishing a section the reaper
	// already gave up on) must not smash the reaper-owned word.
	h.Exit()
	if ph, _ := unpack(h.status.Load()); ph != phaseQuarantined {
		t.Fatalf("Exit overwrote quarantine: phase = %d", ph)
	}
	// The owner's next Enter still resolves it.
	h.Enter()
	if ph, _ := unpack(h.status.Load()); ph != phaseInCs {
		t.Fatalf("Enter did not resolve quarantine: phase = %d", ph)
	}
	h.Exit()
	h.Unregister()
}

func TestResurrectionAfterReap(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := leaseDomain(t)
	h := d.Register()
	retireOne(t, pool, cache, h)

	hooked := false
	h.SetResurrect(func() { hooked = true })

	if !h.TryQuarantine() || !h.TryBeginReap() {
		t.Fatal("reap protocol refused an idle handle")
	}
	h.AdoptBatch()
	h.FinishReap()
	d.RemoveAll([]*Handle{h})

	// The owner was merely slow, not dead: its next Enter resurrects.
	h.Enter()
	if !hooked {
		t.Fatal("resurrect hook did not run")
	}
	if h.Gen() != 1 {
		t.Fatalf("gen = %d after one resurrection, want 1", h.Gen())
	}
	if d.handles.Len() != 1 {
		t.Fatalf("registry has %d handles after resurrection, want 1", d.handles.Len())
	}
	if len(h.batch) != 0 {
		t.Fatal("resurrected handle inherited a batch the reaper adopted")
	}
	h.Exit()
	h.Unregister()
	if d.handles.Len() != 0 {
		t.Fatal("unregister after resurrection left the handle registered")
	}
}

func TestUnregisterAfterReapBalancesBooks(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	if !h.TryQuarantine() || !h.TryBeginReap() {
		t.Fatal("reap protocol refused an idle handle")
	}
	h.AdoptBatch()
	d.RemoveAll([]*Handle{h})
	h.FinishReap()

	// A defer-ed Unregister finally firing on a reaped handle resurrects
	// it (BeginMut) and then removes it — the registry and the population
	// gauge must come out balanced, not double-decremented.
	h.Unregister()
	if d.handles.Len() != 0 {
		t.Fatalf("registry has %d handles, want 0", d.handles.Len())
	}
	if got := d.population.Peak(); got != 1 {
		t.Fatalf("population peak = %d, want 1", got)
	}
	if got := d.population.Load(); got != 0 {
		t.Fatalf("population = %d after unregister, want 0", got)
	}
}

func TestBeginMutBlocksQuarantine(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	defer h.Unregister()

	if !h.BeginMut() {
		t.Fatal("BeginMut failed to claim on an idle handle")
	}
	// Mid-mutation the handle must be un-quarantinable: a reaper arriving
	// while the batch is being appended/flushed could otherwise adopt the
	// very slice the owner is writing.
	if h.TryQuarantine() {
		t.Fatal("TryQuarantine succeeded during BeginMut")
	}
	if h.BeginMut() {
		t.Fatal("nested BeginMut claimed twice")
	}
	h.EndMut()
	if !h.TryQuarantine() {
		t.Fatal("TryQuarantine failed after EndMut")
	}
	// Leave the handle clean for the deferred Unregister.
	h.Enter()
	h.Exit()
}

func TestBeginMutResolvesQuarantine(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	defer h.Unregister()

	if !h.TryQuarantine() {
		t.Fatal("TryQuarantine failed")
	}
	// The owner's next batch mutation cancels the quarantine on its way
	// into InMut, exactly like Enter would.
	if !h.BeginMut() {
		t.Fatal("BeginMut failed on a quarantined handle")
	}
	if h.TryBeginReap() {
		t.Fatal("TryBeginReap succeeded after BeginMut cancelled the quarantine")
	}
	h.EndMut()
	if h.Gen() != 0 {
		t.Fatal("cancelling a quarantine via BeginMut must not count as a resurrection")
	}
}

func TestCancelReapLeavesOwnerUntouched(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()

	if !h.TryQuarantine() || !h.TryBeginReap() {
		t.Fatal("reap protocol refused an idle handle")
	}
	if !h.BatchEmpty() {
		t.Fatal("fresh handle reports a non-empty batch")
	}
	h.CancelReap()
	if ph, _ := unpack(h.status.Load()); ph != phaseOut {
		t.Fatalf("phase = %d after CancelReap, want Out", ph)
	}
	// No resurrection happened: same generation, same registration.
	h.Enter()
	h.Exit()
	if h.Gen() != 0 {
		t.Fatalf("gen = %d after a cancelled reap, want 0", h.Gen())
	}
	if d.handles.Len() != 1 {
		t.Fatalf("registry has %d handles, want 1", d.handles.Len())
	}
	h.Unregister()
}

// TestDeferReapRace drives an owner continuously deferring (with flushes)
// against a scripted reaper hammering the full reap protocol with no
// lease patience at all, under the race detector: the InMut phase must
// serialize every batch mutation against adoption, and the
// Remove-before-FinishReap order must keep the registry and the
// population gauge balanced through any interleaving of reap,
// resurrection, and the final Unregister.
func TestDeferReapRace(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(nil, WithMaxLocalTasks(4), WithForceThreshold(1000000))
	d.EnableLeases()
	h := d.Register()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the reaper: quarantine → confirm → adopt → remove → publish
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if h.TryQuarantine() && h.TryBeginReap() {
				if h.BatchEmpty() {
					h.CancelReap()
					continue
				}
				h.AdoptBatch()
				d.RemoveAll([]*Handle{h})
				h.FinishReap()
			}
		}
	}()

	const retires = 2000
	for i := 0; i < retires; i++ {
		retireOne(t, pool, cache, h)
	}
	close(done)
	wg.Wait()
	h.Unregister()

	if got := d.population.Load(); got != 0 {
		t.Fatalf("population = %d after the storm, want 0", got)
	}
	if got := d.handles.Len(); got != 0 {
		t.Fatalf("registry has %d handles after the storm, want 0", got)
	}

	// Everything the owner retired is either already reclaimed or parked
	// in the global task set (flushed or adopted); a fresh drainer must be
	// able to recover all of it.
	drainer := d.Register()
	drainer.Barrier()
	drainer.Unregister()
	if got := d.rec.Unreclaimed.Load(); got != 0 {
		t.Fatalf("unreclaimed = %d after the drain, want 0", got)
	}
	if got := d.rec.Retired.Load(); got != retires {
		t.Fatalf("retired = %d, want %d", got, retires)
	}
	if got := d.rec.Reclaimed.Load(); got != retires {
		t.Fatalf("reclaimed = %d, want %d", got, retires)
	}
}

// TestLeaseStampsFollowClock pins the stamp sites: the lease takes the
// published clock exactly when the owner leaves the Out state — Enter,
// and BeginMut under Defer, Barrier and Unregister — and at no other
// point of a section's life (Poll, Refresh, Mask, Exit, EndMut).
func TestLeaseStampsFollowClock(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := leaseDomain(t)
	h := d.Register()
	defer h.Unregister()

	now := time.Now().UnixNano()
	for i, touch := range []func(){
		func() { h.Enter(); h.Exit() },
		func() { retireOne(t, pool, cache, h) },
		func() { h.Barrier() },
		func() { h.BeginMut(); h.EndMut() },
	} {
		now += int64(time.Second)
		d.PublishClock(now)
		touch()
		if got := h.Lease(); got != now {
			t.Fatalf("touch %d: lease = %d, want published clock %d", i, got, now)
		}
	}

	// Inside a section nothing stamps: the clock moves on, the lease
	// stays at the value Enter copied.
	h.Enter()
	entered := h.Lease()
	d.PublishClock(now + int64(time.Second))
	h.Poll()
	h.Refresh()
	h.Mask(func() {})
	h.Exit()
	if got := h.Lease(); got != entered {
		t.Fatalf("lease moved inside a critical section: %d, want Enter's stamp %d", got, entered)
	}
}

func TestPollReportsReaperPhases(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	h.Enter()
	if !h.Poll() {
		t.Fatal("Poll failed in a healthy critical section")
	}
	h.Exit()
	if !h.TryQuarantine() {
		t.Fatal("TryQuarantine failed")
	}
	// A traversal that somehow observes a reaper phase must roll back to
	// Enter, which resolves it.
	if h.Poll() {
		t.Fatal("Poll passed while quarantined")
	}
	if _, mustRollback := h.Mask(func() {}); !mustRollback {
		t.Fatal("Mask must demand rollback while quarantined")
	}
	if h.Refresh() {
		t.Fatal("Refresh succeeded while quarantined")
	}
	h.Enter()
	h.Exit()
	h.Unregister()
}
