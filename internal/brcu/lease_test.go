package brcu

import (
	"sync"
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
)

// The tests that predate the one-word claim keep their names, so the
// suite's history lines up; where a name says Quarantine, read the
// reaper's claim (TryReap).

// leaseDomain builds a domain with leases on and a large batch so deferred
// tasks stay local (the interesting state for adoption).
func leaseDomain(t *testing.T) *Domain {
	t.Helper()
	d := NewDomain(nil, WithMaxLocalTasks(1024), WithForceThreshold(1000000))
	d.EnableLeases()
	return d
}

// claim is the reaper's whole first step: read the word, CAS from it.
func claim(h *Handle) (word uint64, ok bool) {
	word = h.Word()
	return word, h.TryReap(word)
}

func phaseOf(h *Handle) uint64 {
	ph, _ := unpack(h.status.Load())
	return ph
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

	// The reap: claim, adopt, remove, publish.
	word, ok := claim(victim)
	if !ok {
		t.Fatal("TryReap failed on an out-of-CS handle")
	}
	if victim.TryReap(word) || victim.TryReap(victim.Word()) {
		t.Fatal("a handle mid-reap was claimed a second time")
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
	d.RemoveAll([]*Handle{victim})
	victim.FinishReap()
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

// TestOwnerCancelsQuarantine: the reaper's claim compares against the word
// it read; an owner that has entered a section since — or entered and left
// again — has replaced that word, so the claim fails and the owner is
// untouched.
func TestOwnerCancelsQuarantine(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	defer h.Unregister()

	stale := h.Word() // the scan's look
	h.Enter()         // the owner wakes up
	if h.TryReap(stale) {
		t.Fatal("TryReap from a stale word succeeded inside the owner's section")
	}
	h.Exit()
	if h.TryReap(stale) {
		t.Fatal("TryReap from a stale word succeeded after the owner's round trip: an Out word recurred")
	}
	if h.Gen() != 0 {
		t.Fatal("a defeated claim must not count as a resurrection")
	}
}

func TestQuarantineRefusedInsideCS(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	h.Enter()
	if _, ok := claim(h); ok {
		t.Fatal("TryReap succeeded inside a live critical section")
	}
	h.Exit()
	h.Unregister()
}

func TestExitPreservesReaperPhases(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	h.Enter()
	h.SelfNeutralize()
	// The neutralized section stood long enough to be claimed. A racing
	// Exit (a slow owner finishing a section the reaper already gave up
	// on) must not smash the reaper-owned word, mid-reap or after it.
	if _, ok := claim(h); !ok {
		t.Fatal("TryReap failed on a neutralized section")
	}
	h.Exit()
	if ph := phaseOf(h); ph != phaseReaping {
		t.Fatalf("Exit overwrote the claim: phase = %s", phaseName(ph))
	}
	h.AdoptBatch()
	d.RemoveAll([]*Handle{h})
	h.FinishReap()
	h.Exit()
	if ph := phaseOf(h); ph != phaseReaped {
		t.Fatalf("Exit overwrote the reap: phase = %s", phaseName(ph))
	}
	// The owner's next Enter still resolves it.
	h.Enter()
	if ph := phaseOf(h); ph != phaseInCs {
		t.Fatalf("Enter did not resolve the reap: phase = %s", phaseName(ph))
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

	word, ok := claim(h)
	if !ok {
		t.Fatal("reap protocol refused an idle handle")
	}
	h.AdoptBatch()
	d.RemoveAll([]*Handle{h})
	h.FinishReap()

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
	if h.Word() == word || h.TryReap(word) {
		t.Fatal("the word the reaper claimed stands again after the resurrection")
	}
	h.Unregister()
	if d.handles.Len() != 0 {
		t.Fatal("unregister after resurrection left the handle registered")
	}
}

func TestUnregisterAfterReapBalancesBooks(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	if _, ok := claim(h); !ok {
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
	// Mid-mutation the handle must be un-reapable: a reaper arriving while
	// the batch is being appended/flushed could otherwise adopt the very
	// slice the owner is writing.
	if _, ok := claim(h); ok {
		t.Fatal("TryReap succeeded during BeginMut")
	}
	if h.BeginMut() {
		t.Fatal("nested BeginMut claimed twice")
	}
	h.EndMut()
	word, ok := claim(h)
	if !ok {
		t.Fatal("TryReap failed after EndMut")
	}
	h.CancelReap(word) // leave the handle clean for the deferred Unregister
}

func TestBeginMutResolvesQuarantine(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	defer h.Unregister()

	stale := h.Word() // the scan's look
	// The owner's next batch mutation replaces the word on its way into
	// InMut, exactly like Enter would, and the span counts as activity:
	// the word from before it is gone for good.
	if !h.BeginMut() {
		t.Fatal("BeginMut failed on an idle handle")
	}
	if h.TryReap(stale) {
		t.Fatal("TryReap from the pre-mutation word succeeded during BeginMut")
	}
	h.EndMut()
	if h.TryReap(stale) {
		t.Fatal("TryReap from the pre-mutation word succeeded after EndMut: an Out word recurred")
	}
	if h.Gen() != 0 {
		t.Fatal("a defeated claim must not count as a resurrection")
	}
}

func TestCancelReapLeavesOwnerUntouched(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	h.Enter()
	h.Exit()

	word, ok := claim(h)
	if !ok {
		t.Fatal("reap protocol refused an idle handle")
	}
	if !h.BatchEmpty() {
		t.Fatal("fresh handle reports a non-empty batch")
	}
	h.CancelReap(word)
	if got := h.Word(); got != word {
		t.Fatalf("word = %#x after CancelReap, want the claimed word %#x back (a parked victim must stay parked)", got, word)
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
	go func() { // the reaper: claim → adopt → remove → publish
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if word, ok := claim(h); ok {
				if h.BatchEmpty() {
					h.CancelReap(word)
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

// TestWordMovesWithActivity is what makes the status word a lease: every
// owner operation that could leave something to adopt — a section, a
// Defer, a Barrier, a bare mutation span — ends on an Out word no look has
// ever seen, so a scan comparing two looks sees the activity and a claim
// from any earlier look fails. Inside a section nothing writes an Out
// word at all.
//
// The rule is for Out words only. RbReq(e) can recur: the rollback-and-
// retry touch below, taken twice at a standing epoch with a
// SelfNeutralize each time (fault injection, RequestCancel), shows the
// same RbReq(e) with a whole Enter in between. A sampling scan that
// catches both a timeout apart claims a live owner, which costs it one
// spurious reap-and-resurrect — the path TestResurrectionAfterReap
// certifies safe (DESIGN.md §7.2).
func TestWordMovesWithActivity(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := leaseDomain(t)
	h := d.Register()
	defer h.Unregister()

	looks := []uint64{h.Word()}
	for round := 0; round < 3; round++ {
		for i, touch := range []func(){
			func() { h.Enter(); h.Exit() },
			func() { h.Enter(); h.SelfNeutralize(); h.Enter(); h.Exit() }, // rollback and retry
			func() { h.Enter(); h.ForceOut() },                            // contained panic
			func() { retireOne(t, pool, cache, h) },
			func() { h.Barrier() },
			func() { h.BeginMut(); h.EndMut() },
		} {
			touch()
			w := h.Word()
			if ph, _ := unpack(w); ph != phaseOut {
				t.Fatalf("round %d touch %d: ended in %s, want Out", round, i, phaseName(ph))
			}
			for _, seen := range looks {
				if w == seen {
					t.Fatalf("round %d touch %d: Out word %#x recurred", round, i, w)
				}
				if h.TryReap(seen) {
					t.Fatalf("round %d touch %d: claim from an earlier look %#x succeeded", round, i, seen)
				}
			}
			looks = append(looks, w)
		}
	}

	// Inside a section the word only ever shows section phases.
	h.Enter()
	for i, step := range []func(){
		func() { h.Poll() },
		func() { h.Refresh() },
		func() { h.Mask(func() {}) },
	} {
		step()
		if ph := phaseOf(h); ph != phaseInCs {
			t.Fatalf("step %d moved the section to %s", i, phaseName(ph))
		}
	}
	h.Exit()
}

func TestPollReportsReaperPhases(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	h.Enter()
	if !h.Poll() {
		t.Fatal("Poll failed in a healthy critical section")
	}
	h.SelfNeutralize()
	if _, ok := claim(h); !ok {
		t.Fatal("TryReap failed on a neutralized section")
	}
	// A traversal that observes a reaper phase — mid-reap or after it —
	// must roll back to Enter, which resolves it.
	mustRollBack := func(when string) {
		t.Helper()
		if h.Poll() {
			t.Fatalf("Poll passed %s", when)
		}
		if _, mustRollback := h.Mask(func() {}); !mustRollback {
			t.Fatalf("Mask must demand rollback %s", when)
		}
		if h.Refresh() {
			t.Fatalf("Refresh succeeded %s", when)
		}
	}
	mustRollBack("while being reaped")
	h.AdoptBatch()
	d.RemoveAll([]*Handle{h})
	h.FinishReap()
	mustRollBack("after the reap")
	h.Enter()
	h.Exit()
	h.Unregister()
}
