package reap

import (
	"sync/atomic"
	"testing"

	"github.com/smrgo/hpbrcu/internal/stats"
)

// mockVictim scripts one handle through the reap protocol.
type mockVictim struct {
	lease     atomic.Int64
	exempt    bool
	inCS      bool // TryQuarantine fails, like a live critical section
	cancel    bool // owner wins the quarantine CAS: TryBeginReap fails
	empty     bool // Empty reports nothing to adopt
	adoptN    int
	began     int
	adopted   int
	finished  int
	cancelled int
}

func (v *mockVictim) Lease() int64        { return v.lease.Load() }
func (v *mockVictim) Exempt() bool        { return v.exempt }
func (v *mockVictim) TryQuarantine() bool { return !v.inCS }
func (v *mockVictim) TryBeginReap() bool {
	if v.cancel {
		return false
	}
	v.began++
	return true
}
func (v *mockVictim) Empty() bool { return v.empty }
func (v *mockVictim) CancelReap() { v.cancelled++ }
func (v *mockVictim) Adopt() int  { v.adopted++; return v.adoptN }
func (v *mockVictim) FinishReap() { v.finished++ }

// mockTarget is a scripted domain.
type mockTarget struct {
	clock   int64
	victims []Victim
	removed []Victim
	// removeSawFinished records whether any victim had already published
	// FinishReap when Remove ran — the ordering the UAF fix forbids.
	removeSawFinished bool
}

func (t *mockTarget) PublishClock(now int64) { t.clock = now }
func (t *mockTarget) Victims() []Victim      { return t.victims }
func (t *mockTarget) Remove(vs []Victim) {
	for _, v := range vs {
		if v.(*mockVictim).finished > 0 {
			t.removeSawFinished = true
		}
	}
	t.removed = append(t.removed, vs...)
}

// testReaper builds a tick-driven reaper: lease timeout 100, grace 50 (in
// the test's abstract nanosecond clock).
func testReaper(tgt Target, rec *stats.Reclamation) *Reaper {
	return New(tgt, Config{LeaseTimeout: 100, Grace: 50, Rec: rec})
}

func TestReapLifecycle(t *testing.T) {
	v := &mockVictim{adoptN: 7}
	v.lease.Store(10)
	tgt := &mockTarget{victims: []Victim{v}}
	rec := &stats.Reclamation{}
	r := testReaper(tgt, rec)

	r.Tick(50) // lease age 40 < 100: healthy
	if r.Quarantined() != 0 {
		t.Fatal("healthy victim quarantined")
	}
	r.Tick(200) // age 190 > 100: quarantine
	if r.Quarantined() != 1 {
		t.Fatal("stale victim not quarantined")
	}
	if tgt.clock != 200 {
		t.Fatalf("clock = %d, want published 200", tgt.clock)
	}
	r.Tick(220) // grace 20 < 50: still pending
	if v.adopted != 0 || r.Quarantined() != 1 {
		t.Fatal("reaped before the grace period elapsed")
	}
	if n := r.Tick(300); n != 1 { // grace 100 > 50: reap
		t.Fatalf("Tick reported %d reaped, want 1 (the caller's cue to drain)", n)
	}
	if v.adopted != 1 || v.finished != 1 {
		t.Fatalf("adopted=%d finished=%d, want 1/1", v.adopted, v.finished)
	}
	if len(tgt.removed) != 1 || tgt.removed[0] != Victim(v) {
		t.Fatalf("removed = %v, want the victim", tgt.removed)
	}
	if tgt.removeSawFinished {
		t.Fatal("registry removal ran after FinishReap: a waking owner could resurrect and be stripped while live")
	}
	if got := rec.ReapedHandles.Load(); got != 1 {
		t.Fatalf("ReapedHandles = %d, want 1", got)
	}
	if got := rec.AdoptedNodes.Load(); got != 7 {
		t.Fatalf("AdoptedNodes = %d, want 7", got)
	}
}

func TestLeaseMovementAbortsReap(t *testing.T) {
	v := &mockVictim{}
	v.lease.Store(10)
	tgt := &mockTarget{victims: []Victim{v}}
	r := testReaper(tgt, nil)

	r.Tick(200)
	if r.Quarantined() != 1 {
		t.Fatal("stale victim not quarantined")
	}
	// The owner stamps its lease (it was alive all along). The reaper must
	// drop the quarantine entry instead of confirming with stale state.
	v.lease.Store(201)
	r.Tick(300)
	if v.adopted != 0 {
		t.Fatal("reaped a victim whose lease moved")
	}
	if r.Quarantined() != 0 {
		t.Fatal("stale quarantine entry not dropped")
	}
}

func TestOwnerWinsQuarantineCAS(t *testing.T) {
	v := &mockVictim{cancel: true}
	v.lease.Store(10)
	tgt := &mockTarget{victims: []Victim{v}}
	rec := &stats.Reclamation{}
	r := testReaper(tgt, rec)

	r.Tick(200)
	r.Tick(300)
	if v.adopted != 0 || v.finished != 0 {
		t.Fatal("adoption ran although the owner won the quarantine CAS")
	}
	if len(tgt.removed) != 0 || rec.ReapedHandles.Load() != 0 {
		t.Fatal("cancelled reap was still recorded")
	}
}

func TestExemptAndLiveVictimsSkipped(t *testing.T) {
	exempt := &mockVictim{exempt: true}
	inCS := &mockVictim{inCS: true}
	tgt := &mockTarget{victims: []Victim{exempt, inCS}}
	r := testReaper(tgt, nil)

	r.Tick(1 << 30) // both leases ancient
	if r.Quarantined() != 0 {
		t.Fatal("exempt or in-CS victim quarantined")
	}
}

func TestDepartedVictimPurged(t *testing.T) {
	v := &mockVictim{}
	v.lease.Store(10)
	tgt := &mockTarget{victims: []Victim{v}}
	r := testReaper(tgt, nil)

	r.Tick(200)
	if r.Quarantined() != 1 {
		t.Fatal("stale victim not quarantined")
	}
	// The victim unregisters between ticks: its entry must not linger.
	tgt.victims = nil
	r.Tick(300)
	if r.Quarantined() != 0 {
		t.Fatal("departed victim's quarantine entry not purged")
	}
	if v.adopted != 0 {
		t.Fatal("departed victim was reaped")
	}
}

// TestCleanupDrainsWhileMakingProgress: after an adoption arms the gate,
// the janitor's drain rounds keep running as long as each one lowered the
// unreclaimed gauge, and stop once the books balance.
func TestCleanupDrainsWhileMakingProgress(t *testing.T) {
	var g DrainGate
	if g.Allow(3) {
		t.Fatal("a gate nobody armed allowed a round")
	}
	g.Arm() // the reap tick: garbage parked in the global paths
	if !g.Allow(3) {
		t.Fatal("the round after an adoption must always run")
	}
	if !g.Allow(2) { // progress (3→2)
		t.Fatal("a round that made progress must be followed by another")
	}
	if g.Allow(0) { // books balanced
		t.Fatal("a round ran with nothing left to reclaim")
	}
	if g.Allow(1) {
		t.Fatal("the gate reopened by itself after the books balanced")
	}
	g.Arm()
	if !g.Allow(5) {
		t.Fatal("a new adoption must reopen the gate, whatever the earlier level")
	}
}

// TestCleanupStopsWithoutProgress: with live workers continuously
// retiring, the unreclaimed gauge may never reach zero — a round that
// fails to lower it must close the gate instead of forcing
// flush-and-advance (and neutralization) storms forever.
func TestCleanupStopsWithoutProgress(t *testing.T) {
	var g DrainGate
	g.Arm()
	if !g.Allow(5) {
		t.Fatal("the round after an adoption must always run")
	}
	for i := 0; i < 6; i++ { // live workers keep the gauge pinned, or growing
		if g.Allow(int64(5 + i)) {
			t.Fatalf("round %d ran although the previous one made no progress", i)
		}
	}
	if g.Allow(3) {
		t.Fatal("a later drop reopened the gate; only new parked work may")
	}
}

// TestEmptyVictimParkedNotReaped: an idle-but-registered handle with
// nothing to adopt must not be churned through reap/resurrect cycles; it
// is parked after one cancelled confirm and only re-examined when its
// lease moves.
func TestEmptyVictimParkedNotReaped(t *testing.T) {
	v := &mockVictim{empty: true, adoptN: 7}
	v.lease.Store(10)
	tgt := &mockTarget{victims: []Victim{v}}
	rec := &stats.Reclamation{}
	r := testReaper(tgt, rec)

	r.Tick(200) // quarantine
	r.Tick(300) // confirm → empty → cancel + park
	if v.began != 1 || v.cancelled != 1 {
		t.Fatalf("began=%d cancelled=%d, want 1/1", v.began, v.cancelled)
	}
	if v.adopted != 0 || v.finished != 0 || len(tgt.removed) != 0 {
		t.Fatal("an empty victim was reaped")
	}
	if rec.ReapedHandles.Load() != 0 {
		t.Fatal("cancelled empty reap was still counted")
	}
	// Parked: further ticks must not touch the victim again.
	r.Tick(400)
	r.Tick(500)
	if v.began != 1 {
		t.Fatalf("began = %d, want 1 (parked victim re-confirmed)", v.began)
	}
	if r.Quarantined() != 1 {
		t.Fatal("parked victim lost its bookkeeping entry")
	}

	// The owner wakes and does real work: the lease moves, the park entry
	// drops, and a later stale period (now with state to adopt) reaps.
	v.lease.Store(550)
	v.empty = false
	r.Tick(600) // lease moved: unparked
	if r.Quarantined() != 0 {
		t.Fatal("park entry survived a lease movement")
	}
	r.Tick(700) // stale again: quarantine
	r.Tick(800) // confirm → adopt
	if v.adopted != 1 || v.finished != 1 {
		t.Fatalf("adopted=%d finished=%d after the handle became non-empty, want 1/1", v.adopted, v.finished)
	}
}
