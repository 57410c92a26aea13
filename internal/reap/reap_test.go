package reap

import (
	"testing"

	"github.com/smrgo/hpbrcu/internal/stats"
)

// mockVictim scripts one handle through the reap protocol. Its word is an
// opaque number the script moves to play the owner; inCS makes it an
// unreapable one, like a live critical section or a mutation span.
type mockVictim struct {
	word   uint64
	exempt bool
	inCS   bool
	empty  bool // Empty reports nothing to adopt
	adoptN int
	// onClaim runs inside TryReap before the compare: the owner moving
	// between the scan's look and its CAS.
	onClaim func()

	tries     int // TryReap calls
	began     int // successful claims
	adopted   int
	finished  int
	cancelled int
}

func (v *mockVictim) Word() uint64 { return v.word }
func (v *mockVictim) Exempt() bool { return v.exempt }
func (v *mockVictim) TryReap(word uint64) bool {
	v.tries++
	if v.onClaim != nil {
		v.onClaim()
	}
	if v.inCS || word != v.word {
		return false
	}
	v.began++
	return true
}
func (v *mockVictim) Empty() bool { return v.empty }
func (v *mockVictim) CancelReap(word uint64) {
	v.cancelled++
	v.word = word
}
func (v *mockVictim) Adopt() int  { v.adopted++; return v.adoptN }
func (v *mockVictim) FinishReap() { v.finished++ }

// untouched reports whether the reaper never got past looking at v.
func (v *mockVictim) untouched() bool {
	return v.began == 0 && v.adopted == 0 && v.finished == 0 && v.cancelled == 0
}

// mockTarget is a scripted domain.
type mockTarget struct {
	victims []Victim
	removed []Victim
	// removeSawFinished records whether any victim had already published
	// FinishReap when Remove ran — the ordering the UAF fix forbids.
	removeSawFinished bool
}

func (t *mockTarget) Victims() []Victim { return t.victims }
func (t *mockTarget) Remove(vs []Victim) {
	for _, v := range vs {
		if v.(*mockVictim).finished > 0 {
			t.removeSawFinished = true
		}
	}
	t.removed = append(t.removed, vs...)
}

// testReaper builds a tick-driven reaper with lease timeout 100 in the
// test's abstract nanosecond clock.
func testReaper(tgt Target, rec *stats.Reclamation) *Reaper {
	return New(tgt, Config{LeaseTimeout: 100, Rec: rec})
}

func TestReapLifecycle(t *testing.T) {
	v := &mockVictim{word: 10, adoptN: 7}
	tgt := &mockTarget{victims: []Victim{v}}
	rec := &stats.Reclamation{}
	r := testReaper(tgt, rec)

	r.Tick(50) // first look: the word is dated from here, whatever its age
	if r.Watched() != 1 || v.tries != 0 {
		t.Fatal("a first look must record the word and claim nothing")
	}
	r.Tick(100) // stood 50 < 100: healthy
	r.Tick(149) // stood 99 < 100: healthy
	if v.tries != 0 {
		t.Fatal("claimed before the word stood for the lease timeout")
	}
	if n := r.Tick(150); n != 1 { // stood 100: claim and reap, in one tick
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
	if r.Watched() != 0 {
		t.Fatal("the reaped victim's look was kept")
	}
}

// TestLeaseMovementAbortsReap: movement is visible to the scan. A word
// that moved between two looks restarts the wait from the later look, so
// the victim is claimed only a full timeout after its last sign of life.
func TestLeaseMovementAbortsReap(t *testing.T) {
	v := &mockVictim{word: 10}
	tgt := &mockTarget{victims: []Victim{v}}
	r := testReaper(tgt, nil)

	r.Tick(0)
	v.word = 11 // the owner ran an operation (it was alive all along)
	r.Tick(200)
	if v.tries != 0 {
		t.Fatal("tried to claim a victim whose word moved since the last look")
	}
	r.Tick(299) // stood 99 since the look that saw the move
	if v.tries != 0 {
		t.Fatal("the wait was not restarted by the movement")
	}
	r.Tick(300)
	if v.adopted != 1 {
		t.Fatal("a word that stood a full timeout after its last move was not reaped")
	}
}

// TestActiveOwnerNeverClaimed: an owner that completes an operation
// between two looks is never claimed, however far apart the looks are.
// (That rests on the owner's side of the contract: no Out word recurs.
// The one word that can, RbReq(e) under back-to-back self-neutralization
// at a standing epoch, at worst costs a live owner one spurious
// reap-and-resurrect; see DESIGN.md §7.2.)
func TestActiveOwnerNeverClaimed(t *testing.T) {
	v := &mockVictim{word: 1}
	tgt := &mockTarget{victims: []Victim{v}}
	r := testReaper(tgt, nil)

	for now := int64(0); now < 50_000; now += 1000 { // every gap is 10 timeouts
		r.Tick(now)
		v.word++
	}
	if v.tries != 0 || !v.untouched() {
		t.Fatalf("an owner active between every two looks was touched (tries=%d)", v.tries)
	}
}

// TestJanitorStallAgesNobody: after a janitor stall longer than the lease
// timeout — no Tick calls, then one — an owner that kept working through
// the stall is not touched at all. (With leases dated by a clock the
// janitor publishes, the same script finds every stamp as old as the
// stall and quarantines the owner.) The idle handle next to it has
// genuinely stood still for the whole stall and is claimed.
func TestJanitorStallAgesNobody(t *testing.T) {
	busy, idle := &mockVictim{word: 1}, &mockVictim{word: 1}
	tgt := &mockTarget{victims: []Victim{busy, idle}}
	r := testReaper(tgt, nil)

	r.Tick(0)
	r.Tick(5)
	busy.word = 900 // ...the janitor stalls; the owner does not
	r.Tick(5000)
	if busy.tries != 0 || !busy.untouched() {
		t.Fatal("the first tick after a janitor stall touched an owner that worked through it")
	}
	if idle.adopted != 1 {
		t.Fatal("a handle idle through the whole stall was not reaped")
	}
}

// TestOwnerWinsQuarantineCAS (the name predates the one-word claim; read:
// the claim CAS): the claim is one CAS from the word the scan looked at. An
// owner entering between the look and the CAS wins it: it is left
// untouched, and the look restarts.
func TestOwnerWinsQuarantineCAS(t *testing.T) {
	v := &mockVictim{word: 10}
	v.onClaim = func() { v.word = 11 } // Enter, racing the claim
	tgt := &mockTarget{victims: []Victim{v}}
	rec := &stats.Reclamation{}
	r := testReaper(tgt, rec)

	r.Tick(0)
	r.Tick(100)
	if v.tries != 1 || !v.untouched() {
		t.Fatalf("tries=%d untouched=%v, want one lost claim and an untouched owner", v.tries, v.untouched())
	}
	if len(tgt.removed) != 0 || rec.ReapedHandles.Load() != 0 {
		t.Fatal("a lost claim was still recorded")
	}
	v.onClaim = nil
	r.Tick(150) // a fresh look at the new word...
	r.Tick(249)
	if v.tries != 1 {
		t.Fatal("the look was not restarted after the lost claim")
	}
	r.Tick(250) // ...which must stand a full timeout of its own
	if v.adopted != 1 {
		t.Fatal("the restarted look never matured")
	}
}

// TestExemptAndLiveVictimsSkipped: exempt handles are never looked at; a
// frozen section or mutation span (a word that stands, but not a reapable
// one) is refused on every attempt, and claimed only once neutralization
// has turned it into a word the reaper may take and that word has stood
// for the timeout in its turn.
func TestExemptAndLiveVictimsSkipped(t *testing.T) {
	exempt := &mockVictim{exempt: true}
	inCS := &mockVictim{word: 10, inCS: true}
	tgt := &mockTarget{victims: []Victim{exempt, inCS}}
	r := testReaper(tgt, nil)

	for now := int64(0); now <= 950; now += 50 {
		r.Tick(now)
	}
	if exempt.tries != 0 || r.Watched() != 1 {
		t.Fatal("an exempt victim was watched")
	}
	if inCS.tries == 0 || !inCS.untouched() {
		t.Fatalf("frozen section: tries=%d untouched=%v, want refused attempts and no claim", inCS.tries, inCS.untouched())
	}

	inCS.word, inCS.inCS = 11, false // InCs(e) → RbReq(e)
	tries := inCS.tries
	r.Tick(1050)
	r.Tick(1149)
	if inCS.tries != tries {
		t.Fatal("the neutralized word was claimed before it stood for the timeout")
	}
	r.Tick(1150)
	if inCS.adopted != 1 {
		t.Fatal("a neutralized section that stood for the timeout was not reaped")
	}
}

func TestDepartedVictimPurged(t *testing.T) {
	v := &mockVictim{word: 10}
	tgt := &mockTarget{victims: []Victim{v}}
	r := testReaper(tgt, nil)

	r.Tick(0)
	if r.Watched() != 1 {
		t.Fatal("victim not watched")
	}
	// The victim unregisters between ticks: its look must not linger.
	tgt.victims = nil
	r.Tick(300)
	if r.Watched() != 0 {
		t.Fatal("departed victim's look not purged")
	}
	if v.tries != 0 {
		t.Fatal("departed victim was claimed")
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
// nothing to adopt must not be churned through reap/resurrect cycles; its
// claim is handed back with the word unchanged, it is parked, and it is
// only re-examined when its word moves.
func TestEmptyVictimParkedNotReaped(t *testing.T) {
	v := &mockVictim{word: 10, empty: true, adoptN: 7}
	tgt := &mockTarget{victims: []Victim{v}}
	rec := &stats.Reclamation{}
	r := testReaper(tgt, rec)

	r.Tick(0)
	r.Tick(100) // claim → empty → hand back + park
	if v.began != 1 || v.cancelled != 1 || v.word != 10 {
		t.Fatalf("began=%d cancelled=%d word=%d, want 1/1 and the claimed word back", v.began, v.cancelled, v.word)
	}
	if v.adopted != 0 || v.finished != 0 || len(tgt.removed) != 0 {
		t.Fatal("an empty victim was reaped")
	}
	if rec.ReapedHandles.Load() != 0 {
		t.Fatal("a park was counted as a reap")
	}
	// Parked: further ticks must not touch the victim again.
	r.Tick(400)
	r.Tick(500)
	if v.tries != 1 {
		t.Fatalf("tries = %d, want 1 (parked victim re-claimed)", v.tries)
	}
	if r.Watched() != 1 || r.Parked() != 1 {
		t.Fatalf("watched=%d parked=%d, want 1/1", r.Watched(), r.Parked())
	}

	// The owner wakes and does real work: the word moves, the park ends,
	// and a later still period (now with state to adopt) reaps.
	v.word, v.empty = 11, false
	r.Tick(600)
	if r.Parked() != 0 {
		t.Fatal("the park survived a movement of the word")
	}
	r.Tick(700)
	if v.adopted != 1 || v.finished != 1 {
		t.Fatalf("adopted=%d finished=%d after the handle became non-empty, want 1/1", v.adopted, v.finished)
	}
}
