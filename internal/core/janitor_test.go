package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/reap"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// fastReaper starts a janitor whose lease scan has timings sized for a
// unit test rather than production (milliseconds, not hundreds of them).
func fastReaper(d *Domain) *Janitor {
	return d.StartJanitor(JanitorConfig{
		Reaper:       true,
		LeaseTimeout: 10 * time.Millisecond,
		Interval:     time.Millisecond,
	})
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReaperRecoversLeakedHandle is the end-to-end leak story: a worker
// retires nodes into its private batch and dies without Unregister; the
// reaper adopts the batch and the shield protections, and the books
// balance without any cooperation from the dead owner.
func TestReaperRecoversLeakedHandle(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(BackendBRCU, Config{MaxLocalTasks: 1024, ScanThreshold: 1024, ForceThreshold: 2})
	rp := fastReaper(d)
	defer rp.Stop()

	// The "leaked" goroutine's handle: a held shield and a batch of
	// deferred retires, then silence.
	leaked := d.Register()
	s := leaked.NewShield()
	for i := 0; i < 16; i++ {
		slot, _ := pool.Alloc(cache)
		if i == 0 {
			s.ProtectSlot(slot)
		}
		pool.Hdr(slot).Retire()
		leaked.Retire(slot, pool)
	}
	rec := d.Stats()
	if got := rec.Unreclaimed.Load(); got != 16 {
		t.Fatalf("unreclaimed = %d before the leak, want 16", got)
	}

	waitFor(t, "the leaked handle to be reaped", func() bool {
		return rec.ReapedHandles.Load() >= 1
	})
	waitFor(t, "the adopted garbage to drain", func() bool {
		return rec.Unreclaimed.Load() == 0
	})
	if got := rec.AdoptedNodes.Load(); got != 16 {
		t.Fatalf("adopted nodes = %d, want 16", got)
	}
	if s.Get() != 0 {
		t.Fatal("the dead handle's shield still protects")
	}
}

// TestReaperResurrection: the owner was slow, not dead. After the reap it
// wakes, resurrects transparently on its next Pin, and keeps working; the
// final books still balance.
func TestReaperResurrection(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(BackendBRCU, Config{MaxLocalTasks: 1024, ScanThreshold: 1024, ForceThreshold: 2})
	rp := fastReaper(d)
	defer rp.Stop()

	h := d.Register()
	slot, _ := pool.Alloc(cache)
	pool.Hdr(slot).Retire()
	h.Retire(slot, pool)

	rec := d.Stats()
	waitFor(t, "the idle handle to be reaped", func() bool {
		return rec.ReapedHandles.Load() >= 1
	})

	// The owner comes back: Pin resolves the Reaped phase by
	// re-registering both halves.
	h.Pin()
	h.Unpin()
	if got := len(d.members.Snapshot()); got != 2 { // the worker + the janitor's service handle
		t.Fatalf("domain has %d members after resurrection, want 2", got)
	}

	// And it keeps working: another retire, then a clean shutdown.
	slot2, _ := pool.Alloc(cache)
	pool.Hdr(slot2).Retire()
	h.Retire(slot2, pool)
	h.Barrier()
	h.Unregister()
	waitFor(t, "the books to balance after resurrection", func() bool {
		return rec.Unreclaimed.Load() == 0
	})
}

// TestJanitorSweepsWhatTheLastWorkerLeft: the drain stage forces rounds
// only on an adoption, and closes its gate when a round
// makes no progress — so nodes a live shield protected through the last
// reclaim pass anyone ran are parked, on the leaving worker's way out, in
// the HP orphans, where no forced round is owed for them and no surviving
// worker will ever look. The janitor's per-tick HP sweep must free them
// once the shield clears, instead of leaving them for Close. (Extracted
// from a chaos flake: leaked=2 reaped=2 unreclaimed=2 holding for 10s on
// everything+leak; the same sweep covers the nodes a forced round parks
// in the service handle's own retired list.)
func TestJanitorSweepsWhatTheLastWorkerLeft(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(BackendBRCU, Config{MaxLocalTasks: 1024, ScanThreshold: 1024, ForceThreshold: 2})
	j := d.StartJanitor(JanitorConfig{Reaper: true, LeaseTimeout: time.Hour, Interval: time.Millisecond})
	defer j.Stop()

	reader, writer := d.Register(), d.Register()
	slot, _ := pool.Alloc(cache)
	s := reader.NewShield()
	s.ProtectSlot(slot)
	pool.Hdr(slot).Retire()
	writer.Retire(slot, pool)
	writer.Barrier() // through the grace period, into the HP half: protected, so kept
	writer.Unregister()
	rec := d.Stats()
	if got := rec.Unreclaimed.Load(); got != 1 {
		t.Fatalf("unreclaimed = %d with the node under a live shield, want 1", got)
	}
	reader.Unregister() // clears the shield; the reader itself holds nothing

	waitFor(t, "the janitor to free the orphan", func() bool {
		return rec.Unreclaimed.Load() == 0
	})
	if got := rec.ReapedHandles.Load(); got != 0 {
		t.Fatalf("ReapedHandles = %d: the orphan was reached through a reap, not the sweep", got)
	}
}

// TestEmergencyDrainBoundsGarbage: with backpressure on, the retire path
// drains inline once unreclaimed garbage crosses the drain tier, so the
// peak stays at the ceiling even though the batch would hold far more.
func TestEmergencyDrainBoundsGarbage(t *testing.T) {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	d := NewDomain(BackendBRCU, Config{MaxLocalTasks: 1 << 20, ScanThreshold: 1 << 20, ForceThreshold: 2})
	bp := d.EnableBackpressure(reap.BackpressureConfig{Ceiling: 8})
	if bp == nil {
		t.Fatal("EnableBackpressure returned nil for a BRCU domain")
	}

	h := d.Register()
	defer h.Unregister()
	for i := 0; i < 200; i++ {
		slot, _ := pool.Alloc(cache)
		pool.Hdr(slot).Retire()
		h.Retire(slot, pool)
	}
	h.Barrier()

	rec := d.Stats()
	if peak := rec.Unreclaimed.Peak(); peak > 8 {
		t.Fatalf("peak unreclaimed = %d, exceeded the ceiling 8", peak)
	}
	if got := rec.Unreclaimed.Load(); got != 0 {
		t.Fatalf("unreclaimed = %d after barrier, want 0", got)
	}
}

func TestBackpressureNilForRCU(t *testing.T) {
	d := NewDomain(BackendRCU, Config{})
	if j := d.StartJanitor(JanitorConfig{Reaper: true}); j != nil {
		t.Fatal("StartJanitor must be a no-op on an RCU-backed domain")
	}
	if d.EnableBackpressure(reap.BackpressureConfig{}) != nil {
		t.Fatal("EnableBackpressure must be a no-op on an RCU-backed domain")
	}
}

// --- tick-driven stage tests over a scripted target --------------------

// stageLog records the order in which the janitor's stages touch the
// scripted domain.
type stageLog struct{ events []string }

func (l *stageLog) add(format string, args ...any) {
	l.events = append(l.events, fmt.Sprintf(format, args...))
}

// mockVictim is a handle whose word never moves and whose claim always
// succeeds; empty makes it hold nothing to adopt.
type mockVictim struct {
	log   *stageLog
	empty bool
}

func (v *mockVictim) Word() uint64             { v.log.add("look"); return 10 }
func (v *mockVictim) Exempt() bool             { return false }
func (v *mockVictim) TryReap(word uint64) bool { v.log.add("claim"); return true }
func (v *mockVictim) Empty() bool              { return v.empty }
func (v *mockVictim) CancelReap(word uint64)   { v.log.add("cancel") }
func (v *mockVictim) Adopt() int               { v.log.add("adopt"); return 3 }
func (v *mockVictim) FinishReap()              { v.log.add("finish") }

type mockTarget struct {
	log     *stageLog
	victims []reap.Victim
}

func (t *mockTarget) Victims() []reap.Victim { return t.victims }
func (t *mockTarget) Remove(vs []reap.Victim) {
	t.log.add("remove")
	t.victims = nil
}

// mockJanitor builds a tick-driven janitor over a scripted target: lease
// timeout 100 in the test's abstract nanosecond clock, a drain that only
// logs.
func mockJanitor(log *stageLog, tgt reap.Target, rec *stats.Reclamation) *Janitor {
	return &Janitor{
		rec:    rec,
		reaper: reap.New(tgt, reap.Config{LeaseTimeout: 100, Rec: rec}),
		drain:  func() { log.add("drain") },
	}
}

// TestJanitorStageOrder pins the order inside one tick: look → claim →
// adopt → remove → finish → drain. A claimed victim is adopted, then
// leaves the registries, then has FinishReap published (the PR-3 UAF
// ordering: a resurrecting owner re-registers only after FinishReap, so
// the removal can never strip a live registration) — and only then does
// the drain stage run.
func TestJanitorStageOrder(t *testing.T) {
	log := &stageLog{}
	rec := &stats.Reclamation{}
	tgt := &mockTarget{log: log, victims: []reap.Victim{&mockVictim{log: log}}}
	j := mockJanitor(log, tgt, rec)
	rec.Unreclaimed.Add(3) // what the adoption parks in the global paths

	j.tick(200) // first look: nothing else
	want := []string{"look"}
	if got := fmt.Sprint(log.events); got != fmt.Sprint(want) {
		t.Fatalf("first tick ran %v, want %v", log.events, want)
	}

	log.events = nil
	j.tick(300) // the word stood for 100: claim and reap
	want = []string{"look", "claim", "adopt", "remove", "finish", "drain"}
	if got := fmt.Sprint(log.events); got != fmt.Sprint(want) {
		t.Fatalf("reap tick ran %v, want %v", log.events, want)
	}
	if got := rec.ReapedHandles.Load(); got != 1 {
		t.Fatalf("ReapedHandles = %d, want 1", got)
	}
	if got := rec.AdoptedNodes.Load(); got != 3 {
		t.Fatalf("AdoptedNodes = %d, want 3", got)
	}
}

// TestJanitorReportsParked: a claimed victim with nothing to adopt is
// handed back and parked, not reaped — no ReapedHandles count, no drain —
// and the ParkedHandles gauge says so, which is how a convergence check
// tells "every dead handle is reaped or holds nothing" from "the reaper
// missed one".
func TestJanitorReportsParked(t *testing.T) {
	log := &stageLog{}
	rec := &stats.Reclamation{}
	tgt := &mockTarget{log: log, victims: []reap.Victim{&mockVictim{log: log, empty: true}}}
	j := mockJanitor(log, tgt, rec)

	j.tick(200)
	if got := rec.ParkedHandles.Load(); got != 0 {
		t.Fatalf("Parked = %d after the first look, want 0", got)
	}
	j.tick(300)
	j.tick(400)
	want := []string{"look", "look", "claim", "cancel", "look"}
	if got := fmt.Sprint(log.events); got != fmt.Sprint(want) {
		t.Fatalf("ticks ran %v, want %v", log.events, want)
	}
	if p := rec.ParkedHandles.Load(); p != 1 || rec.ReapedHandles.Load() != 0 {
		t.Fatalf("Parked=%d ReapedHandles=%d, want 1 and 0", p, rec.ReapedHandles.Load())
	}
}

// reapOnce drives a mock janitor through one look and one reap, so its
// drain stage is armed and has run its first round.
func reapOnce(t *testing.T, log *stageLog, rec *stats.Reclamation) *Janitor {
	t.Helper()
	tgt := &mockTarget{log: log, victims: []reap.Victim{&mockVictim{log: log}}}
	j := mockJanitor(log, tgt, rec)
	j.tick(200)
	j.tick(300)
	return j
}

func countDrains(log *stageLog) int {
	n := 0
	for _, e := range log.events {
		if e == "drain" {
			n++
		}
	}
	return n
}

// TestJanitorDrainStopsWithoutProgress is the drain stage's wiring
// (reap.DrainGate holds the policy): an adoption arms it, it forces one
// round per tick while each round lowered the unreclaimed gauge, and a
// round that failed to — live workers keep retiring — ends it instead of
// forcing flush-and-advance (and neutralization) storms forever.
func TestJanitorDrainStopsWithoutProgress(t *testing.T) {
	t.Run("adopted", func(t *testing.T) {
		log := &stageLog{}
		rec := &stats.Reclamation{}
		rec.Unreclaimed.Add(5)
		j := reapOnce(t, log, rec) // round #1, in the arming tick
		rec.Unreclaimed.Add(-1)
		j.tick(400) // progress (5→4): round #2
		if n := countDrains(log); n != 2 {
			t.Fatalf("drain rounds = %d while the rounds make progress, want 2", n)
		}
		for now := int64(500); now <= 1000; now += 100 {
			j.tick(now) // the gauge stays at 4: no progress since
		}
		if n := countDrains(log); n != 2 {
			t.Fatalf("drain rounds = %d, want 2 once a round made no progress", n)
		}
	})
}

// TestJanitorStartStop: the running goroutine ticks on its own — its lease
// scan parks an idle handle that holds nothing, and reaps nothing — and
// Stop ends the goroutine and releases the service handle.
func TestJanitorStartStop(t *testing.T) {
	d := NewDomain(BackendBRCU, Config{})
	j := d.StartJanitor(JanitorConfig{Reaper: true, LeaseTimeout: 5 * time.Millisecond, Interval: time.Millisecond})
	if j.interval != time.Millisecond {
		t.Fatalf("interval = %v, want the configured 1ms", j.interval)
	}
	h := d.Register()
	waitFor(t, "the lease scan to park the idle handle", func() bool { return d.Stats().ParkedHandles.Load() == 1 })
	j.Stop()
	j.Stop() // idempotent
	select {
	case <-j.done:
	default:
		t.Fatal("the janitor goroutine is still running after Stop")
	}
	if got := d.Stats().ReapedHandles.Load(); got != 0 {
		t.Fatalf("janitor reaped %d handles that held nothing", got)
	}
	h.Unregister()
	if got := len(d.members.Snapshot()); got != 0 {
		t.Fatalf("domain has %d members after Stop and Unregister, want 0", got)
	}
	// A CloseDrain after Stop must not reuse the stopped janitor: it
	// drains through a handle of its own.
	if left := d.CloseDrain(time.Now().Add(time.Second)); left != 0 {
		t.Fatalf("CloseDrain after Stop left %d unreclaimed", left)
	}
	if got := len(d.members.Snapshot()); got != 0 {
		t.Fatalf("domain has %d members after CloseDrain, want 0", got)
	}
	if d.StartJanitor(JanitorConfig{}) != nil {
		t.Fatal("StartJanitor with the reaper off must start nothing")
	}
}
