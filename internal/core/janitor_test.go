package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/fault"
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
		Grace:        2 * time.Millisecond,
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
	if j := d.StartJanitor(JanitorConfig{Reaper: true, Watchdog: true}); j != nil {
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

// mockVictim is a handle whose lease is permanently stale and whose reap
// always confirms.
type mockVictim struct {
	log   *stageLog
	lease int64
}

func (v *mockVictim) Lease() int64        { v.log.add("lease"); return v.lease }
func (v *mockVictim) Exempt() bool        { return false }
func (v *mockVictim) TryQuarantine() bool { v.log.add("quarantine"); return true }
func (v *mockVictim) TryBeginReap() bool  { v.log.add("confirm"); return true }
func (v *mockVictim) Empty() bool         { return false }
func (v *mockVictim) CancelReap()         { v.log.add("cancel") }
func (v *mockVictim) Adopt() int          { v.log.add("adopt"); return 3 }
func (v *mockVictim) FinishReap()         { v.log.add("finish") }

type mockTarget struct {
	log     *stageLog
	victims []reap.Victim
}

func (t *mockTarget) PublishClock(now int64) { t.log.add("clock=%d", now) }
func (t *mockTarget) Victims() []reap.Victim { return t.victims }
func (t *mockTarget) Remove(vs []reap.Victim) {
	t.log.add("remove")
	t.victims = nil
}

// mockJanitor builds a tick-driven janitor over a scripted target: lease
// timeout 100 and grace 50 in the test's abstract nanosecond clock, a
// drain that only logs.
func mockJanitor(log *stageLog, tgt reap.Target, rec *stats.Reclamation) *Janitor {
	return &Janitor{
		rec:    rec,
		reaper: reap.New(tgt, reap.Config{LeaseTimeout: 100, Grace: 50, Rec: rec}),
		drain:  func() { log.add("drain") },
		epoch:  func() uint64 { return 7 },
	}
}

// TestJanitorStageOrder pins the order inside one tick: the clock is
// published before any lease is read, and a confirmed reap adopts, then
// leaves the registries, then publishes FinishReap (the PR-3 UAF
// ordering: a resurrecting owner re-registers only after FinishReap, so
// the removal can never strip a live registration) — and only then does
// the drain stage run.
func TestJanitorStageOrder(t *testing.T) {
	log := &stageLog{}
	rec := &stats.Reclamation{}
	tgt := &mockTarget{log: log, victims: []reap.Victim{&mockVictim{log: log, lease: 10}}}
	j := mockJanitor(log, tgt, rec)
	rec.Unreclaimed.Add(3) // what the adoption parks in the global paths

	j.tick(200) // lease age 190 > 100: quarantine
	want := []string{"clock=200", "lease", "quarantine"}
	if got := fmt.Sprint(log.events); got != fmt.Sprint(want) {
		t.Fatalf("quarantine tick ran %v, want %v", log.events, want)
	}
	if r := j.Report(); r.Ticks != 1 || r.Epoch != 7 || r.Unreclaimed != 3 {
		t.Fatalf("report after one tick = %+v, want Ticks=1 Epoch=7 Unreclaimed=3", r)
	}

	log.events = nil
	j.tick(300) // grace 100 > 50: confirm and reap
	want = []string{"clock=300", "lease", "confirm", "adopt", "remove", "finish", "drain"}
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

// reapOnce drives a mock janitor through one quarantine and one reap, so
// its drain stage is armed and has run its first round.
func reapOnce(t *testing.T, log *stageLog, rec *stats.Reclamation) *Janitor {
	t.Helper()
	tgt := &mockTarget{log: log, victims: []reap.Victim{&mockVictim{log: log, lease: 10}}}
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
	log := &stageLog{}
	rec := &stats.Reclamation{}
	rec.Unreclaimed.Add(5)
	j := reapOnce(t, log, rec) // round #1, in the reaping tick
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
}

// TestJanitorTicksUnderShardStall: Report.Ticks advances exactly once per
// un-stalled tick and not at all while SiteShardStall fires — a stalled
// tick publishes nothing, which is how the shard monitor sees a wedged
// janitor.
func TestJanitorTicksUnderShardStall(t *testing.T) {
	log := &stageLog{}
	j := mockJanitor(log, &mockTarget{log: log}, &stats.Reclamation{})
	for i := int64(1); i <= 5; i++ {
		j.tick(i)
		if got := j.Report().Ticks; got != i {
			t.Fatalf("Ticks = %d after %d ticks", got, i)
		}
	}

	inj := fault.New(fault.Config{Plans: [fault.NumSites]fault.Plan{
		fault.SiteShardStall: {Period: 1, Shard: 0},
	}})
	fault.Activate(inj)
	defer fault.Deactivate()
	log.events = nil
	for i := int64(6); i <= 10; i++ {
		j.tick(i)
	}
	if got := j.Report().Ticks; got != 5 {
		t.Fatalf("Ticks = %d while the stall fired, want 5 (frozen)", got)
	}
	if len(log.events) != 0 {
		t.Fatalf("a stalled tick still ran %v", log.events)
	}
	if got := inj.Fired(fault.SiteShardStall); got != 5 {
		t.Fatalf("SiteShardStall fired %d times for 5 ticks: one gate per tick, got %d", got, got)
	}

	// A janitor on another shard is not the plan's target.
	other := mockJanitor(log, &mockTarget{log: log}, &stats.Reclamation{})
	other.shardID = 1
	other.tick(1)
	if got := other.Report().Ticks; got != 1 {
		t.Fatalf("shard 1 janitor Ticks = %d under a shard-0 stall, want 1", got)
	}

	inj.SetSiteEnabled(fault.SiteShardStall, false)
	j.tick(11)
	if got := j.Report().Ticks; got != 6 {
		t.Fatalf("Ticks = %d after the stall lifted, want 6", got)
	}
}

// TestJanitorStartStop: the running goroutine ticks on its own, never
// touches a fresh-leased handle, and Stop releases the service handle.
func TestJanitorStartStop(t *testing.T) {
	d := NewDomain(BackendBRCU, Config{})
	j := d.StartJanitor(JanitorConfig{Reaper: true, Watchdog: true, LeaseTimeout: time.Hour, Interval: time.Millisecond})
	if j.Interval() != time.Millisecond {
		t.Fatalf("Interval() = %v, want the configured 1ms", j.Interval())
	}
	h := d.Register()
	waitFor(t, "the janitor to tick", func() bool { return j.Report().Ticks >= 3 })
	j.Stop()
	j.Stop() // idempotent
	ticks := j.Report().Ticks
	time.Sleep(5 * time.Millisecond)
	if got := j.Report().Ticks; got != ticks {
		t.Fatalf("janitor ticked after Stop: %d → %d", ticks, got)
	}
	if got := d.Stats().ReapedHandles.Load(); got != 0 {
		t.Fatalf("janitor reaped %d fresh-leased handles", got)
	}
	h.Unregister()
	if got := len(d.members.Snapshot()); got != 0 {
		t.Fatalf("domain has %d members after Stop and Unregister, want 0", got)
	}
	// A CloseDrain after Stop must not reuse the stopped janitor: it
	// drains through a handle of its own and publishes no further report.
	if left := d.CloseDrain(time.Now().Add(time.Second)); left != 0 {
		t.Fatalf("CloseDrain after Stop left %d unreclaimed", left)
	}
	if got := j.Report().Ticks; got != ticks {
		t.Fatalf("CloseDrain ticked the stopped janitor: %d → %d", ticks, got)
	}
	if got := len(d.members.Snapshot()); got != 0 {
		t.Fatalf("domain has %d members after CloseDrain, want 0", got)
	}
	if d.StartJanitor(JanitorConfig{}) != nil {
		t.Fatal("StartJanitor with no stage asked for must start nothing")
	}
}
