package shard

import (
	"testing"
	"time"

	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// fakeShard is a deterministic probe target the tests drive by hand: the
// report its janitor last published, and a count of recovery rounds.
type fakeShard struct {
	core.Report
	recovers int
}

func (f *fakeShard) probe() Probe {
	return Probe{
		Report:  func() core.Report { return f.Report },
		Recover: func() { f.recovers++ },
	}
}

// healthyStep advances every liveness signal, as a working shard would
// between probes.
func (f *fakeShard) healthyStep() {
	f.Epoch++
	f.Advances++
	f.Ticks++
}

func newTestMonitor(t *testing.T, shards []*fakeShard) (*Monitor, *stats.Reclamation) {
	t.Helper()
	probes := make([]Probe, len(shards))
	for i, f := range shards {
		probes[i] = f.probe()
	}
	rec := &stats.Reclamation{}
	return NewMonitor(probes, Config{
		StallThreshold:   3,
		RecoverThreshold: 2,
		Rec:              rec,
	}), rec
}

func TestMonitorHealthyShardsStayIn(t *testing.T) {
	shards := []*fakeShard{{}, {}}
	m, rec := newTestMonitor(t, shards)
	for i := 0; i < 20; i++ {
		for _, f := range shards {
			f.healthyStep()
		}
		m.Tick()
	}
	for i := range shards {
		if m.Quarantined(i) {
			t.Errorf("healthy shard %d quarantined", i)
		}
	}
	if got := rec.ShardQuarantines.Load(); got != 0 {
		t.Errorf("ShardQuarantines = %d, want 0", got)
	}
}

// An idle shard — no traffic, epoch parked, zero garbage — must stay
// healthy as long as its janitors keep ticking.
func TestMonitorIdleShardNotQuarantined(t *testing.T) {
	f := &fakeShard{}
	m, _ := newTestMonitor(t, []*fakeShard{f})
	for i := 0; i < 20; i++ {
		f.Ticks++ // janitor alive, everything else frozen
		m.Tick()
	}
	if m.Quarantined(0) {
		t.Error("idle shard with live janitors was quarantined")
	}
}

// A plateaued shard — steady unreclaimed level, epoch parked — is also
// healthy: only *growth* without advance is a wedge.
func TestMonitorPlateauNotQuarantined(t *testing.T) {
	f := &fakeShard{Report: core.Report{Unreclaimed: 500}}
	m, _ := newTestMonitor(t, []*fakeShard{f})
	for i := 0; i < 20; i++ {
		f.Ticks++
		m.Tick()
	}
	if m.Quarantined(0) {
		t.Error("plateaued shard was quarantined")
	}
}

func TestMonitorDeadReaperQuarantinesAfterThreshold(t *testing.T) {
	f := &fakeShard{}
	m, rec := newTestMonitor(t, []*fakeShard{f})
	// The janitor's tick counter stands still: its report is frozen with
	// it, and that alone is the verdict.
	step := func() { m.Tick() }
	step()
	step()
	if m.Quarantined(0) {
		t.Fatal("quarantined before StallThreshold strikes")
	}
	step() // third strike
	if !m.Quarantined(0) {
		t.Fatal("dead janitor not quarantined after StallThreshold strikes")
	}
	if got := rec.ShardQuarantines.Load(); got != 1 {
		t.Errorf("ShardQuarantines = %d, want 1", got)
	}
}

func TestMonitorEpochWedgeQuarantines(t *testing.T) {
	f := &fakeShard{}
	m, _ := newTestMonitor(t, []*fakeShard{f})
	// The janitor ticks but the epoch is frozen while garbage grows.
	for i := 0; i < 3; i++ {
		f.Ticks++
		f.Unreclaimed += 100
		m.Tick()
	}
	if !m.Quarantined(0) {
		t.Fatal("epoch wedge with growing garbage not quarantined")
	}
}

// TestMonitorWedgeFloorAndSeparateStreaks: growth below the wedge floor
// is normal batch accumulation, and a frozen-janitor strike followed by
// an epoch-wedge strike are two streaks of one, not one streak of two —
// unrelated jitter on different signals never chains into a verdict.
func TestMonitorWedgeFloorAndSeparateStreaks(t *testing.T) {
	f := &fakeShard{}
	p := f.probe()
	p.WedgeFloor = func() int64 { return 1000 }
	m := NewMonitor([]Probe{p}, Config{StallThreshold: 2})
	for i := 0; i < 5; i++ {
		f.Ticks++
		f.Unreclaimed += 100 // 100..500: below the floor
		m.Tick()
	}
	if m.Quarantined(0) {
		t.Fatal("growth below the wedge floor was quarantined")
	}
	f.healthyStep()
	f.Unreclaimed = 2000 // above the floor from here on
	m.Tick()
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			// Frozen janitor for one window (nothing published).
		} else {
			f.Ticks++
			f.Unreclaimed += 100 // wedge strike for one window
		}
		m.Tick()
		if m.Quarantined(0) {
			t.Fatalf("alternating single strikes chained into a verdict at probe %d", i)
		}
	}
}

// TestIntervalFor pins the probe window derived from the janitor tick:
// ten ticks, floored at 20ms.
func TestIntervalFor(t *testing.T) {
	for tick, want := range map[time.Duration]time.Duration{
		time.Millisecond:      20 * time.Millisecond,
		5 * time.Millisecond:  50 * time.Millisecond,
		20 * time.Millisecond: 200 * time.Millisecond,
	} {
		if got := IntervalFor(tick); got != want {
			t.Errorf("IntervalFor(%v) = %v, want %v", tick, got, want)
		}
	}
}

func TestMonitorRecoveryRejoinsAndCountsRecovers(t *testing.T) {
	f := &fakeShard{}
	m, rec := newTestMonitor(t, []*fakeShard{f})
	for i := 0; i < 3; i++ {
		m.Tick() // janitor dead: nothing published
	}
	if !m.Quarantined(0) {
		t.Fatal("setup: shard not quarantined")
	}

	// While quarantined and still wedged, the recovery loop must run each
	// probe and the shard must stay out.
	m.Tick()
	if f.recovers == 0 {
		t.Fatal("recovery hook not invoked while quarantined")
	}
	if !m.Quarantined(0) {
		t.Fatal("rejoined while the janitor was still dead")
	}

	// The janitor comes back: after RecoverThreshold healthy probes the
	// shard rejoins.
	for i := 0; i < 2; i++ {
		f.healthyStep()
		m.Tick()
	}
	if m.Quarantined(0) {
		t.Fatal("shard did not rejoin after healthy streak")
	}
	if got := rec.ShardRecoveries.Load(); got != 1 {
		t.Errorf("ShardRecoveries = %d, want 1", got)
	}
}

// The isolation property at the monitor level: one wedged shard's verdict
// never touches its peers' state.
func TestMonitorIsolation(t *testing.T) {
	shards := []*fakeShard{{}, {}, {}, {}}
	m, _ := newTestMonitor(t, shards)
	for i := 0; i < 10; i++ {
		for j, f := range shards {
			if j == 2 {
				continue // shard 2 fully wedged: nothing moves
			}
			f.healthyStep()
		}
		m.Tick()
	}
	for j := range shards {
		want := j == 2
		if got := m.Quarantined(j); got != want {
			t.Errorf("shard %d quarantined = %v, want %v", j, got, want)
		}
	}
}
