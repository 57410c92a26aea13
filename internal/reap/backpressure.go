// Package reap holds the tiered memory backpressure ladder (DESIGN.md §9),
// keyed to the §5 garbage bound: as the retired-but-unreclaimed count
// climbs toward a ceiling, allocation first triggers inline emergency
// drains (internal/core's retire path), then throttles with a bounded
// backoff, and finally fails fast with ErrMemoryPressure instead of letting
// the application dig an unbounded memory hole. The tiers are advisory
// until a caller routes its allocations through Admit (hpbrcu.TryInsert
// does); plain inserts keep the paper's semantics.
package reap

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/stats"
)

// ErrMemoryPressure is returned (never panicked) when unreclaimed garbage
// has reached the reject tier of the backpressure ladder.
var ErrMemoryPressure = errors.New("hpbrcu: memory pressure: unreclaimed garbage at the configured ceiling")

// Level is one rung of the backpressure ladder.
type Level int

const (
	// LevelOK: unreclaimed garbage is comfortably below the ceiling.
	LevelOK Level = iota
	// LevelDrain: the retire path should run an inline emergency drain.
	LevelDrain
	// LevelThrottle: admissions back off before proceeding.
	LevelThrottle
	// LevelReject: admissions fail fast with ErrMemoryPressure.
	LevelReject
)

// String returns the level's name.
func (l Level) String() string {
	switch l {
	case LevelOK:
		return "ok"
	case LevelDrain:
		return "drain"
	case LevelThrottle:
		return "throttle"
	case LevelReject:
		return "reject"
	}
	return "level?"
}

// The throttle and reject rungs, as fractions of the base ceiling.
const (
	throttleFraction = 0.75 // admissions back off
	rejectFraction   = 0.9  // admissions fail fast with ErrMemoryPressure
)

// BackpressureConfig configures NewBackpressure. The rungs are fractions
// of the base ceiling: Ceiling when set, else the domain's observed §5
// bound, which grows with the observed thread and shield counts; the
// domain calls Refresh whenever either grows.
type BackpressureConfig struct {
	// DrainFraction of the base triggers inline emergency drains
	// (default 0.5).
	DrainFraction float64
	// Ceiling, when positive, replaces the §5 bound as the base — an
	// absolute unreclaimed-node budget.
	Ceiling int64
}

// unlimited is the threshold stored when the base is not yet meaningful
// (no thread has registered, so the observed bound is zero).
const unlimited = int64(1) << 62

// Backpressure evaluates the ladder. Level, ShouldDrain and Admit are
// hot-path-safe: they compare the unreclaimed gauge against cached atomic
// thresholds and write nothing shared. Refresh recomputes the thresholds.
type Backpressure struct {
	cfg         BackpressureConfig
	unreclaimed func() int64
	bound       func() int64
	rec         *stats.Reclamation

	// mu serializes Refresh, so that of two racing refreshes the one that
	// stores last also read the base last: the peaks it reads only grow.
	mu         sync.Mutex
	drainAt    atomic.Int64
	throttleAt atomic.Int64
	rejectAt   atomic.Int64
}

// NewBackpressure builds the evaluator. unreclaimed reads the live gauge;
// bound supplies the §5 base when no absolute Ceiling is configured; rec
// receives the throttle/reject counters (nil allocates a private one).
func NewBackpressure(cfg BackpressureConfig, unreclaimed, bound func() int64, rec *stats.Reclamation) *Backpressure {
	if cfg.DrainFraction <= 0 {
		cfg.DrainFraction = 0.5
	}
	if rec == nil {
		rec = &stats.Reclamation{}
	}
	bp := &Backpressure{cfg: cfg, unreclaimed: unreclaimed, bound: bound, rec: rec}
	bp.Refresh()
	return bp
}

func threshold(base int64, frac float64) int64 {
	t := int64(frac * float64(base))
	if t < 1 {
		t = 1
	}
	return t
}

// Refresh recomputes the cached thresholds from the current base. The base
// moves only when the domain's peak handle or shield count grows, and the
// domain calls Refresh exactly there (internal/core).
func (bp *Backpressure) Refresh() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	base := bp.cfg.Ceiling
	if base <= 0 && bp.bound != nil {
		base = bp.bound()
	}
	if base <= 0 {
		bp.drainAt.Store(unlimited)
		bp.throttleAt.Store(unlimited)
		bp.rejectAt.Store(unlimited)
		return
	}
	bp.drainAt.Store(threshold(base, bp.cfg.DrainFraction))
	bp.throttleAt.Store(threshold(base, throttleFraction))
	bp.rejectAt.Store(threshold(base, rejectFraction))
}

// Level returns the current rung.
func (bp *Backpressure) Level() Level {
	u := bp.unreclaimed()
	switch {
	case u >= bp.rejectAt.Load():
		return LevelReject
	case u >= bp.throttleAt.Load():
		return LevelThrottle
	case u >= bp.drainAt.Load():
		return LevelDrain
	}
	return LevelOK
}

// ShouldDrain reports whether the retire path should run an inline
// emergency drain. It compares against the drain threshold alone — not
// Level, whose tiers collapse into each other — so DrainFraction is an
// independent knob: setting it above 1 disables inline drains without
// touching throttling or rejection (useful for tests that pin the reject
// tier with stuck garbage).
//
// ShouldDrain is two atomic loads and nothing else: it runs once per
// retire on every thread.
func (bp *Backpressure) ShouldDrain() bool {
	return bp.unreclaimed() >= bp.drainAt.Load()
}

// Admit gates one allocation. Below the throttle tier it is two loads and
// returns nil. At the throttle tier it backs off with bounded exponential
// yielding (1+2+…+64 scheduler yields, ~7 rounds) to let reclamation
// catch up; if the pressure clears mid-backoff the admission proceeds. If
// after the backoff the reject tier (or still the throttle budget's end
// with reject reached) holds, it returns ErrMemoryPressure — callers map
// it to their API surface, they never panic.
func (bp *Backpressure) Admit() error {
	if bp.Level() < LevelThrottle {
		return nil
	}
	throttled := false
	for spin := 1; spin <= 64; spin *= 2 {
		throttled = true
		for i := 0; i < spin; i++ {
			runtime.Gosched()
		}
		if bp.Level() < LevelThrottle {
			break
		}
	}
	if throttled {
		bp.rec.BackpressureThrottles.Inc()
	}
	if bp.Level() >= LevelReject {
		bp.rec.BackpressureRejects.Inc()
		return ErrMemoryPressure
	}
	return nil
}

// DrainAt exposes the cached drain threshold (diagnostics and tests).
func (bp *Backpressure) DrainAt() int64 { return bp.drainAt.Load() }
