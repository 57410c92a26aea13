// The BRCU watchdog check: detection of the two pathological states the
// paper's robustness argument rules out but a production deployment must
// still survive when misconfigured — a stalled global epoch (laggards
// that the configured ForceThreshold is too patient to neutralize) and
// retired-but-unreclaimed growth approaching the §5 bound.
//
// The check only detects, and has no goroutine of its own: the domain's
// janitor (internal/core) calls Check once per tick and answers a stall as
// it answers an adoption, by arming its drain stage — a Barrier round,
// i.e. Algorithm 5's advance at an exhausted budget, which signals exactly
// the sections that lag. Detections are counted in StallDrains; what the
// round signals, in Signals.
package brcu

import "github.com/smrgo/hpbrcu/internal/obs"

// Watchdog budgets, counted in janitor ticks (5 ms with the reaper on,
// 1 ms for a watchdog-only domain). A healthy domain advances many times
// per tick, so a few ticks without progress while batches are queued is
// already suspicious.
const (
	// WatchdogFraction is the fraction of the §5 bound beyond which
	// unreclaimed growth counts as a stall.
	WatchdogFraction = 0.75
	// watchdogStallTicks is how many consecutive no-advance ticks (with
	// batches queued) count as a stalled epoch.
	watchdogStallTicks = 3
)

// Watchdog is the state one domain's health check carries from tick to
// tick; see NewWatchdog. Owned by the goroutine that calls Check.
type Watchdog struct {
	d *Domain
	// shields supplies H for the bound — the number of registered hazard
	// shields (nil means 0).
	shields func() int64

	lastEpoch uint64
	stalled   int
	trace     *obs.Trace
}

// NewWatchdog builds the domain's health check. shields supplies the H
// term of the §5 bound (HP-BRCU passes the HP shield gauge; nil means 0).
func (d *Domain) NewWatchdog(shields func() int64) *Watchdog {
	w := &Watchdog{d: d, shields: shields, lastEpoch: d.epoch.Load()}
	if obs.On {
		w.trace = obs.NewTrace("watchdog")
	}
	return w
}

// StallStreak returns how many consecutive checks saw flushed batches
// queued behind an epoch that did not move (0 on a healthy domain).
func (w *Watchdog) StallStreak() int { return w.stalled }

// bound is the §5 bound with the observed peak N and the caller-supplied H.
func (w *Watchdog) bound() int64 {
	b := w.d.GarbageBoundObserved()
	if w.shields != nil {
		b += w.shields()
	}
	return b
}

// Check runs one health check and reports whether the domain is stalled:
// watchdogStallTicks checks in a row saw flushed batches queued behind an
// epoch that did not move, or unreclaimed nodes stand above
// WatchdogFraction of the bound. The caller answers true with a forced
// drain round (the janitor's drain stage; tests call Handle.Barrier).
func (w *Watchdog) Check() (stalled bool) {
	d := w.d
	e := d.epoch.Load()
	queued := d.pendingBatches()
	over := float64(d.rec.Unreclaimed.Load()) > WatchdogFraction*float64(w.bound())

	if e != w.lastEpoch {
		w.lastEpoch = e
		w.stalled = 0
	} else if queued > 0 {
		// No advance this tick while flushed batches wait: the epoch is
		// lagging behind the garbage.
		w.stalled++
	} else {
		w.stalled = 0
	}

	if !over && w.stalled < watchdogStallTicks {
		return false
	}
	w.stalled = 0
	d.rec.StallDrains.Inc()
	if obs.On {
		w.trace.Rec(obs.EvStallDrain, int64(e))
	}
	return true
}
