// The BRCU watchdog check: detection of the two pathological states the
// paper's robustness argument rules out but a production deployment must
// still survive when misconfigured — a stalled global epoch (laggards
// that the configured ForceThreshold is too patient to neutralize) and
// retired-but-unreclaimed growth approaching the §5 bound — and the
// self-healing ladder that answers them: escalate the *effective*
// ForceThreshold toward 1 (more aggressive targeted signalling) and, as a
// last resort, broadcast neutralization to every live critical section.
//
// The check has no goroutine of its own: the domain's janitor
// (internal/core) calls Check once per tick as its epoch-health stage,
// and answers a broadcast with its shared drain stage — the forced
// advances that push the epoch past the victims it just neutralized.
//
// Escalations only ever lower the effective threshold below its configured
// value, so the bound 2GN+GN²+H computed from the configuration remains a
// valid upper bound; interventions make reclamation strictly more eager.
// All interventions are counted in stats.Reclamation (WatchdogEscalations,
// Broadcasts) separately from ordinary Signals.
package brcu

import "github.com/smrgo/hpbrcu/internal/obs"

// Watchdog budgets, counted in janitor ticks (5 ms with the reaper on,
// 1 ms for a watchdog-only domain). A healthy domain advances many times
// per tick, so a few ticks without progress while batches are queued is
// already suspicious.
const (
	// WatchdogFraction is the fraction of the §5 bound beyond which
	// unreclaimed growth triggers an escalation.
	WatchdogFraction = 0.75
	// watchdogStallTicks is how many consecutive no-advance ticks (with
	// batches queued) count as a stalled epoch.
	watchdogStallTicks = 3
	// watchdogCalmTicks is how many consecutive healthy ticks de-escalate
	// one step back toward the configured threshold.
	watchdogCalmTicks = 8
)

// Watchdog is the state one domain's health check carries from tick to
// tick; see NewWatchdog. Owned by the goroutine that calls Check.
type Watchdog struct {
	d *Domain
	// shields supplies H for the bound — the number of registered hazard
	// shields (nil means 0).
	shields func() int64

	lastEpoch     uint64
	stalled, calm int
	trace         *obs.Trace
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

// Check runs one health check: stall and over-bound detection, one rung
// of escalation when either fires, one step of de-escalation after a calm
// streak. It reports whether it broadcast — every live critical section
// was just neutralized, so the caller should force the epoch forward and
// drain (the janitor's drain stage; tests call Handle.Barrier).
func (w *Watchdog) Check() (broadcast bool) {
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

	if over || w.stalled >= watchdogStallTicks {
		w.calm = 0
		w.stalled = 0
		return w.escalate()
	}

	// Healthy tick: walk the effective threshold back up toward the
	// configured value, one doubling per calm streak.
	if eff := d.effForce.Load(); eff < int32(d.forceThreshold) {
		w.calm++
		if w.calm >= watchdogCalmTicks {
			w.calm = 0
			next := eff * 2
			if next > int32(d.forceThreshold) || next < eff {
				next = int32(d.forceThreshold)
			}
			d.effForce.Store(next)
		}
	} else {
		w.calm = 0
	}
	return false
}

// escalate takes the next rung of the ladder: halve the effective
// ForceThreshold while it is above 1, then broadcast.
func (w *Watchdog) escalate() (broadcast bool) {
	d := w.d
	d.rec.WatchdogEscalations.Inc()
	if eff := d.effForce.Load(); eff > 1 {
		d.effForce.Store(eff / 2)
		if obs.On {
			w.trace.Rec(obs.EvWatchdogEscalate, int64(eff/2))
		}
		return false
	}
	if obs.On {
		w.trace.Rec(obs.EvWatchdogEscalate, 1)
	}
	w.broadcast()
	return true
}

// broadcast is the last resort: neutralize every live critical section
// (InCs and InRm alike — masked regions defer the request to their exit,
// per Algorithm 6). The caller then forces the epoch forward; two
// advances expire everything that was queued before the broadcast.
func (w *Watchdog) broadcast() {
	d := w.d
	victims := int64(0)
	for _, other := range d.handles.Snapshot() {
		for {
			st := other.status.Load()
			ph, e := unpack(st)
			if ph == phaseOut || ph >= phaseRbReq {
				// Out (the caller's own service handle included), already
				// neutralized, in a mutation span, or owned by the lease
				// reaper — no live section to broadcast to.
				break
			}
			if other.status.CompareAndSwap(st, pack(phaseRbReq, e)) {
				d.rec.Broadcasts.Inc()
				victims++
				break
			}
		}
	}
	if obs.On {
		w.trace.Rec(obs.EvBroadcast, victims)
	}
}
