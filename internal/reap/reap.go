// Package reap implements the lease-based orphan-reaping protocol and the
// tiered memory-backpressure ladder (DESIGN.md §7.2, §9). The protocol has
// no goroutine of its own: the domain's janitor (internal/core) calls
// Reaper.Tick once per tick as its lease-scan stage.
//
// The reclamation schemes in this repository are robust against *stalled*
// threads — a preempted reader cannot block reclamation — but a thread
// that dies (its goroutine leaks or panics past its defers) abandons a
// registered handle: its deferred batch never flushes, its shields never
// clear, and the garbage they pin accumulates forever. The reaper closes
// that hole with a lease protocol:
//
//   - each tick publishes a coarse activity clock into the domain
//     (Target.PublishClock); handle owners copy it into their lease word
//     whenever they leave the reapable Out state (Enter, BeginMut);
//   - a handle whose lease has not moved for LeaseTimeout while it holds
//     no live critical section is *quarantined* (phase one: a CAS on the
//     handle's status word that a live owner detects and cancels at its
//     next entry point);
//   - a quarantine that survives the Grace period is *confirmed* (phase
//     two: CAS Quarantined→Reaping), the handle's deferred batch and
//     retired list are adopted into the domain-global reclamation paths,
//     its shields are cleared, and it is removed from the registry —
//     strictly in that order, with FinishReap published only after the
//     registry removal (see below);
//   - a confirmed victim with nothing to adopt (empty batch and retired
//     list, no set shield) is not reaped at all: the reap is cancelled
//     (Reaping→Out) and the victim parked until its lease moves, so a
//     registered-but-idle handle is never churned through reap/resurrect
//     cycles (its only cost, if truly dead, is a registry slot).
//
// Safety: the owner's transitions out of a reapable state are CASes on
// the status word (enter a critical section, claim the mutating InMut
// phase around batch mutation, cancel a quarantine), so the reaper and
// the owner serialize through that one word — a reap can never overlap
// an owner-side mutation of the adopted state, and the Reaping phase
// excludes a waking owner for the reap's whole span. The lease is purely
// the liveness heuristic that decides when to try.
//
// A slow-but-alive owner that wakes after the full reap finds its handle
// in the Reaped phase and resurrects: it re-registers and continues, its
// old garbage already safely adopted. The reaper publishes Reaped only
// after the victim has left every registry, so a resurrection — which
// re-registers — can never be undone by the reap's own removal.
package reap

import (
	"time"

	"github.com/smrgo/hpbrcu/internal/obs"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Defaults. The lease timeout is deliberately long relative to the
// janitor tick: a lease is considered stale only after many missed
// publications, so a briefly descheduled owner is never quarantined in
// the first place.
const (
	DefaultLeaseTimeout = 250 * time.Millisecond
	DefaultInterval     = 5 * time.Millisecond
)

// Victim is one reapable handle, as seen by the reaper. internal/core's
// composed Handle implements it; the indirection keeps this package free
// of scheme imports (and mockable in tests).
type Victim interface {
	// Lease returns the victim's last activity stamp (UnixNano).
	Lease() int64
	// Exempt reports whether the handle must never be reaped (the
	// janitor's and the shard monitor's service handles).
	Exempt() bool
	// TryQuarantine begins phase one; false means the victim is inside a
	// live critical section, mid-mutation, or already mid-reap.
	TryQuarantine() bool
	// TryBeginReap confirms phase two; false means the owner woke up and
	// cancelled the quarantine.
	TryBeginReap() bool
	// Empty reports whether a reap would adopt nothing (empty batch and
	// retired list, no set shield). Called only between TryBeginReap and
	// FinishReap/CancelReap, where the owner is excluded.
	Empty() bool
	// CancelReap aborts a confirmed reap without adopting: the victim
	// stays registered and its owner, if alive, continues untouched.
	CancelReap()
	// Adopt moves the victim's deferred batch and retired list into the
	// domain-global paths and clears its protections, returning the
	// number of adopted nodes. Called only between TryBeginReap and
	// FinishReap.
	Adopt() int
	// FinishReap publishes the end of the reap. The reaper calls it only
	// after Target.Remove, so a resurrecting owner can never be stripped
	// from the registries while live.
	FinishReap()
}

// Target is the domain the reaper serves.
type Target interface {
	// PublishClock publishes now (UnixNano) as the domain activity clock.
	PublishClock(now int64)
	// Victims snapshots the current membership.
	Victims() []Victim
	// Remove bulk-removes victims mid-reap from the domain registries.
	// Called between TryBeginReap and FinishReap, while every victim is
	// still in the Reaping phase and its owner therefore excluded.
	Remove(vs []Victim)
}

// Config configures New.
type Config struct {
	// LeaseTimeout is how stale a lease must be before quarantine
	// (default DefaultLeaseTimeout).
	LeaseTimeout time.Duration
	// Grace is the quarantine confirmation delay (default
	// 4×DefaultInterval; the janitor passes four of its own ticks).
	Grace time.Duration
	// Rec receives ReapedHandles/AdoptedNodes counts (nil allocates a
	// private one).
	Rec *stats.Reclamation
}

// quarantine is one pending phase-one entry: when it started and the
// exact lease value observed, so a reap aborts if the lease moved.
type quarantine struct {
	at    int64
	lease int64
	// empty marks a victim whose confirmed reap found nothing to adopt:
	// the reap was cancelled and the victim parked until its lease moves,
	// instead of cycling it through quarantine→confirm→cancel each grace
	// period.
	empty bool
}

// Reaper is one domain's lease-scan state: the pending quarantines it
// carries from tick to tick. Owned by the goroutine that calls Tick.
type Reaper struct {
	tgt Target
	cfg Config

	quarantined map[Victim]quarantine
	trace       *obs.Trace
}

// New builds the lease scan over tgt, applying defaults. The caller must
// have enabled lease stamping on the domain before any worker goroutine
// registers (internal/core does both in StartJanitor).
func New(tgt Target, cfg Config) *Reaper {
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = DefaultLeaseTimeout
	}
	if cfg.Grace <= 0 {
		cfg.Grace = 4 * DefaultInterval
	}
	if cfg.Rec == nil {
		cfg.Rec = &stats.Reclamation{}
	}
	r := &Reaper{tgt: tgt, cfg: cfg, quarantined: make(map[Victim]quarantine)}
	if obs.On {
		r.trace = obs.NewTrace("reap")
	}
	return r
}

// Tick is one pass at time now (UnixNano): publish the clock, then scan
// every lease — quarantine the stale, confirm the quarantines that
// survived their grace period, adopt and deregister the confirmed. It
// returns the number of handles reaped; a nonzero count means adopted
// garbage now sits in the domain-global paths, which the caller must
// drain (the janitor's drain stage).
func (r *Reaper) Tick(now int64) (reaped int) {
	r.tgt.PublishClock(now)
	vs := r.tgt.Victims()

	live := make(map[Victim]bool, len(vs))
	var reaping []Victim
	for _, v := range vs {
		live[v] = true
		if v.Exempt() {
			continue
		}
		if q, ok := r.quarantined[v]; ok {
			lease := v.Lease()
			if lease != q.lease {
				// The owner moved: alive after all (its next entry
				// point cancels the quarantine CAS itself).
				delete(r.quarantined, v)
				continue
			}
			if q.empty {
				// Parked: a previous confirm found nothing to adopt.
				// Nothing can appear while the lease is frozen (growing
				// the batch or retired list, or setting a shield, takes
				// a BeginMut or an Enter, and both stamp), so skip
				// without touching the victim at all.
				continue
			}
			if now-q.at < int64(r.cfg.Grace) {
				continue
			}
			delete(r.quarantined, v)
			if !v.TryBeginReap() {
				continue // owner won the quarantine CAS
			}
			// Owner excluded from here to FinishReap/CancelReap.
			if v.Empty() {
				// Nothing to adopt: cancel instead of churning a merely
				// idle handle through reap/resurrect (which would clear
				// nothing but still invalidate its traversal
				// checkpoints), and park it until its lease moves. A
				// truly dead empty handle costs only its registry slot.
				v.CancelReap()
				r.quarantined[v] = quarantine{at: now, lease: lease, empty: true}
				continue
			}
			reaping = append(reaping, v)
			continue
		}
		lease := v.Lease()
		if age := now - lease; age > int64(r.cfg.LeaseTimeout) {
			if obs.On {
				r.trace.Rec(obs.EvLeaseExpire, age)
			}
			if v.TryQuarantine() {
				r.quarantined[v] = quarantine{at: now, lease: lease}
				if obs.On {
					r.trace.Rec(obs.EvQuarantine, 0)
				}
			}
		}
	}
	// Drop quarantine entries for victims that left the registry (e.g.
	// unregistered between ticks); their status word is owner business.
	for v := range r.quarantined {
		if !live[v] {
			delete(r.quarantined, v)
		}
	}

	if len(reaping) > 0 {
		// Every victim is in the Reaping phase: its owner, should it wake,
		// spins until FinishReap. Adopt and deregister all of them inside
		// that exclusion window — publishing Reaped before the registry
		// removal would let an owner resurrect (re-register) and then have
		// the batched removal strip its live registration, leaving its
		// shields unscanned and its critical sections invisible.
		for _, v := range reaping {
			n := v.Adopt()
			r.cfg.Rec.ReapedHandles.Inc()
			r.cfg.Rec.AdoptedNodes.Add(int64(n))
			if obs.On {
				r.trace.Rec(obs.EvAdopt, int64(n))
			}
		}
		r.tgt.Remove(reaping)
		for _, v := range reaping {
			v.FinishReap()
		}
		if obs.On {
			r.trace.Rec(obs.EvReap, int64(len(reaping)))
		}
	}
	return len(reaping)
}

// Quarantined reports how many victims are currently in phase one
// (parked empty victims included). Same ownership as Tick.
func (r *Reaper) Quarantined() int { return len(r.quarantined) }
