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
// that hole by reading liveness off the one word it shares with the owner,
// the handle's status word:
//
//   - with the scan on, every owner return to Out writes a word that never
//     recurs (it carries the owner's operation count), so a word that reads
//     the same at two looks dates the owner's last activity to before the
//     first look; the scan keeps, per victim, the last word it saw and when
//     it first saw it;
//   - a victim whose Out or RbReq word has stood still for LeaseTimeout is
//     *claimed* by one CAS from that exact word to Reaping (Victim.TryReap).
//     The compare is the proof that the owner has not moved: an owner that
//     entered a section or a mutation span in the meantime — a CAS on the
//     same word — has already replaced it, and the claim fails;
//   - a claimed victim's deferred batch and retired list are adopted into
//     the domain-global reclamation paths, its shields are cleared, and it
//     is removed from the registry — strictly in that order, with
//     FinishReap published only after the registry removal (see below);
//   - a claimed victim with nothing to adopt (empty batch and retired
//     list, no set shield) is not reaped at all: the claim is handed back
//     (Reaping → the same word) and the victim parked until its word
//     moves, so a registered-but-idle handle is never churned through
//     reap/resurrect cycles (its only cost, if truly dead, is a registry
//     slot).
//
// Safety: the owner's transitions out of a reapable state are CASes on
// the status word (enter a critical section, claim the mutating InMut
// phase around batch mutation), so the reaper and the owner serialize
// through that one word — a reap can never overlap an owner-side mutation
// of the adopted state, and the Reaping phase excludes a waking owner for
// the reap's whole span. How long a word must stand is purely the
// liveness heuristic that decides when to try.
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
// janitor tick, so a briefly descheduled owner is never claimed in the
// first place.
const (
	DefaultLeaseTimeout = 250 * time.Millisecond
	DefaultInterval     = 5 * time.Millisecond
)

// Victim is one reapable handle, as seen by the reaper. internal/core's
// composed Handle implements it; the indirection keeps this package free
// of scheme imports (and mockable in tests).
type Victim interface {
	// Word returns the victim's status word; the scan only compares it
	// across looks and hands it back to TryReap and CancelReap.
	Word() uint64
	// Exempt reports whether the handle must never be reaped (the
	// janitor's service handle).
	Exempt() bool
	// TryReap claims the victim by one CAS from word; false means word is
	// not reapable (a live critical section, a mutation span, another
	// reap) or the owner has moved since the scan read it.
	TryReap(word uint64) bool
	// Empty reports whether a reap would adopt nothing (empty batch and
	// retired list, no set shield). Called only between TryReap and
	// FinishReap/CancelReap, where the owner is excluded.
	Empty() bool
	// CancelReap hands a claim back without adopting, restoring word: the
	// victim stays registered and its owner, if alive, continues untouched.
	CancelReap(word uint64)
	// Adopt moves the victim's deferred batch and retired list into the
	// domain-global paths and clears its protections, returning the
	// number of adopted nodes. Called only between TryReap and FinishReap.
	Adopt() int
	// FinishReap publishes the end of the reap. The reaper calls it only
	// after Target.Remove, so a resurrecting owner can never be stripped
	// from the registries while live.
	FinishReap()
}

// Target is the domain the reaper serves.
type Target interface {
	// Victims snapshots the current membership.
	Victims() []Victim
	// Remove bulk-removes victims mid-reap from the domain registries.
	// Called between TryReap and FinishReap, while every victim is still
	// in the Reaping phase and its owner therefore excluded.
	Remove(vs []Victim)
}

// Config configures New.
type Config struct {
	// LeaseTimeout is how long a victim's word must stand still before the
	// scan claims it (default DefaultLeaseTimeout).
	LeaseTimeout time.Duration
	// Rec receives the ReapedHandles/AdoptedNodes counts and the
	// ParkedHandles gauge (nil allocates a private one).
	Rec *stats.Reclamation
}

// look is what the scan remembers of one victim between ticks.
type look struct {
	word  uint64 // the status word at the last look
	since int64  // when the scan first saw it
	// empty marks a victim whose claim found nothing to adopt: the claim
	// was handed back and the victim parked — not touched again — until its
	// word moves. Nothing can appear while the word stands: growing the
	// batch or retired list, or setting a shield, takes a BeginMut or an
	// Enter, and both replace it.
	empty bool
}

// Reaper is one domain's lease-scan state: the looks it carries from tick
// to tick. Owned by the goroutine that calls Tick.
type Reaper struct {
	tgt Target
	cfg Config

	looks map[Victim]look
	trace *obs.Trace
}

// New builds the lease scan over tgt, applying defaults. The caller must
// have enabled leases on the domain before any worker goroutine registers
// (internal/core does both in StartJanitor).
func New(tgt Target, cfg Config) *Reaper {
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = DefaultLeaseTimeout
	}
	if cfg.Rec == nil {
		cfg.Rec = &stats.Reclamation{}
	}
	r := &Reaper{tgt: tgt, cfg: cfg}
	if obs.On {
		r.trace = obs.NewTrace("reap")
	}
	return r
}

// Tick is one pass at time now (UnixNano): look at every victim's word,
// claim those that have stood still for LeaseTimeout, adopt and deregister
// the claimed. It returns the number of handles reaped; a nonzero count
// means adopted garbage now sits in the domain-global paths, which the
// caller must drain (the janitor's drain stage).
//
// Time enters only as the distance between two looks at an unchanged
// word, so ticks that never ran (a stalled janitor) age nobody: an owner
// that kept working through the gap shows a different word at the next
// look, whatever the clock says.
func (r *Reaper) Tick(now int64) (reaped int) {
	vs := r.tgt.Victims()

	// Rebuilt each tick, so the looks of victims that left the registry
	// (unregistered, reaped) go with them.
	looks := make(map[Victim]look, len(vs))
	parked := 0
	var reaping []Victim
	for _, v := range vs {
		if v.Exempt() {
			continue
		}
		w := v.Word()
		l, seen := r.looks[v]
		if !seen || l.word != w {
			// First look, or the owner moved: alive as of this look.
			l = look{word: w, since: now}
		} else if stood := now - l.since; !l.empty && stood >= int64(r.cfg.LeaseTimeout) {
			if obs.On {
				r.trace.Rec(obs.EvLeaseExpire, stood)
			}
			if !v.TryReap(w) {
				// Not a reapable word (a stalled section is
				// neutralization's job, a mutation span nobody's), or the
				// owner moved between the look and the claim: look afresh
				// next tick.
				continue
			}
			// Owner excluded from here to FinishReap/CancelReap.
			if !v.Empty() {
				reaping = append(reaping, v)
				continue
			}
			// Nothing to adopt: hand the claim back instead of churning a
			// merely idle handle through reap/resurrect (which would clear
			// nothing but still invalidate its traversal checkpoints), and
			// park it until its word moves. A truly dead empty handle
			// costs only its registry slot.
			v.CancelReap(w)
			l.empty = true
		}
		if l.empty {
			parked++
		}
		looks[v] = l
	}
	r.looks = looks
	r.cfg.Rec.ParkedHandles.Add(int64(parked) - r.cfg.Rec.ParkedHandles.Load())

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

// Watched reports how many victims the scan carries a look for (parked
// ones included). Same ownership as Tick.
func (r *Reaper) Watched() int { return len(r.looks) }

// Parked reports how many victims stood parked at the last tick: claimed,
// found to hold nothing, handed back, not moved since. It reads the
// ParkedHandles gauge of Config.Rec, which only Tick writes.
func (r *Reaper) Parked() int { return int(r.cfg.Rec.ParkedHandles.Load()) }
