// Package fault is the deterministic fault-injection layer behind the
// chaos harness (internal/chaos, `smrbench chaos`). Injection points are
// compiled into the hot paths of internal/brcu, internal/core, internal/hp
// and internal/alloc behind a single package-level boolean, so a disabled
// build costs one predictable branch per site and nothing else:
//
//	if fault.On {
//	        fault.Fire(fault.SitePoll)
//	}
//
// # Determinism model
//
// Whether the n-th arrival at a site fires is a pure function of
// (seed, site, n): arrivals are numbered by a per-site atomic counter and
// the decision hashes the triple through splitmix64. The same seed
// therefore always produces the same fault schedule per site-arrival
// sequence. Goroutine interleaving still varies between runs — the chaos
// harness asserts invariants (no poison hits, bound compliance, the
// per-key reference model), never exact schedules.
//
// Each site plan can carry a cooldown: after a fire, the next Cooldown
// arrivals at that site are exempt. This is what keeps hostile schedules
// live — e.g. a forced-rollback plan whose cooldown exceeds the
// checkpoint distance guarantees every traversal eventually completes a
// checkpoint between two faults, and a drain-skip plan with a cooldown of
// one can never suppress two consecutive drains (which bounds the extra
// garbage it can pile up to one epoch's worth of batches).
//
// # Concurrency contract
//
// On and the active injector may only change while no goroutine is inside
// an injection point: Activate before the workers start, Deactivate after
// they have joined (and after every adoption of a dropped handle is done —
// its drain round crosses injection sites too). This mirrors the
// atomicx.YieldPeriod contract and keeps the gate a plain, race-free load.
package fault

import (
	"errors"
	"runtime"
	"sync/atomic"
)

// ErrInjectedPanic is the value SitePanic call sites panic with. The chaos
// harness recognizes it to tell an injected panic (expected, op aborted)
// from a genuine bug escaping user code (an invariant violation).
var ErrInjectedPanic = errors.New("fault: injected panic")

// Site identifies one injection point. The inventory (DESIGN.md §6.1):
type Site uint8

const (
	// SitePoll stalls at a traversal step's neutralization poll (core's
	// step hooks, just before brcu.Handle.Poll's load); the stall widens
	// the window in which an already-neutralized thread keeps running.
	SitePoll Site = iota
	// SiteShield stalls in hp.Shield.Protect/ProtectSlot immediately
	// before the protection is published — the classic HP race window
	// between loading a reference and shielding it.
	SiteShield
	// SiteMaskEnter stalls in brcu.Handle.Mask before the InCs→InRm entry
	// CAS, giving neutralizers time to land first.
	SiteMaskEnter
	// SiteMaskExit stalls in brcu.Handle.Mask between the masked body and
	// the InRm→InCs exit CAS — the paper's Mask/SignalHandler race.
	SiteMaskExit
	// SiteMaskAbort self-neutralizes the thread at the SiteMaskExit
	// location, deterministically forcing the "signal landed mid-region"
	// branch of Algorithm 6.
	SiteMaskAbort
	// SiteStepRollback self-neutralizes the thread at a traversal step
	// (core's step hooks), forcing a rollback to the last complete
	// checkpoint at an arbitrary point of the walk.
	SiteStepRollback
	// SiteAdvanceStorm exhausts the signalling budget in
	// brcu.flushAndAdvance, so the advance neutralizes every laggard
	// immediately (a neutralization storm).
	SiteAdvanceStorm
	// SiteDrainSkip suppresses one executeExpired drain in brcu, delaying
	// execution of expired deferred batches by (at least) one advance.
	SiteDrainSkip
	// SiteAllocStall stalls in alloc.Pool.Alloc before the slot is taken.
	SiteAllocStall
	// SiteAllocExhaust shrinks the allocator refill batch to a single
	// slot, maximizing freelist pressure and slot-reuse (ABA) churn.
	SiteAllocExhaust
	// SiteFreeStall stalls in alloc.Pool.FreeSlots/FreeLocal after a slot
	// is poisoned but before it reaches a freelist.
	SiteFreeStall
	// SiteLeak kills a chaos worker mid-operation: the worker returns
	// without Unregister or Barrier, dropping its registered handle,
	// shields, deferred batch and retired list — the goroutine-death case
	// adoption (internal/core) exists to recover. Fired by the
	// chaos harness between operations, not from library hot paths.
	SiteLeak
	// SitePanic panics with ErrInjectedPanic from inside a critical
	// section — at a traversal step (core's step hooks) and just inside an
	// abort-masked region in brcu.Handle.Mask, in both cases before any
	// shared-memory mutation — exercising the recover barrier's abort
	// path. The caller panics; this package only decides.
	SitePanic
	// SiteNetRead stalls the cache server's per-connection request-read
	// path after a complete request line arrived — a slow or wedged
	// client goroutine holding server-side resources mid-protocol.
	SiteNetRead
	// SiteNetWrite stalls the cache server's reply-write path before the
	// flush — the slow-reader case, where the peer's receive window (or
	// its unread socket buffer) backs pressure into the server.
	SiteNetWrite
	// SiteNetDrop closes the cache server's side of a connection right
	// after a reply — the peer observes a mid-stream disconnect, and the
	// server's teardown path must still run its normal checkin/close
	// sequence.
	SiteNetDrop

	// NumSites is the number of injection sites.
	NumSites
)

var siteNames = [NumSites]string{
	"poll", "shield", "mask-enter", "mask-exit", "mask-abort",
	"step-rollback", "advance-storm", "drain-skip",
	"alloc-stall", "alloc-exhaust", "free-stall", "leak", "panic",
	"net-read", "net-write", "net-drop",
}

// String returns the site's name.
func (s Site) String() string {
	if s < NumSites {
		return siteNames[s]
	}
	return "site?"
}

// Plan configures one site. The zero Plan disables the site.
type Plan struct {
	// Period is the mean number of arrivals between fires; arrival n
	// fires when hash(seed, site, n) mod Period == 0. Zero disables the
	// site; one fires on every (non-cooldown) arrival.
	Period uint64
	// Cooldown exempts that many arrivals after each fire. It is the
	// liveness knob: see the package comment.
	Cooldown uint64
	// StallYields is how many runtime.Gosched() calls a fire performs
	// (the "configurable duration" of a stall, measured in scheduler
	// yields so runs stay wall-clock independent).
	StallYields int
}

// Config seeds an Injector.
type Config struct {
	Seed  uint64
	Plans [NumSites]Plan
}

type siteState struct {
	arrivals atomic.Uint64
	fired    atomic.Uint64
	// gate is the first arrival index allowed to fire again after a
	// cooldown. Races on it are benign: a lost update only mistimes a
	// cooldown by one fire, never the determinism of the hash decision.
	gate atomic.Uint64
}

// Injector is one activated fault schedule. Its methods are safe for
// concurrent use.
type Injector struct {
	seed  uint64
	plans [NumSites]Plan
	sites [NumSites]siteState
}

// New builds an injector from a config.
func New(cfg Config) *Injector {
	return &Injector{seed: cfg.Seed, plans: cfg.Plans}
}

// On gates every injection point. Hot paths read it as a single
// predictable branch; see the package comment for when it may change.
var On bool

var active *Injector

// activeDyn mirrors active for FireDyn's atomic readers; see below.
var activeDyn atomic.Pointer[Injector]

// Activate installs inj and opens the gate. It must not run while any
// worker is inside an injection point.
func Activate(inj *Injector) {
	active = inj
	On = inj != nil
	activeDyn.Store(inj)
}

// Deactivate closes the gate. Same contract as Activate.
func Deactivate() {
	On = false
	active = nil
	activeDyn.Store(nil)
}

// Fire records one arrival at site s, performs the site's stall if the
// fault fires, and reports whether it fired. It is a no-op returning false
// when no injector is active; callers must still guard with fault.On to
// keep the disabled cost to one branch.
func Fire(s Site) bool {
	inj := active
	if inj == nil {
		return false
	}
	return inj.fire(s)
}

// FireDyn is Fire for callers that cannot honour the Activate/Deactivate
// quiescence contract — long-lived goroutines like the cache server's
// connection handlers, which are accepted and torn down while injection
// schedules come and go. It reads the gate and the injector through one
// atomic pointer instead of the plain On/active pair, trading a single
// atomic load per arrival for race-freedom. Library hot paths keep the
// plain-branch Fire; dynamic service paths use FireDyn.
func FireDyn(s Site) bool {
	inj := activeDyn.Load()
	if inj == nil {
		return false
	}
	return inj.fire(s)
}

func (inj *Injector) fire(s Site) bool {
	p := &inj.plans[s]
	if p.Period == 0 {
		return false
	}
	st := &inj.sites[s]
	n := st.arrivals.Add(1)
	if n < st.gate.Load() {
		return false
	}
	if p.Period > 1 && mix(inj.seed, uint64(s), n)%p.Period != 0 {
		return false
	}
	if p.Cooldown > 0 {
		st.gate.Store(n + 1 + p.Cooldown)
	}
	st.fired.Add(1)
	for i := 0; i < p.StallYields; i++ {
		runtime.Gosched()
	}
	return true
}

// mix is splitmix64 over the (seed, site, arrival) triple.
func mix(seed, site, n uint64) uint64 {
	x := seed ^ (site+1)*0x9E3779B97F4A7C15 ^ n*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Arrivals returns how many times site s was reached.
func (inj *Injector) Arrivals(s Site) uint64 { return inj.sites[s].arrivals.Load() }

// Fired returns how many times site s fired.
func (inj *Injector) Fired(s Site) uint64 { return inj.sites[s].fired.Load() }

// TotalFired sums fires across all sites.
func (inj *Injector) TotalFired() uint64 {
	var t uint64
	for s := Site(0); s < NumSites; s++ {
		t += inj.sites[s].fired.Load()
	}
	return t
}
