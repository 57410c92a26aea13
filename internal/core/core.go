// Package core implements the paper's primary contribution: HP-RCU (§3) and
// HP-BRCU (§4), hazard pointers expedited with (bounded) RCU critical
// sections.
//
// Both schemes compose the unmodified hazard-pointer implementation
// (internal/hp) with one RCU, internal/brcu. HP-BRCU runs on Bounded RCU;
// HP-RCU runs on the same domain built never to signal (brcu.NeverSignal),
// which is plain RCU — the paper builds HP-BRCU as HP-RCU with its RCU
// replaced (§4), and this package builds HP-RCU as HP-BRCU with the
// replacement switched off. Both go through exactly two mechanisms:
//
//   - Two-step retirement (Algorithm 4): Retire(p) defers the inner
//     HP-Retire(p) through the RCU, so a pointer acquired inside a critical
//     section is safe to dereference and to protect without validation.
//   - The expedited traversal (Algorithm 7; Walk in traverse.go): it
//     follows most links under coarse-grained RCU protection, periodically
//     checkpointing the cursor into HP shields and re-announcing the epoch,
//     with double-buffered protectors so a rollback in the middle of
//     checkpointing always leaves one complete protected cursor to resume
//     from (§4.3). Under HP-RCU only the walk's own cancellation (and fault
//     injection) rolls a section back, and the walk is Algorithm 3's
//     alternation of RCU phases and checkpoints.
//
// The backend decides robustness and nothing else: only an HP-BRCU domain
// has a §5 garbage bound, a janitor and backpressure; an HP-RCU reader
// stalled inside a section holds the epoch for as long as it stands.
package core

import (
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/reap"
	"github.com/smrgo/hpbrcu/internal/registry"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Backend selects whether the RCU under the coarse-grained phases bounds
// its critical sections.
type Backend int

const (
	// BackendRCU yields HP-RCU (§3): robust against long-running
	// operations but not stalled threads. Its BRCU domain never signals.
	BackendRCU Backend = iota
	// BackendBRCU yields HP-BRCU (§4): robust against both.
	BackendBRCU
)

// DefaultBackupPeriod is the number of traversal steps between HP
// checkpoints (Algorithm 7's BackupPeriod). It trades rollback re-work
// against checkpoint cost; see BenchmarkAblationBackupPeriod.
const DefaultBackupPeriod = 64

// Config tunes a Domain.
type Config struct {
	// BackupPeriod is the checkpoint distance in traversal steps.
	BackupPeriod int
	// MaxLocalTasks and ForceThreshold configure the BRCU: the local
	// defer batch size and, for HP-BRCU, the failed-advance budget before
	// neutralization. Zero selects the paper's defaults (128 and 2).
	MaxLocalTasks  int
	ForceThreshold int
	// ScanThreshold is HP's retire batch size (default 128).
	ScanThreshold int
	// PanicPolicy selects what the recover barrier does with panics that
	// escape user code inside critical sections (default PanicRethrow).
	PanicPolicy PanicPolicy
}

// Domain owns one HP-(B)RCU instance: an HP domain plus a BRCU domain,
// with shared statistics.
type Domain struct {
	backend      Backend
	backupPeriod int
	rec          *stats.Reclamation

	HP   *hp.Domain
	brcu *brcu.Domain

	// members tracks the composed handles (both halves), so the lease
	// scan can snapshot, claim and bulk-remove them as units.
	members registry.Registry[Handle]

	// jan is the domain's janitor; nil until StartJanitor (and always nil
	// for HP-RCU).
	jan *Janitor

	// bp is the tiered-backpressure evaluator; nil until
	// EnableBackpressure (and always nil for HP-RCU).
	bp *reap.Backpressure

	// bound memoizes the last §5-bound evaluation; see
	// GarbageBoundObserved.
	bound atomic.Pointer[boundMemo]

	// policy is the panic policy every handle's recover barrier applies.
	policy PanicPolicy
	// closed is set by MarkClosed; the public map layer refuses new
	// operations once it is (see lifecycle.go).
	closed atomic.Bool
}

// NewDomain creates a domain for the given backend. A zero Config selects
// the paper's evaluation parameters.
func NewDomain(backend Backend, cfg Config) *Domain {
	rec := &stats.Reclamation{}
	d := &Domain{
		backend:      backend,
		backupPeriod: cfg.BackupPeriod,
		rec:          rec,
		HP:           hp.NewDomain(rec, hp.WithScanThreshold(cfg.ScanThreshold)),
		policy:       cfg.PanicPolicy,
	}
	if d.backupPeriod <= 0 {
		d.backupPeriod = DefaultBackupPeriod
	}
	opts := []brcu.Option{brcu.WithMaxLocalTasks(cfg.MaxLocalTasks), brcu.WithForceThreshold(cfg.ForceThreshold)}
	switch backend {
	case BackendRCU:
		opts = append(opts, brcu.NeverSignal())
	case BackendBRCU:
	default:
		panic("core: unknown backend")
	}
	d.brcu = brcu.NewDomain(rec, opts...)
	return d
}

// Stats returns the shared reclamation statistics.
func (d *Domain) Stats() *stats.Reclamation { return d.rec }

// Backend reports which scheme this domain runs.
func (d *Domain) Backend() Backend { return d.backend }

// GarbageBound returns the §5 bound 2GN + GN² + H on unreclaimed nodes for
// an HP-BRCU domain with the given shield count H; it returns -1 for HP-RCU,
// which is unbounded under stalled threads.
func (d *Domain) GarbageBound(shields int) int64 {
	if d.backend == BackendRCU {
		return -1
	}
	return d.brcu.GarbageBound() + int64(shields)
}

// GarbageBoundFor is GarbageBound for an explicit thread count.
func (d *Domain) GarbageBoundFor(threads, shields int) int64 {
	if d.backend == BackendRCU {
		return -1
	}
	return d.brcu.GarbageBoundFor(threads) + int64(shields)
}

// boundMemo caches one GarbageBoundObserved evaluation keyed by the peaks
// it was computed from; see that method.
type boundMemo struct {
	handles int
	shields int64
	bound   int64
}

// GarbageBoundObserved is the §5 bound 2GN+GN²+H evaluated entirely from
// the domain's own accounting: N is the peak number of simultaneously
// registered BRCU handles and H the peak number of registered HP shields.
// It returns -1 for HP-RCU.
//
// The result is memoized on the (N, H) pair it was computed from: both
// peaks are monotone, so a hit is exact and a stale entry is simply
// replaced. The backpressure ladder refreshes its thresholds from here on
// retire paths, which without the memo would recompute the polynomial —
// and its float conversions — for the same peaks millions of times.
func (d *Domain) GarbageBoundObserved() int64 {
	if d.backend == BackendRCU {
		return -1
	}
	n := d.brcu.HandlesPeak()
	s := d.HP.ShieldsPeak()
	if m := d.bound.Load(); m != nil && m.handles == n && m.shields == s {
		return m.bound
	}
	b := d.brcu.GarbageBoundFor(n) + s
	d.bound.Store(&boundMemo{handles: n, shields: s, bound: b})
	return b
}

// EnableBackpressure installs the tiered-backpressure evaluator on an
// HP-BRCU domain (nil for HP-RCU, which has no garbage bound to key the
// tiers to). Call before any worker registers; the retire path reads the
// pointer without synchronization.
func (d *Domain) EnableBackpressure(cfg reap.BackpressureConfig) *reap.Backpressure {
	if d.backend == BackendRCU {
		return nil
	}
	d.bp = reap.NewBackpressure(cfg, d.rec.Unreclaimed.Load, d.GarbageBoundObserved, d.rec)
	return d.bp
}

// Backpressure returns the installed evaluator (nil when disabled).
func (d *Domain) Backpressure() *reap.Backpressure { return d.bp }

// Handle is one thread's participation record across both halves of the
// scheme. Not safe for concurrent use.
type Handle struct {
	d    *Domain
	HP   *hp.Handle
	brcu *brcu.Handle

	// exempt marks service handles (the janitor's, a janitor-less
	// CloseDrain's) the lease scan must never claim: they are long-lived
	// and mostly idle, so their status words stand still by design.
	exempt bool

	// bpTick samples the backpressure-threshold refresh on the retire
	// path: every 256th retire of this handle recomputes the cached
	// rungs, replacing the shared call counter the ladder itself used to
	// bump (a domain-wide RMW per retire). Owner-goroutine-only.
	bpTick uint32

	// poisoned records the contained panic whose restore failed; a
	// non-nil value makes every subsequent operation refuse the handle
	// (see lifecycle.go). Owner-goroutine-only.
	poisoned *PanicError
}

// Register adds a thread to the domain and wires the two-step retirement
// executor: when the RCU grace period of a deferred batch elapses, the
// batch moves to this thread's HP retired list (Algorithm 4).
func (d *Domain) Register() *Handle {
	return d.register(false)
}

func (d *Domain) register(exempt bool) *Handle {
	h := &Handle{d: d, HP: d.HP.Register(), brcu: d.brcu.Register(), exempt: exempt}
	// Keep the whole records: the obs retire timestamp set at the outer
	// Retire rides into the inner HP batch, so the retire→reclaim age
	// histogram spans both steps.
	h.brcu.SetExecutor(h.HP.RetireRecords)
	// If the reaper took this handle and the owner then turned out to be
	// alive, the BRCU half resurrects inside Enter and calls back here to
	// restore the composed state.
	h.brcu.SetResurrect(func() {
		h.HP.Readopt()
		d.members.Add(h)
	})
	d.members.Add(h)
	return h
}

// Unregister removes the thread from both domains.
func (h *Handle) Unregister() {
	// Claim the un-reapable phase across the teardown of both halves: a
	// reap can then only land entirely before this point, in which case
	// BeginMut resurrects the handle (re-adding it to members and the HP
	// registry via the resurrect hook) so the removals below stay
	// balanced. Without it, a reap between the two halves would strip
	// registries and gauges a second time.
	claimed := h.brcu.BeginMut()
	h.d.members.Remove(h)
	h.brcu.Unregister() // nested BeginMut no-ops under ours
	h.HP.Unregister()
	if claimed {
		h.brcu.EndMut()
	}
}

// NewShield creates an HP shield owned by this thread.
func (h *Handle) NewShield() *hp.Shield { return h.HP.NewShield() }

// Reaped reports whether the lease reaper has confirmed this handle's
// owner dead and adopted its state (and no resurrection has happened
// since). Safe from any goroutine; always false for HP-RCU, which has no
// reaper.
func (h *Handle) Reaped() bool { return h.brcu.Reaped() }

// Retire schedules a node for two-step reclamation (Algorithm 4): first an
// RCU grace period, then hazard-pointer scanning. It must be called either
// outside critical sections or inside a Mask region (Defer is
// rollback-unsafe, §4.1).
func (h *Handle) Retire(slot uint64, pool alloc.Freer) {
	h.d.rec.Retired.Inc()
	h.d.rec.Unreclaimed.Add(1)
	h.brcu.DeferNoCount(slot, pool)
	// First tier of the backpressure ladder: past the drain threshold the
	// retiring thread drains its own garbage inline instead of waiting for
	// the batch thresholds. ShouldDrain, not Level: the drain tier is an
	// independent knob (DrainFraction > 1 disables inline drains without
	// touching throttling or rejection). The periodic threshold refresh is
	// sampled on this handle's own counter so domains without a janitor
	// still track a growing thread count, without a shared RMW per retire.
	if bp := h.d.bp; bp != nil {
		if h.bpTick++; h.bpTick&255 == 0 {
			bp.Refresh()
		}
		if bp.ShouldDrain() {
			h.emergencyDrain()
		}
	}
}

// emergencyDrain pushes one forced round through both reclamation steps:
// flush-and-advance on the BRCU (expiring what a grace period allows) and
// an HP shield scan over the result.
func (h *Handle) emergencyDrain() {
	// Both steps mutate reaper-adoptable state (the BRCU batch, the HP
	// retired list); hold the un-reapable InMut phase across them.
	// Inside a masked region BeginMut no-ops — the InRm word already
	// excludes the reaper.
	claimed := h.brcu.BeginMut()
	h.brcu.ForceFlush()
	h.HP.Reclaim()
	if claimed {
		h.brcu.EndMut()
	}
}

// Mask runs body as an abort-masked region (§4.2): BRCU's Mask, under
// both schemes — an HP-RCU section is never signalled, but its owner's
// cancellation neutralizes it like a signal would. The caller must have
// HP-protected every node body uses with shields that outlive the region,
// and body must be rollback-safe.
func (h *Handle) Mask(body func()) (ran, mustRollback bool) { return h.brcu.Mask(body) }

// Barrier drains this thread's deferred nodes through both reclamation
// steps. For teardown and tests; see the scheme packages for caveats.
func (h *Handle) Barrier() {
	// One InMut span over both steps: the HP reclaim mutates this handle's
	// retired list too, so it needs the same protection from a concurrent
	// reap as the BRCU flushes.
	claimed := h.brcu.BeginMut()
	h.brcu.Barrier()
	h.HP.Reclaim()
	if claimed {
		h.brcu.EndMut()
	}
}

// Pin enters a bare critical section on the underlying BRCU — no
// traversal, no checkpoints. It exists for the robustness experiments
// (Table 2) and tests, which need a thread stalled inside a critical
// section; pair with Unpin. Under HP-BRCU the section can be neutralized,
// after which Unpin simply clears the request; under HP-RCU it holds the
// epoch until Unpin.
func (h *Handle) Pin() { h.brcu.Enter() }

// Unpin leaves a critical section entered with Pin.
func (h *Handle) Unpin() { h.brcu.Exit() }
