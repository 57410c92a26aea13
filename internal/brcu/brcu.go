// Package brcu implements Bounded RCU (Algorithm 5 of the paper) together
// with abort-masking (Algorithm 6): an epoch-based RCU whose critical
// sections are forcibly bounded. A reclaimer that fails to advance the
// global epoch ForceThreshold times in a row neutralizes exactly the
// lagging threads, forcing them to roll their critical sections back to the
// beginning, and then advances the epoch anyway. The advance is written
// once, flushAndAdvance, as Algorithm 5 lines 26–34. Every push a live
// handle makes to the global task set goes through it and is counted
// against the budget, which is what the §5 bound rests on; only a leaving
// handle's last batch (Unregister, the reaper's AdoptBatch) is pushed
// outside it, once per handle. ForceFlush runs the same lines at an
// exhausted budget (teardown, backpressure, the janitor's drain). A
// domain built with NeverSignal skips lines 31–32 and is plain RCU: the
// one RCU under both of internal/core's schemes.
//
// # Signal substitution
//
// The paper delivers neutralization with POSIX signals (pthread_kill +
// siglongjmp). Go's runtime owns signal handling, and a non-local jump
// across a goroutine's stack is unsound under the garbage collector, so
// this implementation substitutes *cooperative neutralization*:
//
//   - a thread's state lives in one packed status word {phase, payload}:
//     the announced epoch, or in Out the owner's operation count
//     (Handle.ops), which dates its last activity for the lease scan;
//   - the reclaimer "sends a signal" by CASing the victim's status from
//     InCs(e) to RbReq(e) — this is the delivery linearization point;
//   - the victim observes RbReq at its next poll point (every traversal
//     step and checkpoint in internal/core) and rolls back by ordinary
//     control flow.
//
// The reclaimer never waits for an acknowledgement, so a stalled thread
// cannot block reclamation — the paper's robustness property is preserved.
// The window in which an already-neutralized victim is still running is
// harmless: Go's GC keeps recycled nodes type-safe, and the framework
// commits results and shared-memory writes only after a successful poll
// (or inside an abort-masked region, whose entry and exit are themselves
// CASes on the status word). See DESIGN.md §2 for the full argument, which
// mirrors Theorem A.4's case analysis with the CAS taking the place of
// signal delivery in Assumption 1.
package brcu

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/obs"
	"github.com/smrgo/hpbrcu/internal/registry"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Thread phases, stored in the low bits of the packed status word
// (Algorithm 5 line 11 and Algorithm 6 line 2).
const (
	// phaseOut: outside any critical section.
	phaseOut uint64 = iota
	// phaseInCs: inside a critical section; may be neutralized.
	phaseInCs
	// phaseInRm: inside an abort-masked region; a neutralization request
	// is deferred until the region exits.
	phaseInRm
	// phaseRbReq: neutralized; the thread must roll back at its next poll
	// (or masked-region exit).
	phaseRbReq
	// phaseInMut: the owner is mutating reaper-adoptable state (the defer
	// batch, the HP retired list) outside any critical section. TryReap
	// refuses the phase, so an owner descheduled mid-mutation can never be
	// reaped while its batch is in flight; and, being ≥ phaseRbReq, it never
	// blocks an epoch advance (the owner holds no critical section). See
	// BeginMut.
	phaseInMut
	// phaseReaping: the lease reaper claimed the handle (TryReap) and is
	// adopting its deferred state. A waking owner spins until the reaper
	// publishes phaseReaped or hands the word back (CancelReap). An owner
	// swap that lands on this phase or the next stores it back before it
	// does anything else (see swap, and DESIGN.md §7.2).
	phaseReaping
	// phaseReaped: the handle was reaped — removed from the registry,
	// its batch and shields adopted. A waking owner re-registers
	// (resurrects) before continuing.
	phaseReaped
)

const phaseBits = 3

func pack(phase, epoch uint64) uint64 { return epoch<<phaseBits | phase }
func unpack(st uint64) (phase, epoch uint64) {
	return st & (1<<phaseBits - 1), st >> phaseBits
}

// Defaults from the paper's evaluation (§6): HP-BRCU flushes (and tries to
// advance the epoch) every 128 retires and forces the advance after two
// successive failures.
const (
	DefaultMaxLocalTasks  = 128
	DefaultForceThreshold = 2
)

// initialBatchCap seeds the geometric growth of per-handle defer batches;
// see Handle.batchCap.
const initialBatchCap = 16

type taggedBatch struct {
	epoch uint64
	// flushed is the obs timestamp of the flush (0 with observability
	// off); the drain records the batch's grace-period length from it.
	flushed int64
	tasks   []alloc.Retired
}

// Domain is one BRCU domain (global epoch, task registry, participant
// list — Algorithm 5 lines 4-7).
type Domain struct {
	epoch atomicx.Padded

	handles registry.Registry[Handle]
	rec     *stats.Reclamation

	maxLocalTasks  int
	forceThreshold int
	// neverSignal makes the domain plain RCU: the advance gives up on
	// every laggard (see NeverSignal). Set at construction, read-only after.
	neverSignal bool

	// population tracks registered handles and their peak, so the §5
	// bound can be evaluated after the fact with the N actually observed.
	population stats.Gauge

	// nextID hands out sequential handle ids, carried into misuse panics
	// and post-mortem traces.
	nextID atomic.Uint64

	// leaseOn makes the handles reapable (internal/reap, DESIGN.md §7):
	// BeginMut claims the InMut phase the reaper refuses. Enter and Exit
	// take one path either way. It follows the fault.On contract: set
	// once by EnableLeases before any worker goroutine touches a handle,
	// plain loads thereafter.
	leaseOn bool

	tasksMu sync.Mutex
	tasks   []taggedBatch
}

// Option configures a Domain.
type Option func(*Domain)

// WithMaxLocalTasks sets the per-thread defer batch size (the paper's
// MaxLocalTasks).
func WithMaxLocalTasks(n int) Option {
	return func(d *Domain) {
		if n > 0 {
			d.maxLocalTasks = n
		}
	}
}

// WithForceThreshold sets how many failed epoch advances a thread tolerates
// before neutralizing the laggards (the paper's ForceThreshold).
func WithForceThreshold(n int) Option {
	return func(d *Domain) {
		if n > 0 {
			d.forceThreshold = n
		}
	}
}

// NeverSignal builds plain RCU on this implementation: Algorithm 5 without
// the forced neutralization of lines 31–32. The advance gives up on every
// laggard whatever its failure budget, so neither a Defer nor ForceFlush or
// Barrier ever signals, and a section stalled at epoch e holds the epoch at
// e+1 for as long as it stands. HP-RCU (internal/core) runs on such a
// domain; a section still rolls back when its owner neutralizes itself
// (cancellation, fault injection).
func NeverSignal() Option {
	return func(d *Domain) { d.neverSignal = true }
}

// NewDomain creates a BRCU domain reporting into rec (nil allocates a
// private one).
func NewDomain(rec *stats.Reclamation, opts ...Option) *Domain {
	if rec == nil {
		rec = &stats.Reclamation{}
	}
	d := &Domain{rec: rec, maxLocalTasks: DefaultMaxLocalTasks, forceThreshold: DefaultForceThreshold}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Stats returns the domain's reclamation statistics.
func (d *Domain) Stats() *stats.Reclamation { return d.rec }

// Epoch returns the current global epoch.
func (d *Domain) Epoch() uint64 { return d.epoch.Load() }

// GarbageBound returns the §5 bound on retired-but-unreclaimed nodes,
// 2GN + GN² (+H shields, which the caller adds), for the current number of
// registered threads.
func (d *Domain) GarbageBound() int64 {
	return d.GarbageBoundFor(d.handles.Len())
}

// GarbageBoundFor is GarbageBound for an explicit thread count (used when
// the threads have not registered yet).
func (d *Domain) GarbageBoundFor(threads int) int64 {
	g := int64(d.maxLocalTasks * d.forceThreshold)
	n := int64(threads)
	return 2*g*n + g*n*n
}

// HandlesPeak returns the highest number of simultaneously registered
// handles observed — the N to evaluate the §5 bound with after a run.
func (d *Domain) HandlesPeak() int { return int(d.population.Peak()) }

// EnableLeases makes this domain's handles reapable: their owners claim the
// InMut phase around every mutation of adoptable state (BeginMut). It must be
// called before any goroutine uses a handle (the fault.On activation
// contract); core.StartJanitor does so at construction time.
func (d *Domain) EnableLeases() { d.leaseOn = true }

// Handle is one thread's participation record (Algorithm 5 lines 8-13).
// Not safe for concurrent use by multiple goroutines; the status word is
// read and CASed by reclaimers.
type Handle struct {
	// status is the packed {phase, payload} word — the single most
	// contended word in the scheme (swapped by the owner at every
	// Enter/Exit, read and CASed by every advancing reclaimer), so it
	// owns its cache line. It is also the only word the owner and the
	// lease reaper share.
	status atomicx.Padded

	// ops counts the owner's claims on the status word (Enter, BeginMut)
	// and resurrections; every owner return to Out writes
	// pack(phaseOut, ops), so no Out word ever recurs. That is what lets
	// the lease scan read liveness off the status word alone: an Out word
	// it sees twice, a timeout apart, belongs to an owner that claimed
	// nothing in between, and a CAS from that exact word (TryReap) succeeds
	// only if that is still so. Owner-goroutine-only.
	ops uint64

	d       *Domain
	id      uint64
	batch   []alloc.Retired
	pushCnt int
	exec    func([]alloc.Retired) // runs one expired batch
	frees   alloc.Frees           // the default executor's per-pool free batches

	// flushAt is the batch-size watermark that triggers flushAndAdvance
	// (the domain's maxLocalTasks, copied here at registration so the
	// per-Defer check reads a handle-local word instead of chasing the
	// shared Domain). batchCap is the capacity of the next batch
	// allocation: flush hands the whole backing array to the global task
	// set, and the replacement grows geometrically (16, 32, … up to
	// maxLocalTasks) so rarely-retiring handles stay small while busy
	// ones converge to one full-size allocation and zero copies per
	// flush. Both owner-goroutine-only.
	flushAt  int
	batchCap int

	// Cooperative cancellation (core's traversals). The owner arms a fresh
	// token per cancellable operation; a watcher goroutine requests
	// cancellation by presenting the token it saw armed. Tokens make a
	// late watcher from a finished operation harmless: its RequestCancel
	// misses the newly armed token, and at worst its SelfNeutralize costs
	// one spurious rollback. armSeq is owner-goroutine-only.
	cancelArm atomic.Uint64
	cancelReq atomic.Uint64
	armSeq    uint64

	// gen counts resurrections (owner-goroutine-only): a reaped handle
	// whose owner turns out to be alive re-registers and bumps gen, so
	// a traversal knows its checkpointed protections were cleared
	// by the reaper and restarts from scratch.
	gen uint64
	// onResurrect re-registers composed per-scheme state (the HP half,
	// core-domain membership) when a reaped handle resurrects.
	onResurrect func()

	// Observability state, touched only past the obs.On gate. trace is
	// nil-safe; pollN samples the epoch-lag histogram; csStart times the
	// running critical-section attempt. All owner-goroutine-only.
	trace   *obs.Trace
	pollN   uint
	csStart int64
}

// Register adds a thread to the domain with the default executor: free the
// batch, a pool's share at a time, and book it once.
func (d *Domain) Register() *Handle {
	h := &Handle{d: d, id: d.nextID.Add(1), flushAt: d.maxLocalTasks}
	h.batchCap = initialBatchCap
	if h.batchCap > d.maxLocalTasks {
		h.batchCap = d.maxLocalTasks
	}
	h.exec = func(rs []alloc.Retired) {
		h.frees.FreeAll(rs)
		n := int64(len(rs))
		d.rec.Reclaimed.Add(n)
		d.rec.Unreclaimed.Add(-n)
		if obs.On {
			now := obs.Nanos()
			for _, r := range rs {
				if r.At != 0 {
					d.rec.ReclaimAgeNanos.Record(now - r.At)
				}
			}
		}
	}
	if obs.On {
		h.trace = obs.NewTrace("brcu")
	}
	d.handles.Add(h)
	d.population.Add(1)
	return h
}

// SetExecutor replaces the deferred-task executor (two-step retirement
// installs the inner HP-Retire here, Algorithm 4). The executor is handed
// each expired batch whole.
func (h *Handle) SetExecutor(exec func([]alloc.Retired)) { h.exec = exec }

// SetResurrect installs the hook run when a reaped handle's owner turns
// out to be alive and re-registers (internal/core re-adds the HP half and
// the domain membership there). Owner-goroutine-only, set at registration.
func (h *Handle) SetResurrect(fn func()) { h.onResurrect = fn }

// ID returns the handle's sequential id within its domain.
func (h *Handle) ID() uint64 { return h.id }

func phaseName(ph uint64) string {
	switch ph {
	case phaseOut:
		return "Out"
	case phaseInCs:
		return "InCs"
	case phaseInRm:
		return "InRm"
	case phaseRbReq:
		return "RbReq"
	case phaseInMut:
		return "InMut"
	case phaseReaping:
		return "Reaping"
	case phaseReaped:
		return "Reaped"
	}
	return "phase?"
}

// Describe formats the handle's identity and live status — id,
// resurrection generation, phase, and the word's payload: the announced
// epoch, or in Out the operation count — so misuse panics and the
// panic-containment layer produce actionable post-mortems.
func (h *Handle) Describe() string {
	ph, e := unpack(h.status.Load())
	payload := "epoch"
	if ph == phaseOut {
		payload = "ops"
	}
	return fmt.Sprintf("handle#%d gen=%d phase=%s %s=%d", h.id, h.gen, phaseName(ph), payload, e)
}

// Gen returns the handle's resurrection generation. It changes only
// inside Enter (via settle), on the owner goroutine; a traversal compares
// it across Enters to detect a reap-and-resurrect, whose shield clearing
// invalidates checkpointed cursors.
func (h *Handle) Gen() uint64 { return h.gen }

// swap is every owner transition on the status word: one exchange, the
// price of Algorithm 5's stores. A swap that lands on the reaper's Reaping
// or Reaped stores it back before the owner does anything else, and
// reports false; the reaper's closing writes wait that window out
// (closeReap). DESIGN.md §7.2 has the argument.
func (h *Handle) swap(w uint64) bool {
	old := h.status.Swap(w)
	if old&(1<<phaseBits-1) < phaseReaping {
		return true
	}
	h.status.Store(old)
	return false
}

// settle resolves the reaper phase an owner's swap put back: it waits out
// an in-flight adoption and resurrects a reaped handle.
func (h *Handle) settle() {
	for {
		switch ph, _ := unpack(h.status.Load()); ph {
		case phaseReaping:
			// The reap is short and bounded (slice moves and registry
			// copy-on-writes under domain mutexes, no waiting on other
			// owners); wait for FinishReap or CancelReap.
			runtime.Gosched()
		case phaseReaped:
			h.resurrect()
		default:
			return
		}
	}
}

// outWord is the word every owner return to Out writes; see Handle.ops.
func (h *Handle) outWord() uint64 { return pack(phaseOut, h.ops) }

// BeginMut claims the un-reapable InMut phase around an owner-side
// mutation of reaper-adoptable state (the defer batch; in internal/core
// also the HP retired list) performed outside critical sections. It first
// resolves any reaper phase — resurrecting a reaped handle — so after it
// returns a reap can only have happened entirely before the mutation,
// never concurrently with it: the status word is what makes adoption
// race-free.
//
// It reports whether the phase was claimed; false means the handle is
// already un-reapable (leases off, inside a masked region, or an
// enclosing BeginMut). Call EndMut exactly when it returns true.
func (h *Handle) BeginMut() bool {
	if !h.d.leaseOn {
		return false
	}
	ph, _ := unpack(h.status.Load())
	if ph == phaseInRm || ph == phaseInMut {
		return false
	}
	if ph == phaseInCs {
		panic("brcu: BeginMut inside an unmasked critical section (" + h.Describe() + ")")
	}
	h.ops++
	// Out, or a stale RbReq superseded exactly as Exit would have.
	for !h.swap(pack(phaseInMut, 0)) {
		h.settle()
	}
	return true
}

// EndMut leaves the InMut phase: one CAS from the only word it may
// replace (nobody else writes it), so an EndMut without its BeginMut
// leaves every other word alone.
func (h *Handle) EndMut() { h.status.CompareAndSwap(pack(phaseInMut, 0), h.outWord()) }

// resurrect re-registers a reaped handle whose owner turned out to be
// alive. The reaper already adopted the old batch and retired list and
// cleared the shields, so the handle restarts empty; bumping gen tells
// a traversal to discard checkpoints the pre-reap shields protected.
func (h *Handle) resurrect() {
	h.batch = nil
	h.pushCnt = 0
	h.gen++
	d := h.d
	d.handles.Add(h)
	d.population.Add(1)
	if h.onResurrect != nil {
		h.onResurrect()
	}
	// A fresh count: the word the reaper claimed must not stand again.
	h.ops++
	h.status.Store(h.outWord())
}

// Word returns the status word for the lease scan to compare across looks
// and to claim from (TryReap). Any goroutine.
func (h *Handle) Word() uint64 { return h.status.Load() }

// TryReap claims the handle for the reaper: one CAS from word — an Out or
// RbReq word the lease scan saw stand for the whole lease timeout — to
// Reaping. The compare against the exact stale word is the proof that the
// owner has not moved since the scan's first look: no Out word recurs
// (Handle.ops), and every owner transition out of Out or RbReq is an
// atomic exchange on this word, so exactly one side wins. Every other phase is
// refused: a stalled-but-registered critical section is neutralization's
// job, a mutation span is never adoptable, and a reap already under way
// has its own reaper.
func (h *Handle) TryReap(word uint64) bool {
	if ph, _ := unpack(word); ph != phaseOut && ph != phaseRbReq {
		return false
	}
	return h.status.CompareAndSwap(word, pack(phaseReaping, 0))
}

// FinishReap publishes the end of a reap: Reaping → Reaped. An owner
// spinning in settle proceeds to resurrect only after this write, which
// is what makes the whole reap — adoption AND registry removal — atomic
// against resurrection: the reaper must call it only after the victim
// has left every registry, or a resurrecting owner could be stripped
// from them while live.
func (h *Handle) FinishReap() { h.closeReap(pack(phaseReaped, 0)) }

// closeReap is the reaper's closing write, Reaping → w, retried until it
// lands: it fails only while an owner's swap has the word, and a blind
// store there would be undone by the owner's restore. Reaper-only.
func (h *Handle) closeReap(w uint64) {
	for !h.status.CompareAndSwap(pack(phaseReaping, 0), w) {
		runtime.Gosched()
	}
}

// Reaped reports whether the handle is currently in the reaped state:
// the lease reaper confirmed its owner dead, adopted its deferred state
// and removed it from the registries, and no owner has resurrected it
// since. The handle pool polls this from its leak sweep (any goroutine,
// hence the atomic load): a pooled checkout whose handle was reaped is a
// leak the reaper already cleaned up after, so the pool can retire the
// checkout slot without touching the handle.
func (h *Handle) Reaped() bool {
	ph, _ := unpack(h.status.Load())
	return ph == phaseReaped
}

// CancelReap aborts a claimed reap without adopting: Reaping → word, the
// exact word TryReap claimed from. The handle stays registered and its
// owner, if merely slow, continues with its state intact — no
// resurrection, no generation bump. The reaper uses it for victims with
// nothing to adopt, so an idle-but-alive handle is never churned through
// reap/resurrect cycles; restoring the word unchanged keeps it standing
// still for the scan, which parks the victim until it moves. Reaper-only,
// between TryReap and what would have been FinishReap.
func (h *Handle) CancelReap(word uint64) { h.closeReap(word) }

// BatchEmpty reports whether the handle's local defer batch is empty.
// Reaper-only, between TryReap and FinishReap/CancelReap — the
// Reaping phase excludes the owner, which is what makes reading the
// plain slice safe.
func (h *Handle) BatchEmpty() bool { return len(h.batch) == 0 }

// AdoptBatch moves the handle's local deferred batch into the global task
// set, tagged with the current epoch, as if the (dead) owner had flushed
// it. The tag is conservative: the batch executes only after a further
// epoch advance, strictly later than the owner's own flush would have
// allowed, so the §5 safety argument is unchanged. Reaper-only, between
// TryReap and FinishReap; returns the number of adopted tasks.
func (h *Handle) AdoptBatch() int {
	n := len(h.batch)
	if n == 0 {
		h.batch = nil
		return 0
	}
	d := h.d
	var ts int64
	if obs.On {
		ts = obs.Nanos()
	}
	// The backing array moves to the global set wholesale; a resurrected
	// owner starts from a nil batch and can never touch it again.
	b := taggedBatch{epoch: d.epoch.Load(), flushed: ts, tasks: h.batch}
	h.batch = nil
	d.tasksMu.Lock()
	d.tasks = append(d.tasks, b)
	d.tasksMu.Unlock()
	return n
}

// RemoveAll bulk-removes reaped handles from the registry with a single
// copy-on-write publication. The reaper must call it while every handle
// is still in the Reaping phase (before FinishReap), so no owner can
// resurrect — and re-register — concurrently with the removal.
func (d *Domain) RemoveAll(hs []*Handle) {
	if len(hs) == 0 {
		return
	}
	set := make(map[*Handle]bool, len(hs))
	for _, h := range hs {
		set[h] = true
	}
	d.handles.RemoveWhere(func(h *Handle) bool { return set[h] })
	d.population.Add(-int64(len(hs)))
}

// Unregister removes the thread, flushing pending deferred tasks first.
// Unregistering a handle the reaper already adopted resurrects it first
// and then removes it, so the registry and the population gauge stay
// balanced no matter how a reap interleaves.
func (h *Handle) Unregister() {
	if ph, _ := unpack(h.status.Load()); ph == phaseInCs || ph == phaseInRm {
		panic("brcu: unregister inside a critical section (" + h.Describe() + ")")
	}
	// Hold InMut across the flush and the registry removal: a reap can
	// then only land entirely before this point (resolved by BeginMut via
	// resurrection), never concurrently with the teardown — which is what
	// keeps the population gauge from being double-decremented.
	claimed := h.BeginMut()
	if len(h.batch) > 0 {
		h.flush()
	}
	h.d.handles.Remove(h)
	h.d.population.Add(-1)
	if claimed {
		h.EndMut()
	}
}

// Enter begins (or re-begins, after a rollback) a critical section: it
// announces InCs with the current global epoch (Algorithm 5 line 16). Any
// pending RbReq from a previous section is superseded; a reaper phase is
// put back and settled (swap, settle) first.
func (h *Handle) Enter() {
	if obs.On {
		h.csStart = obs.Nanos()
	}
	h.ops++
	for !h.swap(pack(phaseInCs, h.d.epoch.Load())) {
		h.settle()
	}
}

// Poll is the cooperative stand-in for signal delivery: it reports false
// when a neutralization request is pending, in which case the caller must
// roll back — discard everything derived since the last complete
// checkpoint and either Exit or Enter again. It is a single atomic load,
// leases on or off, obs and fault injection on or off, and it inlines into
// the per-node loop (inline_test.go at the repository root holds it to
// that). The reaper phases (≥ RbReq) also demand a rollback: the next
// Enter settles them, resurrecting if the handle was reaped.
func (h *Handle) Poll() bool {
	return h.status.Load()&(1<<phaseBits-1) < phaseRbReq
}

// PollHooks is what an instrumented process hangs on a traversal step's
// poll besides the load: the SitePoll stall and the sampled epoch-lag
// histogram. Only core's step hooks call it, behind their once-per-attempt
// instrumented gate, so Poll itself stays one load.
func (h *Handle) PollHooks() {
	if fault.On {
		fault.Fire(fault.SitePoll)
	}
	if obs.On {
		// Sample the epoch lag every 64th step: frequent enough to see a
		// lagging traversal, cheap enough to leave the obs-on run alone.
		if h.pollN++; h.pollN&63 == 0 {
			if ph, e := unpack(h.status.Load()); ph != phaseOut {
				h.d.rec.PollLag.Record(int64(h.d.epoch.Load()) - int64(e))
			}
		}
	}
}

// SelfNeutralize marks this handle as neutralized, exactly as if a
// reclaimer's signal had landed: CAS InCs/InRm → RbReq at the current
// epoch. The fault-injection layer uses it to force rollbacks at arbitrary
// traversal steps and mid-Mask; it reports whether a request was planted
// (false when the handle is outside a critical section or already
// neutralized). It deliberately does not count in Stats.Signals — it is
// not a reclaimer signal.
func (h *Handle) SelfNeutralize() bool {
	for {
		st := h.status.Load()
		ph, e := unpack(st)
		if ph != phaseInCs && ph != phaseInRm {
			return false
		}
		if h.status.CompareAndSwap(st, pack(phaseRbReq, e)) {
			return true
		}
	}
}

// Refresh re-announces the current global epoch without leaving the
// critical section, provided no rollback is pending. It returns false if
// the thread has been neutralized (the caller must roll back). A traversal
// calls this after each completed checkpoint so that a long traversal
// never lags the epoch by more than one checkpoint interval.
func (h *Handle) Refresh() bool {
	st := h.status.Load()
	ph, _ := unpack(st)
	if ph != phaseInCs {
		// RbReq or a reaper phase: the caller must roll back (and Enter,
		// which settles the reaper phases).
		return false
	}
	e := h.d.epoch.Load()
	// CAS so a concurrent neutralization is never overwritten.
	return h.status.CompareAndSwap(st, pack(phaseInCs, e))
}

// Exit ends the critical section (Algorithm 5 line 18). A pending RbReq is
// discarded: per the framework contract the caller has already validated
// its results with a successful Poll after its last protection, so
// completing instead of rolling back is safe (see package comment). A
// reaper phase (the reaper may claim a long-neutralized section) is put
// back for the next Enter to settle.
func (h *Handle) Exit() {
	h.swap(h.outWord())
	if obs.On && h.csStart != 0 {
		h.d.rec.CSNanos.Record(obs.Nanos() - h.csStart)
		h.csStart = 0
	}
}

// RecordRollback counts one critical-section rollback.
func (h *Handle) RecordRollback() {
	h.d.rec.Rollbacks.Inc()
	if obs.On {
		h.trace.Rec(obs.EvRollback, 0)
	}
}

// CriticalSection runs body as a boundable critical section (Algorithm 5
// line 14). The body must poll via Poll and return false to roll back; it
// is then re-run from the start with a fresh epoch, mirroring the paper's
// siglongjmp to the checkpoint at line 15. The body must be
// abort-rollback-safe (§4.1) apart from writes wrapped in Mask.
func (h *Handle) CriticalSection(body func() bool) {
	for {
		h.Enter()
		done := body()
		h.Exit()
		if done {
			return
		}
		h.RecordRollback()
	}
}

// Mask runs body as an abort-masked region (Algorithm 6): body must be
// rollback-safe, and a neutralization arriving while it runs is deferred to
// the region's end. The return values are:
//
//	ran          — whether body was executed;
//	mustRollback — whether the caller must roll back now (before body when
//	               ran is false, after it completed when ran is true).
//
// Entry is a CAS InCs→InRm so that a neutralization that already landed
// prevents the masked writes; exit is a CAS InRm→InCs that loses exactly
// when a neutralization landed mid-region (the paper's race between Mask
// and SignalHandler, resolved the same way).
func (h *Handle) Mask(body func()) (ran, mustRollback bool) {
	if fault.On {
		fault.Fire(fault.SiteMaskEnter)
	}
	st := h.status.Load()
	ph, e := unpack(st)
	if ph != phaseInCs {
		if ph >= phaseRbReq {
			// Neutralized (or claimed by the reaper): roll back before
			// any masked write; Enter settles the phase.
			return false, true
		}
		panic("brcu: Mask outside a critical section (" + h.Describe() + ")")
	}
	if !h.status.CompareAndSwap(st, pack(phaseInRm, e)) {
		// Lost to a neutralizer: roll back before any masked write.
		return false, true
	}
	h.runMasked(body, e)
	if fault.On {
		fault.Fire(fault.SiteMaskExit)
		if fault.Fire(fault.SiteMaskAbort) {
			h.SelfNeutralize()
		}
	}
	if !h.status.CompareAndSwap(pack(phaseInRm, e), pack(phaseInCs, e)) {
		// Neutralized during the region: the writes stand (they are
		// rollback-safe and complete); control rolls back now.
		if obs.On {
			h.trace.Rec(obs.EvMaskDefer, int64(e))
		}
		return true, true
	}
	return true, false
}

// runMasked runs the masked body behind a recover barrier. A panic that
// escapes it (user code, or SitePanic standing in for one) unwinds the
// region before continuing to the outer barrier (core's Walk): restore
// InRm→InCs so the abort path sees the section in its normal state — a
// lost CAS means a neutralization landed mid-region and the standing
// RbReq is already what the abort path expects.
func (h *Handle) runMasked(body func(), e uint64) {
	defer func() {
		if r := recover(); r != nil {
			h.status.CompareAndSwap(pack(phaseInRm, e), pack(phaseInCs, e))
			panic(r)
		}
	}()
	if fault.On && fault.Fire(fault.SitePanic) {
		// Inside the region but before any masked write: aborting here
		// leaks nothing.
		panic(fault.ErrInjectedPanic)
	}
	body()
}

// ForceOut drives the handle out of whatever phase a panic left it in,
// restoring the Out state the next operation expects. Owner-side only —
// it is the recover barrier's stand-in for the Exit (or Enter-and-settle)
// the unwound control flow never performed. The reaper's phases are
// settled exactly as Enter would: an in-flight adoption waited out, a
// reaped handle resurrected.
func (h *Handle) ForceOut() {
	// InCs, InRm, RbReq or InMut: abandon the section or mutation span.
	for !h.swap(h.outWord()) {
		h.settle()
	}
}

// --- Cooperative cancellation (core's traversals) -----------------------

// ArmCancel installs a fresh cancellation token for the operation about
// to run and returns it. Owner-side; pair with DisarmCancel.
func (h *Handle) ArmCancel() uint64 {
	h.armSeq++
	tok := h.armSeq
	h.cancelReq.Store(0)
	h.cancelArm.Store(tok)
	return tok
}

// DisarmCancel retires the current token after the operation returns.
// A watcher racing with it can at worst leave a stale cancelReq behind,
// which no future token ever matches.
func (h *Handle) DisarmCancel() {
	h.cancelArm.Store(0)
	h.cancelReq.Store(0)
}

// RequestCancel asks the owner to abandon the operation that armed tok.
// Watcher-side (any goroutine). If the token is still armed it plants the
// request and self-neutralizes the owner's live critical section, so the
// owner reaches its next cancel check within one poll interval instead of
// finishing the traversal first.
func (h *Handle) RequestCancel(tok uint64) {
	if tok == 0 || h.cancelArm.Load() != tok {
		return
	}
	h.cancelReq.Store(tok)
	h.SelfNeutralize()
}

// CancelPending reports whether RequestCancel has fired for tok.
// Owner-side, checked at rollback boundaries.
func (h *Handle) CancelPending(tok uint64) bool {
	return tok != 0 && h.cancelReq.Load() == tok
}

// TraceEvent records an event on this handle's obs trace (no-op unless
// the observability layer is active; nil-safe). The lifecycle layer in
// internal/core uses it for panic, cancel and close events.
func (h *Handle) TraceEvent(k obs.EventKind, arg int64) {
	if obs.On {
		h.trace.Rec(k, arg)
	}
}

// Defer schedules a task for execution after all current critical sections
// end (Algorithm 5 lines 22–34). Defer itself is rollback-unsafe and must
// be called outside critical sections or inside a masked region.
//
// Lines 22–25 are DeferNoCount (push to the local batch; return unless it
// is full); lines 26–34 are flushAndAdvance: push the batch to the global
// task set, try to advance the epoch — neutralizing laggards once this
// thread's failure budget (ForceThreshold) is spent — and run what expired.
func (h *Handle) Defer(slot uint64, pool alloc.Freer) {
	h.d.rec.Retired.Inc()
	h.d.rec.Unreclaimed.Add(1)
	h.DeferNoCount(slot, pool)
}

// DeferNoCount is Defer without the Retired/Unreclaimed accounting; the
// two-step retirement of HP-RCU and HP-BRCU counts a node once at the outer
// Retire (internal/core) and uses this entry point for the inner defer.
func (h *Handle) DeferNoCount(slot uint64, pool alloc.Freer) {
	// Defer is rollback-unsafe (§4.1): inside a critical section it may
	// only run under an abort mask, where the rollback is deferred past
	// it. Catch the misuse that would otherwise corrupt the task
	// registry on a rollback.
	if ph, _ := unpack(h.status.Load()); ph == phaseInCs {
		panic("brcu: Defer inside an unmasked critical section (rollback-unsafe, §4.1; " + h.Describe() + ")")
	}
	// Hold the un-reapable InMut phase across the batch mutation: a reap
	// can then only land before or after it, never while the append/flush
	// is in flight. No-op inside a masked region or an
	// enclosing BeginMut, where the reaper already cannot touch us.
	claimed := h.BeginMut()
	r := alloc.Retired{Slot: slot, Pool: pool}
	if obs.On {
		r.At = obs.Nanos()
	}
	if h.batch == nil {
		// The previous flush handed its backing array to the global task
		// set; start a fresh one at the current rung of the geometric
		// capacity ladder (see batchCap).
		h.batch = make([]alloc.Retired, 0, max(h.batchCap, 1))
	}
	h.batch = append(h.batch, r)
	if len(h.batch) >= h.flushAt {
		h.flushAndAdvance()
	}
	if claimed {
		h.EndMut()
	}
}

// flush moves the local batch to the global task set tagged with the
// current global epoch (line 26). An empty batch is not enqueued: it
// would free nothing when it expires, yet every push of Barrier's forced
// rounds after the first would append one to the task set under its lock.
func (h *Handle) flush() {
	if len(h.batch) == 0 {
		return
	}
	d := h.d
	e := d.epoch.Load()
	// Hand the backing array to the global task set wholesale instead of
	// copying it out — the drain drops it when the batch expires. The next
	// Defer allocates the replacement one rung up the geometric ladder, so
	// a steadily retiring handle pays one allocation and zero copies per
	// flush where it used to pay both.
	tasks := h.batch
	h.batch = nil
	if h.batchCap < h.flushAt {
		h.batchCap *= 2
		if h.batchCap > h.flushAt {
			h.batchCap = h.flushAt
		}
	}

	var ts int64
	if obs.On {
		ts = obs.Nanos()
	}
	d.tasksMu.Lock()
	d.tasks = append(d.tasks, taggedBatch{epoch: e, flushed: ts, tasks: tasks})
	d.tasksMu.Unlock()
}

// flushAndAdvance is Algorithm 5 lines 26–34: push the batch, count the
// push, scan the participants (give up on a laggard below ForceThreshold,
// signal it at the budget), advance the epoch, run what expired.
func (h *Handle) flushAndAdvance() {
	d := h.d
	eg := d.epoch.Load()
	h.flush() // line 26
	h.pushCnt++
	if fault.On && fault.Fire(fault.SiteAdvanceStorm) {
		h.pushCnt = d.forceThreshold // storm: this advance signals every laggard
	}

	// Our own section blocks the epoch like anyone else's, and we never
	// signal ourselves: a Defer inside an abort-masked region that advanced
	// past its own lagging epoch would free nodes this very section still
	// protects. Give up until the section exits.
	if ph, e := unpack(h.status.Load()); (ph == phaseInCs || ph == phaseInRm) && e < eg {
		return
	}

	forced := false
	for _, other := range d.handles.Snapshot() { // lines 28–32
		if other == h {
			continue
		}
		ok, signalled := h.neutralizeIfLagging(other, eg)
		if !ok {
			return // a laggard, and budget left (line 31)
		}
		forced = forced || signalled
	}
	h.pushCnt = 0
	if d.epoch.CompareAndSwap(eg, eg+1) { // line 33
		d.rec.EpochAdvances.Inc()
		kind := obs.EvEpochAdvance
		if forced {
			d.rec.ForcedAdvances.Inc()
			kind = obs.EvForcedAdvance
		}
		if obs.On {
			h.trace.Rec(kind, int64(eg+1))
		}
	}
	h.executeExpired(eg) // line 34
}

// neutralizeIfLagging checks other against the epoch eg. It returns
// ok=false when other is lagging but this thread's failure budget is below
// ForceThreshold, or the domain never signals (the caller gives up
// advancing). Otherwise it neutralizes other if needed and reports whether
// a signal was sent.
//
// The whole verdict costs one atomic load: phase and announced epoch share
// a packed word, and the phase comparison short-circuits first, so
// Out/Reaped (and every other non-blocking phase) are skipped without a
// separate epoch-word access.
func (h *Handle) neutralizeIfLagging(other *Handle, eg uint64) (ok, signalled bool) {
	d := h.d
	for {
		st := other.status.Load()
		ph, eo := unpack(st)
		// Only live critical sections block the epoch; RbReq threads are
		// already doomed, Out threads are absent (line 30), and the
		// reaper phases (≥ RbReq) have no live section either.
		if ph == phaseOut || ph >= phaseRbReq || eo >= eg {
			return true, false
		}
		if h.pushCnt < d.forceThreshold || d.neverSignal {
			return false, false
		}
		// SendSignal (line 32): the CAS is the delivery point. InRm
		// victims finish their masked region first (Algorithm 6).
		if other.status.CompareAndSwap(st, pack(phaseRbReq, eo)) {
			d.rec.Signals.Inc()
			if obs.On {
				h.trace.Rec(obs.EvSignal, int64(eo))
			}
			return true, true
		}
		// The victim moved (exited, refreshed, masked); re-evaluate.
	}
}

// executeExpired runs every globally queued task tagged eg-1 or older
// (line 34): all live critical sections are now at epoch ≥ eg, so they
// began after those nodes were unlinked.
func (h *Handle) executeExpired(eg uint64) {
	if eg == 0 {
		return
	}
	if fault.On && fault.Fire(fault.SiteDrainSkip) {
		// Delayed drain: the expired batches stay queued until the next
		// advance (the plan's cooldown keeps skips non-consecutive, so
		// at most one extra epoch of batches accumulates).
		return
	}
	limit := eg - 1
	d := h.d

	d.tasksMu.Lock()
	var run []taggedBatch
	kept := d.tasks[:0] // in-place filter
	for _, b := range d.tasks {
		if b.epoch <= limit {
			run = append(run, b)
		} else {
			kept = append(kept, b)
		}
	}
	// Drop the moved-out tail: an expired batch left in the spare capacity
	// would keep its backing array reachable for as long as the domain idles.
	clear(d.tasks[len(kept):])
	d.tasks = kept
	d.tasksMu.Unlock()

	var now int64
	if obs.On && len(run) > 0 {
		now = obs.Nanos()
	}
	tasks := 0
	for _, b := range run {
		tasks += len(b.tasks)
		if now != 0 && b.flushed != 0 {
			d.rec.GraceNanos.Record(now - b.flushed)
		}
		h.exec(b.tasks)
	}
	if obs.On && tasks > 0 {
		h.trace.Rec(obs.EvDrain, int64(tasks))
	}
}

// Barrier flushes this handle's pending tasks and forces epoch advances
// until they have executed. Used by teardown paths and tests; concurrent
// critical sections will be neutralized, unless the domain never signals
// (NeverSignal), where a lagging section keeps its batches queued.
func (h *Handle) Barrier() {
	// Hold InMut across the forced flushes (see DeferNoCount); no-op when
	// an enclosing BeginMut — e.g. internal/core's composed Barrier —
	// already claimed it.
	claimed := h.BeginMut()
	for i := 0; i < 4; i++ {
		h.ForceFlush()
	}
	if claimed {
		h.EndMut()
	}
}

// ForceFlush performs one forced flush-and-advance round: the batch is
// pushed regardless of size and the advance signals laggards immediately.
// The emergency-drain tier of the backpressure ladder calls this from the
// retire path (internal/core).
func (h *Handle) ForceFlush() {
	h.pushCnt = h.d.forceThreshold // the budget is spent: signal at once
	h.flushAndAdvance()
}
