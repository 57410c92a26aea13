// Package brcu implements Bounded RCU (Algorithm 5 of the paper) together
// with abort-masking (Algorithm 6): an epoch-based RCU whose critical
// sections are forcibly bounded. A reclaimer that fails to advance the
// global epoch ForceThreshold times in a row neutralizes exactly the
// lagging threads, forcing them to roll their critical sections back to the
// beginning, and then advances the epoch anyway. The advance is written
// once, flushAndAdvance, as Algorithm 5 lines 26–34. Every push a live
// handle makes to the global task set goes through it and is counted
// against the budget, which is what the §5 bound rests on; only a leaving
// handle's last batch (Unregister, Adopt) is pushed outside it, once per
// handle. ForceFlush runs the same lines at an exhausted budget (teardown,
// backpressure, the domain's close drain). A
// domain built with NeverSignal skips lines 31–32 and is plain RCU: the
// one RCU in the repository, under internal/core's HP-RCU and under the
// RCU and NR baselines of the data structures, which enter and leave
// their sections with Enter and Exit and retire with Defer; NoReclaim
// makes such a domain the NR baseline.
//
// # Signal substitution
//
// The paper delivers neutralization with POSIX signals (pthread_kill +
// siglongjmp). Go's runtime owns signal handling, and a non-local jump
// across a goroutine's stack is unsound under the garbage collector, so
// this implementation substitutes *cooperative neutralization*:
//
//   - a thread's state lives in one packed status word {phase, epoch}:
//     the phase and, inside a section, the epoch it announced;
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
)

const phaseBits = 2

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
	// every laggard (see NeverSignal). noReclaim makes Defer count and
	// leak (see NoReclaim). Both set at construction, read-only after.
	neverSignal bool
	noReclaim   bool

	// population tracks registered handles and their peak, so the §5
	// bound can be evaluated after the fact with the N actually observed.
	population stats.Gauge

	// nextID hands out sequential handle ids, carried into misuse panics
	// and post-mortem traces.
	nextID atomic.Uint64

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
// domain; a section still rolls back when fault injection neutralizes it.
func NeverSignal() Option {
	return func(d *Domain) { d.neverSignal = true }
}

// NoReclaim turns the domain into the paper's NR baseline: Defer counts
// the node as retired but never frees it, so it is never reused.
// DeferNoCount, core's entry, ignores it.
func NoReclaim() Option {
	return func(d *Domain) { d.noReclaim = true }
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

// EnableLeases does nothing. Handles are adopted when the garbage
// collector proves their owner gone (internal/core, DESIGN.md §7), which
// needs no per-domain mode; the method stays so that callers written
// against the lease reaper still compile.
func (d *Domain) EnableLeases() {}

// Handle is one thread's participation record (Algorithm 5 lines 8-13).
// Not safe for concurrent use by multiple goroutines; the status word is
// read and CASed by reclaimers.
type Handle struct {
	// status is the packed {phase, epoch} word — the single most
	// contended word in the scheme (stored by the owner at every
	// Enter/Exit, read and CASed by every advancing reclaimer), so it
	// owns its cache line.
	status atomicx.Padded

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

	// Observability state, touched only past the obs.On gate. trace is
	// nil-safe; pollN samples the epoch-lag histogram. Both
	// owner-goroutine-only.
	trace *obs.Trace
	pollN uint

	// _ keeps Handle (200 bytes) out of the allocator's 192-byte size
	// class. At 192 bytes BenchmarkPointGet/RCU read 75.6 ns against
	// 64.0 and PointChurn/RCU 125 against 105 (medians of 10 alternated
	// pairs, slower in 10/10; 2 vCPU, go1.24.0) with identical inlining,
	// while 208 bytes, the class 200 lands in, measured like 200. Why the
	// class matters is open (ROADMAP item 10(d)).
	_ int64
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
	}
	return "phase?"
}

// Describe formats the handle's identity and live status — id, phase and
// announced epoch — so misuse panics and the panic-containment layer
// produce actionable post-mortems.
func (h *Handle) Describe() string {
	ph, e := unpack(h.status.Load())
	return fmt.Sprintf("handle#%d phase=%s epoch=%d", h.id, phaseName(ph), e)
}

// Unregister removes the thread, flushing pending deferred tasks first.
func (h *Handle) Unregister() {
	if ph, _ := unpack(h.status.Load()); ph == phaseInCs || ph == phaseInRm {
		panic("brcu: unregister inside a critical section (" + h.Describe() + ")")
	}
	h.leave()
}

// Adopt is Unregister for a handle whose owner is gone, called from
// internal/core once the garbage collector has proved that no goroutine
// can reach the handle again. A section the owner never left — a goroutine
// that exited inside it — is forced Out first: nothing will ever read
// through it. The batch then joins the global task set tagged with the
// current epoch, exactly as the owner's own flush would have, and the
// handle leaves the registry. It returns the number of adopted tasks.
func (h *Handle) Adopt() int {
	n := len(h.batch)
	h.Exit()
	h.leave()
	return n
}

// leave pushes the handle's last batch and takes it out of the domain.
func (h *Handle) leave() {
	h.flush()
	h.d.handles.Remove(h)
	h.d.population.Add(-1)
}

// Enter begins (or re-begins, after a rollback) a critical section: it
// announces InCs with the current global epoch (Algorithm 5 line 16). Any
// pending RbReq from a previous section is superseded. Two loads and a
// store, it inlines into every caller.
func (h *Handle) Enter() { h.status.Store(pack(phaseInCs, h.d.epoch.Load())) }

// Poll is the cooperative stand-in for signal delivery: it reports false
// when a neutralization request is pending, in which case the caller must
// roll back — discard everything derived since the last complete
// checkpoint and either Exit or Enter again. It is a single atomic load,
// obs and fault injection on or off, and it inlines into the per-node loop
// (inline_test.go at the repository root holds it to that).
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
		return false // RbReq: the caller must roll back
	}
	e := h.d.epoch.Load()
	// CAS so a concurrent neutralization is never overwritten.
	return h.status.CompareAndSwap(st, pack(phaseInCs, e))
}

// Exit ends the critical section (Algorithm 5 line 18) from whatever
// phase the handle is in; an Out word carries no epoch. A pending RbReq is
// discarded: per the framework contract the caller has already validated
// its results with a successful Poll after its last protection, so
// completing instead of rolling back is safe (see package comment). The
// recover barrier in internal/core calls it for the Exit a panic unwound
// past, and Adopt for the one a dead owner never performed.
func (h *Handle) Exit() { h.status.Store(phaseOut) }

// RecordRollback counts one critical-section rollback.
func (h *Handle) RecordRollback() {
	h.d.rec.Rollbacks.Inc()
	if obs.On {
		h.trace.Rec(obs.EvRollback, 0)
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
		if ph == phaseRbReq {
			// Neutralized: roll back before any masked write.
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

// TraceEvent records an event on this handle's obs trace (no-op unless
// the observability layer is active; nil-safe). The lifecycle layer in
// internal/core uses it for panic and close events.
func (h *Handle) TraceEvent(k obs.EventKind, arg int64) {
	if obs.On {
		h.trace.Rec(k, arg)
	}
}

// Defer schedules a task for execution after all current critical sections
// end (Algorithm 5 lines 22–34) and counts the node as retired. Only the
// RCU and NR baselines call it, from inside sections entered with Enter on
// a NeverSignal domain: such a section is never rolled back, so nothing
// can replay the defer. On a NoReclaim domain it counts and leaks.
//
// Lines 22–25 push to the local batch and return unless it is full; lines
// 26–34 are flushAndAdvance: push the batch to the global task set, try
// to advance the epoch — neutralizing laggards once this thread's failure
// budget (ForceThreshold) is spent — and run what expired.
func (h *Handle) Defer(slot uint64, pool alloc.Freer) { h.push(slot, pool, true) }

// DeferNoCount is Defer without the Retired/Unreclaimed accounting; the
// two-step retirement of HP-RCU and HP-BRCU counts a node once at the outer
// Retire (internal/core) and uses this entry point for the inner defer.
// It is the one defer a rollback could replay, so inside a critical
// section it may only run under an abort mask (§4.1), and it panics when
// called in an unmasked section.
func (h *Handle) DeferNoCount(slot uint64, pool alloc.Freer) { h.push(slot, pool, false) }

// push is both entries' body, one out-of-line call under either of them;
// counted tells Defer from DeferNoCount.
func (h *Handle) push(slot uint64, pool alloc.Freer, counted bool) {
	if counted {
		h.d.rec.Retired.Inc()
		h.d.rec.Unreclaimed.Add(1)
		if h.d.noReclaim {
			return // NR baseline: leak
		}
	} else if ph, _ := unpack(h.status.Load()); ph == phaseInCs {
		// Catch the misuse that would otherwise corrupt the task registry
		// on a rollback.
		panic("brcu: DeferNoCount inside an unmasked critical section (rollback-unsafe, §4.1; " + h.Describe() + ")")
	}
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
	// signal ourselves: a defer inside an abort-masked region or a
	// baseline's pinned section that advanced past its own lagging epoch
	// would free nodes this very section still protects. Give up until
	// the section exits.
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
// a packed word, and the phase comparison short-circuits first, so Out and
// RbReq are skipped without a separate epoch-word access.
func (h *Handle) neutralizeIfLagging(other *Handle, eg uint64) (ok, signalled bool) {
	d := h.d
	for {
		st := other.status.Load()
		ph, eo := unpack(st)
		// Only live critical sections block the epoch; RbReq threads are
		// already doomed and Out threads are absent (line 30).
		if ph == phaseOut || ph == phaseRbReq || eo >= eg {
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
	for i := 0; i < 4; i++ {
		h.ForceFlush()
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
