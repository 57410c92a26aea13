package core

import (
	"context"

	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/obs"
)

// This file implements the expedited traversal (Algorithm 7) as Walk: the
// §4.3 double buffer, rollback and resume, written once — HP-RCU's domain
// is HP-BRCU's built never to signal, so its walk is this one, and only its
// own cancellation and fault injection ever roll it back — and called from
// a per-node loop the data structure owns, so the node visit compiles into
// that loop as it does under EBR or NBR. The paper's Traverse is a Walk
// plus the owner's loop; internal/ds/hlist/expedited.go has the shape
// (walkSearch, walkContains), and the skip list's and the tree's descents are
// the same loop. A point read and a list find try first without a Walk
// (Attempt): RCU's loop with a poll per node, handed to a Walk only if it
// leaves its first section.

// Protector publishes HP protection for every node of a cursor (the
// paper's Protector trait). Implementations write each cursor pointer into
// a dedicated shield; they must tolerate repeated calls.
type Protector[C any] interface {
	Protect(c *C)
}

// CursorBuf is handle-owned cursor storage for a Walk: the cursor slot plus
// the two checkpoint buffers of the double-buffering scheme (§4.3). They
// are not locals of the traversal because a cursor whose address is passed
// through the Protector interface escapes to the heap — at roughly two
// heap allocations per operation, cursors were ~99% of the allocator
// traffic the GC-pressure columns measure. Handles embed one CursorBuf per
// cursor type instead, so a traversal performs zero allocations.
//
// A CursorBuf is owned by the handle's goroutine and must not be shared:
// two concurrent traversals through one buffer would tear each other's
// checkpoints. Reusing it across consecutive operations on the same
// handle is the intended pattern — a Walk writes the cursor slot (and the
// checkpoints it commits) before reading them.
type CursorBuf[C any] struct {
	cur  C
	ckpt [2]C
}

// Walk is one expedited traversal's state, between the loop that visits
// nodes — which the data structure owns — and the double-buffered
// checkpoints, which live only here. The owner declares a zero Walk, calls
// Bind and Start, defers Guard, Adopts the traversal's first attempt if
// there was one, and loops `for w.Enter(init, valid)` over critical-section
// attempts; inside, its per-node loop keeps the cursor in locals, breaks
// out when Poll fails, stores the cursor and calls Checkpoint when Due, and
// leaves through Finish at its destination or Fail on a lost helping CAS
// (hlist's walkSearch is the whole shape). A step then costs the protocol's
// own work: Poll's one load, the visit, Due's countdown.
//
// prot and backup are the double buffer (§4.3): at every instant one of
// them holds a complete protected cursor, because Checkpoint and Finish
// protect into the buffer that is *not* the complete one, and only a poll
// that succeeds after that protection was published makes it the complete
// one. A walk therefore resumes after a neutralization that lands in the
// middle of checkpointing — under HP-BRCU a reclaimer's signal, under both
// schemes the walk's own cancellation or an injected fault. There is no
// checkpoint of the entry cursor: before the first periodic one completes,
// a neutralized walk starts over from init (Enter).
// A Walk lives on its owner's stack and allocates nothing.
type Walk[C any] struct {
	h     *Handle
	b     *brcu.Handle // h's BRCU half, held here so Poll is one load off the owner's stack
	buf   *CursorBuf[C]
	prots [2]Protector[C] // {backup, prot}; prots[compIdx%2] holds the complete checkpoint

	ctx  context.Context // nil: not cancellable
	stop func() bool     // stops the cancellation watcher
	tok  uint64          // cancellation token
	err  error

	gen     uint64 // reap generation the checkpoints were taken under
	compIdx int
	haveCkp bool // does buf.ckpt[compIdx%2] hold a complete checkpoint?
	entered bool
	adopted bool // Enter continues an adopted attempt's live section
	over    bool // a checkpoint failed its revalidation: the walk is done
	hooks   bool
	left    int // steps until the next periodic checkpoint
	yc      int
}

// Bind points a zero Walk at a handle, its cursor storage and its
// protectors, and arms the first attempt; a non-nil ctx makes it
// cancellable (see Start). It only stores, so that it inlines and the
// stores land in the owner's frame: through a pointer the compiler cannot
// see to be a stack address every pointer field would cost a write
// barrier, and returned as a struct value the walk would be copied into
// place — either was a tenth of a two-hop Get.
func (w *Walk[C]) Bind(ctx context.Context, h *Handle, buf *CursorBuf[C], prot, backup Protector[C]) {
	w.h, w.b, w.buf, w.ctx = h, h.brcu, buf, ctx
	w.prots[0], w.prots[1] = backup, prot
	w.left, w.hooks = h.d.backupPeriod, hooksArmed()
}

// Start opens the walk: it refuses a poisoned handle and arms
// cancellation, if a context is bound. When that context is done the
// walk's critical section is self-neutralized — the paper's signal
// repurposed as a request timeout — and the next Enter ends the walk with
// the context's error, the cursor rolled back to its last complete
// checkpoint and nothing committed. That holds under both schemes: an
// HP-RCU section is never signalled, but it neutralizes itself like any
// other. A context already done ends the walk before it touches any
// shared state.
func (w *Walk[C]) Start() {
	if w.ctx != nil || w.h.poisoned != nil {
		w.start()
	}
}

func (w *Walk[C]) start() {
	if w.ctx != nil {
		if w.err = w.ctx.Err(); w.err != nil {
			return
		}
	}
	w.h.checkUsable()
	if w.ctx != nil {
		b, tok := w.b, w.b.ArmCancel()
		w.tok = tok
		w.stop = context.AfterFunc(w.ctx, func() { b.RequestCancel(tok) })
	}
}

// Guard is the walk's recover barrier; the function that owns the loop
// defers it right after Start. A panic that escaped user code (init, valid,
// a masked body, the loop itself) drives the handle through the normal
// abort path and is re-raised per the panic policy: contain never returns.
func (w *Walk[C]) Guard() {
	if w.stop != nil {
		w.stop()
		w.b.DisarmCancel()
	}
	if r := recover(); r != nil {
		w.h.contain(r, "traversal", func() {
			clearProtection(w.prots[0])
			clearProtection(w.prots[1])
		})
	}
}

// Cursor is the walk's cursor slot: Enter leaves the cursor to continue
// from in it, and Checkpoint and Finish protect what the owner stored
// there.
func (w *Walk[C]) Cursor() *C { return &w.buf.cur }

// Err is nil unless the walk ended because its context was done.
func (w *Walk[C]) Err() error { return w.err }

// Enter opens the next critical-section attempt and reports whether there
// is one: false means the walk is over — cancelled (Err says so), or
// holding a checkpoint that no longer validates, in which case the
// operation restarts from scratch. Every Enter after the first follows a
// rollback and is accounted as one, unless the walk is already over.
//
// init builds the entry cursor inside the critical section (it may run
// many times); valid checks that a checkpointed cursor can still be
// resumed from — typically that its source node is not logically deleted
// (§3.3). They are arguments here and to Checkpoint, not fields: a func
// stored in the walk would escape, and every operation would allocate its
// closures. The first attempt of a walk without a context has no
// checkpoint, rollback or cancel to honour, so only later ones reenter.
func (w *Walk[C]) Enter(init func() C, valid func(*C) bool) bool {
	if w.entered || w.ctx != nil {
		return w.reenter(init, valid)
	}
	w.entered = true
	w.b.Enter()
	w.gen = w.b.Gen()
	// Build the entry cursor (lines 11-12) and nothing else. Protecting,
	// polling and copying it would buy a checkpoint that resumes to
	// exactly where init starts; until commit completes the first one,
	// the section itself protects the cursor and a rollback re-runs init.
	w.buf.cur = init()
	return true
}

func (w *Walk[C]) reenter(init func() C, valid func(*C) bool) bool {
	if w.adopted {
		w.adopted = false
		return true
	}
	if w.err != nil || w.over {
		return false
	}
	c := &w.buf.cur
	w.left, w.yc = w.h.d.backupPeriod, 0
	// Decided once per attempt, so the loop tests a local: arming a fault
	// plan or obs mid-traversal is picked up by the next attempt.
	w.hooks = hooksArmed()
	if w.entered {
		w.b.RecordRollback()
	}
	w.entered = true
	if w.b.CancelPending(w.tok) {
		// Our watcher self-neutralized the section (or we are about
		// to start one the caller no longer wants). Exit clears the
		// stale RbReq; the cursor stays rolled back at the last
		// complete checkpoint, still protected by its buffer.
		w.b.Exit()
		w.cancel()
		return false
	}
	// Re-enter with a fresh epoch (the paper's siglongjmp target,
	// Algorithm 7 line 15).
	w.b.Enter()
	if g := w.b.Gen(); g != w.gen {
		// The lease reaper reaped this handle between attempts and
		// Enter resurrected it: the shields backing both checkpoint
		// buffers were cleared, so the checkpoints are no longer
		// protected. Restart from scratch.
		w.gen, w.haveCkp = g, false
	}
	if w.haveCkp {
		// Resume from the last complete checkpoint. It was inherited
		// from an earlier section, so it must be revalidated (line 17,
		// §3.3); failure aborts the whole operation. A cursor created
		// in THIS section (below) needs no validation (R2), and
		// validating it would be worse than wasteful: if the entry
		// point's first node is logically deleted, rejecting the fresh
		// cursor would keep every traversal from ever reaching (and
		// helping unlink) it, livelocking the structure.
		*c = w.buf.ckpt[w.compIdx%2]
		if !valid(c) {
			w.b.Exit()
			return false
		}
		return true
	}
	// A rollback from before any checkpoint completed: start over.
	*c = init()
	return true
}

// Instrumented reports whether this attempt's steps must run StepHooks (a
// yield period, a fault plan or the obs layer is active); the loop keeps it
// in a local and branches on that.
func (w *Walk[C]) Instrumented() bool { return w.hooks }

// StepHooks is everything a step carries that is not the protocol: the
// single-CPU yield harness, the fault sites that force a rollback or a
// panic at an arbitrary step (the poll or the recover barrier then takes
// it from there), and the BRCU half's own poll hooks.
func (w *Walk[C]) StepHooks() {
	atomicx.StepYield(&w.yc)
	if fault.On {
		if fault.Fire(fault.SiteStepRollback) {
			w.b.SelfNeutralize()
		}
		if fault.Fire(fault.SitePanic) {
			// Stands in for a panic in the owner's step, before any mutation.
			panic(fault.ErrInjectedPanic)
		}
	}
	w.b.PollHooks()
	if StepHook != nil {
		StepHook(w.b)
	}
}

// StepHook is a test seam: set while no walk runs, it runs last in every
// StepHooks, just before the step's poll, to stage an interleaving there.
var StepHook func(*brcu.Handle)

// hooksArmed reports whether a step must run StepHooks: a yield period, a
// fault plan or the obs layer is active.
func hooksArmed() bool { return atomicx.YieldPeriod != 0 || fault.On || obs.On }

// Poll is the step's neutralization check — one load of the status word.
// False means roll back: leave the loop for Enter.
func (w *Walk[C]) Poll() bool { return w.b.Poll() }

// Due counts one completed step and reports whether a periodic checkpoint
// falls on it, in which case the owner stores its cursor and calls
// Checkpoint.
func (w *Walk[C]) Due() bool {
	w.left--
	return w.left == 0
}

// Checkpoint makes the cursor the new complete checkpoint and catches up
// with the global epoch, so the traversal stops blocking reclamation (the
// end of one of Algorithm 3's RCU phases). It reports false when the
// attempt is over — neutralized at the checkpoint, or the cursor no longer
// valid after the re-announce: leave the loop for Enter, which resumes
// from the checkpoint in the first case and ends the walk in the second.
//
// A checkpoint is only useful if the cursor would pass revalidation on
// resume (e.g. it is not sitting on a logically deleted node); otherwise
// it is postponed by a full period. Without this gate a deterministic
// traversal can livelock: every retry re-checkpoints the same doomed cursor
// and fails validation again.
//
// The cursor is validated again after the re-announce (§3.3, R1): one
// marked in between keeps a frozen link to a node that may have been
// retired before the re-announce, whose grace period the new epoch no
// longer holds back. Stepping on from it is not safe, and resuming from
// it fails the same check, so the walk ends there without a rollback and
// the operation restarts from scratch (DESIGN.md §11.2).
func (w *Walk[C]) Checkpoint(valid func(*C) bool) bool {
	w.left = w.h.d.backupPeriod
	c := &w.buf.cur
	if !valid(c) {
		return true
	}
	if !w.commit() || !w.b.Refresh() {
		return false
	}
	if !valid(c) {
		w.b.Exit()
		w.over = true
		return false
	}
	return true
}

// commit checkpoints into the *other* buffer (lines 21-24): protect, then
// poll. Only a successful poll publishes the new complete index, so a
// rollback mid-checkpoint leaves the previous buffer intact.
func (w *Walk[C]) commit() bool {
	c := &w.buf.cur
	next := (w.compIdx + 1) % 2
	w.prots[next].Protect(c)
	if !w.b.Poll() {
		return false
	}
	w.buf.ckpt[next] = *c
	w.compIdx++
	w.haveCkp = true
	return true
}

// Finish ends the walk at its destination: the cursor is checkpointed one
// last time and the critical section left, with the protection (also) in
// prot. False means the final checkpoint was neutralized: leave the loop
// for Enter.
func (w *Walk[C]) Finish() bool {
	c := &w.buf.cur
	if !w.commit() {
		return false
	}
	w.b.Exit()
	if w.compIdx%2 == 0 {
		// The finishing buffer is backup. c is protected by it, so copying
		// the protection outside the critical section is safe (the nodes
		// cannot be reclaimed while that protector holds them).
		w.prots[1].Protect(c)
	}
	return true
}

// Fail abandons the walk from inside an attempt: the operation cannot
// proceed from this cursor (a helping CAS was lost, Algorithm 8 line 29)
// and the owner retries from scratch.
func (w *Walk[C]) Fail() { w.b.Exit() }

// cancel accounts a walk abandoned because its context was done.
func (w *Walk[C]) cancel() {
	w.h.d.rec.CancelledOps.Inc()
	w.b.TraceEvent(obs.EvCancel, 0)
	if w.err = w.ctx.Err(); w.err == nil {
		// The watcher fired on a context whose Err momentarily reads nil
		// only in pathological custom implementations; report the
		// conventional value.
		w.err = context.Canceled
	}
}

// Attempt is a traversal's first attempt, run without a Walk: RCU's loop, a
// poll before every node it reads (Step), and one poll that commits what it
// read (Conclude). There is no Bind, closure, deferred Guard or checkpoint,
// so its owner may return only values it read inside the section, or a
// position it shielded before Conclude. An attempt that leaves its loop
// without concluding is handed to a Walk (Adopt), which takes over from
// exactly where it stopped.
type Attempt struct {
	b    *brcu.Handle
	left int  // steps the attempt may still start; 0 once Step spent the budget
	live bool // Handoff: the section is handed over live, at a step the walk must take
}

// Try opens a first attempt in a fresh section, or reports false when the
// traversal must run a Walk from the start: a context is bound (only a walk
// arms cancellation), the handle is poisoned (only Start refuses one), or a
// hook is armed (only a walk's steps run StepHooks). The hooks are read
// once, as a walk reads them once per attempt.
func (h *Handle) Try(ctx context.Context) (Attempt, bool) {
	if ctx != nil || h.poisoned != nil || hooksArmed() {
		return Attempt{}, false
	}
	h.brcu.Enter()
	return Attempt{b: h.brcu, left: h.d.backupPeriod}, true
}

// Step is the poll before the attempt reads its next node, and its budget:
// false means leave the loop and hand the attempt to a Walk. The budget is
// BackupPeriod−1 steps, so that a walk adopting a spent attempt takes the
// BackupPeriod-th step and checkpoints after it, where it would have
// checkpointed had it run from the start; §4.3's bound on the work a
// rollback discards holds as it does for a walk.
func (a *Attempt) Step() bool {
	a.left--
	return a.left > 0 && a.b.Poll()
}

// Handoff gives the section up live at the node the last Step polled for,
// which only a walk may handle (a marked run is excised in the walk's
// masked region, under its Guard): the walk takes that step again, in the
// same section and at the same place in its countdown.
func (a *Attempt) Handoff() { a.live = true }

// Conclude commits every read the attempt made with one poll — nothing the
// section may reach is freed before its status word reads RbReq, and a
// shield published before a poll that succeeds is honoured by every
// reclaimer (DESIGN.md §11.2) — and leaves the section. False means discard
// the reads and hand the attempt to a Walk.
func (a *Attempt) Conclude() bool {
	if !a.b.Poll() {
		return false
	}
	a.b.Exit()
	return true
}

// Adopt takes over a first attempt that left its loop without concluding;
// a zero Attempt (Try said no) is none. Call it after Start. An attempt
// that failed a poll was neutralized: the walk's first Enter counts that
// rollback and re-enters from init, exactly as after a rollback before its
// first checkpoint. One whose budget is spent, or that was handed off,
// still holds its section, and c is the cursor of the step it did not take:
// the first Enter continues from c in that section without re-entering,
// and the countdown resumes where the attempt's stopped — it falls due
// after the BackupPeriod-th step, as from the start — so no step that
// moved the cursor runs twice.
func (w *Walk[C]) Adopt(a Attempt, c C) {
	if a.b == nil {
		return
	}
	w.entered = true
	if a.left == 0 || a.live {
		w.adopted, w.gen, w.left = true, w.b.Gen(), a.left+1
		w.buf.cur = c
	}
}
