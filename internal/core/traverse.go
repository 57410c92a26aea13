package core

import (
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/obs"
)

// This file implements the expedited traversal (Algorithm 7). The paper's
// Traverse is one loop with the checkpoint inside the step, and so is every
// expedited operation here: the data structure owns the loop, so the node
// visit compiles into it as it does under EBR or NBR, and reaches the
// protocol through three calls — Try enters a section, Step polls and counts
// before every node, Conclude commits at the destination (a find first
// stores its shields with Shield). Everything else — rollback and resume
// through the §4.3 double buffer, the periodic checkpoint, the step hooks
// and the excision of a marked node — is one out-of-line call,
// CursorBuf.Walk, taken only when Step or a mark says so. HP-RCU's domain
// is HP-BRCU's built never to signal, so its loop is this one, and only
// fault injection ever rolls it back.

// Protector publishes HP protection for every node of a cursor (the
// paper's Protector trait). Implementations write each cursor pointer into
// a dedicated shield; they must tolerate repeated calls.
type Protector[C any] interface {
	Protect(c *C)
}

// CursorBuf is the handle-owned state of one kind of traversal: the
// cursor slot, the two checkpoint buffers of the double-buffering scheme
// (§4.3), the protectors that shield them and which of them is complete.
// It is not a local of the traversal because a cursor whose address is
// passed through the Protector interface escapes to the heap — at roughly
// two heap allocations per operation, cursors were ~99% of the allocator
// traffic the GC-pressure columns measure. Handles embed one CursorBuf per
// traversal instead, so a traversal performs zero allocations.
//
// prots[0] and prots[1] are the double buffer: at every instant one of
// them holds a complete protected cursor, because commit and Shield protect
// into the buffer that is *not* the complete one, and only a poll that
// succeeds after that protection was published makes it the complete one.
// A traversal therefore resumes after a neutralization that lands in the
// middle of checkpointing — under HP-BRCU a reclaimer's signal, under both
// schemes an injected fault. There is no checkpoint of the entry cursor:
// before the first periodic one completes, a neutralized traversal starts
// over from init.
//
// A CursorBuf is owned by the handle's goroutine and must not be shared:
// two concurrent traversals through one buffer would tear each other's
// checkpoints.
type CursorBuf[C any] struct {
	h       *Handle
	prots   [2]Protector[C] // {backup, prot}; prots[compIdx%2] holds the complete checkpoint
	cur     C
	ckpt    [2]C
	compIdx int
	haveCkp bool // does ckpt[compIdx%2] hold a complete checkpoint of this operation?

	// The running operation's state that only Walk reads; Try resets it.
	hooks bool // a yield period, a fault plan or obs was active when this section began
	due   int  // while hooks are armed: Steps until the next checkpoint
}

// Init points the buffer at its handle and its two protectors; prot is the
// one a traversal that commits without a checkpoint shields its
// destination in.
func (b *CursorBuf[C]) Init(h *Handle, prot, backup Protector[C]) {
	b.h, b.prots = h, [2]Protector[C]{backup, prot}
}

// Attempt is what the loop itself keeps of a traversal, on its owner's
// stack: the BRCU half the step polls and the countdown to the next Walk.
// It is two words, so Try returns it in registers.
type Attempt struct {
	b    *brcu.Handle
	left int // Steps until the next Walk: the one a checkpoint falls on, or the next one while hooks are armed
}

// Try begins a traversal in a fresh critical section. A poisoned handle
// or an armed hook takes try, out of line.
func (b *CursorBuf[C]) Try() Attempt {
	h := b.h
	b.compIdx, b.haveCkp, b.hooks = 0, false, false
	if h.poisoned != nil || hooksArmed() {
		return b.try()
	}
	h.brcu.Enter()
	return Attempt{b: h.brcu, left: h.d.backupPeriod + 1}
}

// try refuses a poisoned handle. An armed hook sends every Step to Walk,
// which runs the hooks and keeps the real checkpoint cadence.
func (b *CursorBuf[C]) try() Attempt {
	h := b.h
	h.checkUsable()
	b.hooks = hooksArmed()
	h.brcu.Enter()
	a := Attempt{b: h.brcu}
	b.arm(&a, h.d.backupPeriod+1)
	return a
}

// arm sets the countdown for the next checkpoint, n Steps away. While hooks
// are armed every Step goes to Walk, which counts them down in due.
func (b *CursorBuf[C]) arm(a *Attempt, n int) {
	a.left, b.due = n, n
	if b.hooks {
		a.left = 1
	}
}

// Step is the poll before the traversal reads its next node, and its
// countdown: false means call Walk, which takes the step from there — it
// rolls back after a failed poll and checkpoints when the countdown is
// spent — and hands back the cursor to visit.
func (a *Attempt) Step() bool {
	a.left--
	return a.left != 0 && a.b.Poll()
}

// Conclude commits every read the traversal made in its current section
// with one poll — nothing the section may reach is freed before its status
// word reads RbReq, and a shield published before a poll that succeeds is
// honoured by every reclaimer (DESIGN.md §11.2) — and ends the operation.
// False means the section was neutralized: discard the reads, and the next
// Step fails too and hands the traversal to Walk, which rolls it back.
func (a *Attempt) Conclude() bool {
	if !a.b.Poll() {
		return false
	}
	a.b.Exit()
	return true
}

// Shield protects a find's destination for its caller, into the buffer
// that does not hold the complete checkpoint, so that a failed Conclude
// still resumes from that checkpoint. Call it before Conclude, whose poll
// is what commits the shields.
func (b *CursorBuf[C]) Shield(c C) {
	b.cur = c
	b.prots[(b.compIdx+1)&1].Protect(&b.cur)
}

// Walk is every step the loop cannot take inline, and the traversal's
// recover barrier: a panic that escaped init, valid, fix, a masked region
// or a step hook drives the handle through the normal abort path and is
// re-raised per the panic policy. The loop calls it when Step says so, and
// at a node only a masked region may get past, with fix: Walk runs fix,
// which reports false if it lost a helping CAS (Algorithm 8 line 29), and
// the Step after it is not counted. Otherwise Walk runs the step hooks
// when armed, checkpoints when the countdown is spent, and rolls back after
// a failed poll: the cursor resumes from the last complete checkpoint, or
// init builds it again. It returns the cursor to visit next, or false when
// the operation is over — needing a restart from scratch after a lost CAS
// or a checkpoint that no longer validates — with its section left.
//
// init builds the entry cursor inside the critical section (it may run
// many times); valid checks that a checkpointed cursor can still be
// resumed from — typically that its source node is not logically deleted
// (§3.3). They are arguments, not fields: a func stored in the buffer
// would escape, and every operation would allocate its closures.
func (b *CursorBuf[C]) Walk(a *Attempt, c C, init func() C, valid func(*C) bool, fix func(*C) bool) (C, bool) {
	defer b.guard()
	b.cur = c
	switch {
	case fix != nil:
		if !fix(&b.cur) && a.b.Poll() {
			a.b.Exit()
			return b.cur, false
		}
	case a.left == 0 && a.b.Poll():
		if !b.count(a, valid) {
			return b.cur, false
		}
	}
	for !a.b.Poll() {
		if !b.reenter(a, init, valid) {
			return b.cur, false
		}
	}
	if fix != nil {
		// The loop's next Step visits where the excision stopped: it is
		// the step the excision interrupted, so it is not counted twice.
		if b.hooks {
			b.due++
		} else {
			a.left++
		}
	}
	return b.cur, true
}

// guard is Walk's recover barrier.
func (b *CursorBuf[C]) guard() {
	if r := recover(); r != nil {
		b.h.contain(r, "traversal", func() {
			clearProtection(b.prots[0])
			clearProtection(b.prots[1])
		})
	}
}

// count takes a Step whose countdown is spent in a live section: it runs
// the hooks, if armed, and a checkpoint, if one falls on this step. False
// means the operation is over.
func (b *CursorBuf[C]) count(a *Attempt, valid func(*C) bool) bool {
	if b.hooks {
		b.h.stepHooks()
		if b.due--; b.due > 0 {
			a.left = 1
			return true
		}
	}
	b.arm(a, b.h.d.backupPeriod)
	return b.checkpoint(a, valid)
}

// checkpoint makes the cursor the new complete checkpoint and catches up
// with the global epoch, so the traversal stops blocking reclamation (the
// end of one of Algorithm 3's RCU phases). A neutralization at the
// checkpoint is left for Walk's poll to roll back; false means the cursor
// no longer validated after the re-announce and the operation is over.
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
// it fails the same check, so the operation ends there without a rollback
// and restarts from scratch (DESIGN.md §11.2).
func (b *CursorBuf[C]) checkpoint(a *Attempt, valid func(*C) bool) bool {
	c := &b.cur
	if !valid(c) || !b.commit(a) || !a.b.Refresh() {
		return true
	}
	if !valid(c) {
		a.b.Exit()
		return false
	}
	return true
}

// commit checkpoints into the *other* buffer (lines 21-24): protect, then
// poll. Only a successful poll publishes the new complete index, so a
// rollback mid-checkpoint leaves the previous buffer intact.
func (b *CursorBuf[C]) commit(a *Attempt) bool {
	next := (b.compIdx + 1) & 1
	b.prots[next].Protect(&b.cur)
	if !a.b.Poll() {
		return false
	}
	b.ckpt[next] = b.cur
	b.compIdx++
	b.haveCkp = true
	return true
}

// reenter rolls back a neutralized section and opens the next one, or
// reports false when the operation is over: it holds a checkpoint that no
// longer validates, and restarts from scratch. Every call follows a
// rollback and is accounted as one.
func (b *CursorBuf[C]) reenter(a *Attempt, init func() C, valid func(*C) bool) bool {
	h := b.h
	a.b.RecordRollback()
	// Re-enter with a fresh epoch (the paper's siglongjmp target,
	// Algorithm 7 line 15). The hooks are decided once per section, so a
	// fault plan or obs armed mid-section is picked up by the next one.
	a.b.Enter()
	b.hooks = hooksArmed()
	b.arm(a, h.d.backupPeriod)
	if !b.haveCkp {
		// A rollback from before any checkpoint completed: start over. A
		// cursor created in THIS section needs no validation (R2), and
		// validating it would be worse than wasteful: if the entry point's
		// first node is logically deleted, rejecting the fresh cursor
		// would keep every traversal from ever reaching (and helping
		// unlink) it, livelocking the structure.
		b.cur = init()
		return true
	}
	// Resume from the last complete checkpoint. It was inherited from an
	// earlier section, so it must be revalidated (line 17, §3.3); failure
	// ends the operation.
	b.cur = b.ckpt[b.compIdx&1]
	if !valid(&b.cur) {
		a.b.Exit()
		return false
	}
	return true
}

// stepHooks is everything a step carries that is not the protocol: the
// single-CPU yield harness, the fault sites that force a rollback or a
// panic at an arbitrary step (Walk's poll or its recover barrier then
// takes it from there), and the BRCU half's own poll hooks.
func (h *Handle) stepHooks() {
	atomicx.StepYield(&h.yc)
	if fault.On {
		if fault.Fire(fault.SiteStepRollback) {
			h.brcu.SelfNeutralize()
		}
		if fault.Fire(fault.SitePanic) {
			// Stands in for a panic in the owner's step, before any mutation.
			panic(fault.ErrInjectedPanic)
		}
	}
	h.brcu.PollHooks()
	if StepHook != nil {
		StepHook(h.brcu)
	}
}

// StepHook is a test seam: set while no traversal runs, it runs last in
// every hooked step, just before the step's poll, to stage an
// interleaving there.
var StepHook func(*brcu.Handle)

// hooksArmed reports whether a step must run the step hooks: a yield
// period, a fault plan or the obs layer is active.
func hooksArmed() bool { return atomicx.YieldPeriod != 0 || fault.On || obs.On }
