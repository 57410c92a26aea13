package hlist

import (
	"context"
	"runtime"

	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Expedited is a list or hash map protected by HP-RCU or HP-BRCU
// (Algorithm 8). This is the combination plain HP cannot express (Figure
// 2): traversal follows links out of marked — possibly retired — nodes,
// protected coarsely by the (bounded) critical section with periodic HP
// checkpoints, and the physical deletion of marked nodes — the write that
// defeats NBR on Harris-Michael — runs inside an abort-masked region.
type Expedited struct {
	set
	dom *core.Domain
}

// NewExpeditedOf creates a member of the family with the given number of
// head sentinels under HP-RCU (§3) or HP-BRCU (§4).
func NewExpeditedOf(backend core.Backend, k Kind, heads int, cfg core.Config) *Expedited {
	l := &Expedited{set: newSet(k, heads, cfg.Allocator), dom: core.NewDomain(backend, cfg)}
	l.dom.BindPool(l.pool)
	return l
}

// NewHPRCU creates a Harris list protected by HP-RCU (§3).
func NewHPRCU(cfg core.Config) *Expedited {
	return NewExpeditedOf(core.BackendRCU, Harris, 1, cfg)
}

// NewHPBRCU creates a Harris list protected by HP-BRCU (§4).
func NewHPBRCU(cfg core.Config) *Expedited {
	return NewExpeditedOf(core.BackendBRCU, Harris, 1, cfg)
}

// Stats exposes reclamation statistics.
func (l *Expedited) Stats() *stats.Reclamation { return l.dom.Stats() }

// Domain exposes the underlying HP-(B)RCU domain (for bound checks).
func (l *Expedited) Domain() *core.Domain { return l.dom }

// cursor is the search cursor (Algorithm 8's ListCursor): predecessor
// slot + current reference.
type cursor struct {
	prev uint64
	cur  atomicx.Ref
}

// protector checkpoints a cursor into two shields (Algorithm 8's
// ListCursorProtector).
type protector struct{ prevS, curS *hp.Shield }

func newProtector(h *core.Handle) *protector {
	return &protector{prevS: h.NewShield(), curS: h.NewShield()}
}

// Protect implements core.Protector.
func (p *protector) Protect(c *cursor) {
	p.prevS.ProtectSlot(c.prev)
	p.curS.Protect(c.cur)
}

// ClearProtection releases both shields (core.ProtectionClearer); the
// recover barrier calls it when a panic abandons a traversal.
func (p *protector) ClearProtection() {
	p.prevS.Clear()
	p.curS.Clear()
}

// getCursor is the read-only optimistic traversal cursor (HHS get).
type getCursor struct{ cur atomicx.Ref }

type getProtector struct{ curS *hp.Shield }

func (p *getProtector) Protect(c *getCursor) { p.curS.Protect(c.cur) }

// ClearProtection releases the shield (core.ProtectionClearer).
func (p *getProtector) ClearProtection() { p.curS.Clear() }

// ExpeditedHandle is one thread's accessor.
type ExpeditedHandle struct {
	ops
	h *core.Handle

	prot, backup       *protector
	getProt, getBackup *getProtector
	maskPrevS          *hp.Shield
	maskRunS           *hp.Shield
	maskEndS           *hp.Shield

	// Handle-owned cursor storage for the Traverse engine, one buffer per
	// cursor type, so traversals never heap-allocate their cursors.
	searchBuf core.CursorBuf[cursor]
	getBuf    core.CursorBuf[getCursor]
}

// Register creates a thread handle.
func (l *Expedited) Register() *ExpeditedHandle {
	d := l.dom.Register()
	h := &ExpeditedHandle{
		h:         d,
		prot:      newProtector(d),
		backup:    newProtector(d),
		getProt:   &getProtector{curS: d.NewShield()},
		getBackup: &getProtector{curS: d.NewShield()},
		maskPrevS: d.NewShield(),
		maskRunS:  d.NewShield(),
		maskEndS:  d.NewShield(),
	}
	h.init(&l.set, h)
	return h
}

// Unregister releases the handle (and, through hp.Handle.Unregister, every
// shield it owns).
func (h *ExpeditedHandle) Unregister() { h.h.Unregister() }

// Core exposes the composed HP-(B)RCU participation record, so the
// lifecycle layer (handle pool, reaper integration) can reach the lease
// and reap state of the handle it wraps.
func (h *ExpeditedHandle) Core() *core.Handle { return h.h }

// Barrier drains reclamation (teardown/tests).
func (h *ExpeditedHandle) Barrier() { h.h.Barrier() }

// BarrierCtx is Barrier with cooperative cancellation between rounds.
func (h *ExpeditedHandle) BarrierCtx(ctx context.Context) error { return h.h.BarrierCtx(ctx) }

// search runs the expedited Harris search (Algorithm 8's TrySearch).
// Marked runs are excised inside an abort-masked region — physical
// deletion is rollback-safe but not abort-rollback-safe, it retires — and
// the excision operands (predecessor, run head, excision target) are
// protected by outliving shields beforehand so the masked CAS can never
// act on recycled slots (the ABA guard the paper notes in footnote 6). ok
// is false when the operation must be retried (failed revalidation or
// helping CAS, §4.3).
func (h *ExpeditedHandle) search(key int64) (cursor, bool, bool) {
	l := &h.l
	t := core.Traversal[cursor, bool]{
		Init: func() cursor {
			return cursor{prev: l.Head, cur: l.Pool.At(l.Head).Next.Load()}
		},
		// Validate: resuming is safe while cur is not logically deleted
		// (§3.3). A nil cur cannot be marked, so prev stands in for it.
		Validate: func(c *cursor) bool {
			if c.cur.IsNil() {
				return l.Pool.At(c.prev).Next.Load().Tag() == 0
			}
			return l.At(c.cur).Next.Load().Tag() == 0
		},
		Step: func(c *cursor) (core.StepKind, bool) {
			if c.cur.IsNil() {
				return core.StepFinish, false
			}
			curN := l.At(c.cur)
			next := curN.Next.Load()
			if next.Tag() != 0 {
				// Excise the marked run [cur, end). The run is captured
				// into a buffer before the masked writes so retirement
				// never re-reads a link after a retire.
				end := h.runEnd(c.cur)
				h.maskPrevS.ProtectSlot(c.prev)
				h.maskRunS.Protect(c.cur)
				h.maskEndS.Protect(end)
				succ := false
				ran, mustRollback := h.h.Mask(func() {
					if l.Pool.At(c.prev).Next.CompareAndSwap(c.cur, end) {
						h.retireRun()
						succ = true
					}
				})
				if mustRollback {
					return core.StepAbort, false
				}
				if !ran || !succ {
					return core.StepFail, false
				}
				c.cur = end
				return core.StepContinue, false
			}
			if k := curN.Key.Load(); k >= key {
				return core.StepFinish, k == key
			}
			c.prev = c.cur.Slot()
			c.cur = next
			return core.StepContinue, false
		},
	}
	return core.Traverse(h.h, &h.searchBuf, h.prot, h.backup, t)
}

// find repeats search until a traversal finishes: the position it returns
// is HP-protected by prot, so the caller's CASes run outside the critical
// section exactly as with plain hazard pointers.
func (h *ExpeditedHandle) find(key int64) (uint64, atomicx.Ref, bool) {
	for attempt := 0; ; attempt++ {
		if c, found, ok := h.search(key); ok {
			return c.prev, c.cur, found
		}
		if attempt > 0 {
			runtime.Gosched() // break single-CPU retry ping-pongs
		}
	}
}

// retire is the two-step retirement; legal outside critical sections.
func (h *ExpeditedHandle) retire(slot uint64) { h.h.Retire(slot, h.l.Pool) }

// release is a no-op: prot holds the position until the next traversal.
func (h *ExpeditedHandle) release() {}

// Get returns the value mapped to key: the helping search, or the
// optimistic contains on an HHS list.
func (h *ExpeditedHandle) Get(key int64) (int64, bool) {
	if h.hhs {
		return h.GetOptimistic(key)
	}
	return h.helpingGet(key)
}

// getTraversal builds the optimistic read traversal GetOptimistic and
// GetCtx run (and the cancellation regression test instruments).
func (h *ExpeditedHandle) getTraversal(key int64) core.Traversal[getCursor, bool] {
	l := &h.l
	return core.Traversal[getCursor, bool]{
		Init: func() getCursor {
			return getCursor{cur: l.Pool.At(l.Head).Next.Load().Untagged()}
		},
		Validate: func(c *getCursor) bool {
			return c.cur.IsNil() || l.At(c.cur).Next.Load().Tag() == 0
		},
		Step: func(c *getCursor) (core.StepKind, bool) {
			if c.cur.IsNil() {
				return core.StepFinish, false
			}
			n := l.At(c.cur)
			if n.Key.Load() >= key {
				found := n.Key.Load() == key && n.Next.Load().Tag() == 0
				return core.StepFinish, found
			}
			c.cur = n.Next.Load().Untagged()
			return core.StepContinue, false
		},
	}
}

// GetOptimistic is the HHSList wait-free-style contains lifted onto the
// Traverse engine: a pure read traversal through marked nodes. Under
// HP-BRCU it is only lock-free (rollbacks may retry it), matching the
// paper's footnote 9.
func (h *ExpeditedHandle) GetOptimistic(key int64) (int64, bool) {
	h.bind(key)
	t := h.getTraversal(key)
	for attempt := 0; ; attempt++ {
		c, found, ok := core.Traverse(h.h, &h.getBuf, h.getProt, h.getBackup, t)
		if !ok {
			if attempt > 0 {
				runtime.Gosched()
			}
			continue // checkpointed on a node that got marked; rare
		}
		if !found {
			return 0, false
		}
		return h.l.At(c.cur).Val.Load(), true
	}
}

// GetCtx is GetOptimistic with cooperative cancellation: ctx.Done()
// self-neutralizes the traversal at its next poll point and GetCtx
// returns the context's error. Validation failures still retry — only
// cancellation breaks the loop.
func (h *ExpeditedHandle) GetCtx(ctx context.Context, key int64) (int64, bool, error) {
	h.bind(key)
	t := h.getTraversal(key)
	for attempt := 0; ; attempt++ {
		c, found, ok, err := core.TraverseCtx(ctx, h.h, &h.getBuf, h.getProt, h.getBackup, t)
		if err != nil {
			return 0, false, err
		}
		if !ok {
			if attempt > 0 {
				runtime.Gosched()
			}
			continue
		}
		if !found {
			return 0, false, nil
		}
		return h.l.At(c.cur).Val.Load(), true, nil
	}
}
