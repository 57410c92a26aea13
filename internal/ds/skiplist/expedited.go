package skiplist

import (
	"runtime"

	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Expedited is a skip list protected by HP-RCU or HP-BRCU: the whole
// multi-level descent runs inside (bounded) critical sections, and the
// full preds/succs record is protected *once* per checkpoint instead of
// per window shift — the advantage the paper credits for HP-BRCU's lead
// in Figure 7d. Helping unlinks run inside abort-masked regions.
type Expedited struct {
	list
	dom *core.Domain
}

// defaultSkipBackupPeriod exceeds any realistic operation length: skip
// list operations are short (O(log n) steps), so the paper's design
// protects the preds/succs record once, at the end of the critical
// section (§6's explanation of Figure 7d); a mid-descent checkpoint
// would write 2·MaxHeight+2 shields for nothing. Rollbacks restart the
// (cheap) descent instead.
const defaultSkipBackupPeriod = 4096

func newExpedited(backend core.Backend, cfg core.Config) *Expedited {
	if cfg.BackupPeriod == 0 {
		cfg.BackupPeriod = defaultSkipBackupPeriod
	}
	return &Expedited{list: newList(), dom: core.NewDomain(backend, cfg)}
}

// NewHPRCU creates a skip list protected by HP-RCU (§3).
func NewHPRCU(cfg core.Config) *Expedited { return newExpedited(core.BackendRCU, cfg) }

// NewHPBRCU creates a skip list protected by HP-BRCU (§4).
func NewHPBRCU(cfg core.Config) *Expedited { return newExpedited(core.BackendBRCU, cfg) }

// Stats exposes reclamation statistics.
func (s *Expedited) Stats() *stats.Reclamation { return s.dom.Stats() }

// Domain exposes the underlying HP-(B)RCU domain.
func (s *Expedited) Domain() *core.Domain { return s.dom }

// cursor is the traversal cursor: the current level window plus the
// preds/succs recorded at the levels already completed.
type cursor struct {
	level int
	pred  uint64
	cur   atomicx.Ref
	preds [MaxHeight]uint64
	succs [MaxHeight]atomicx.Ref
}

// protector checkpoints a cursor: the live window plus every recorded
// level, 2·MaxHeight+2 shields in total, written once per checkpoint.
type protector struct {
	predS, curS *hp.Shield
	predsS      [MaxHeight]*hp.Shield
	succsS      [MaxHeight]*hp.Shield
}

func newProtector(h *core.Handle) *protector {
	p := &protector{predS: h.NewShield(), curS: h.NewShield()}
	for i := 0; i < MaxHeight; i++ {
		p.predsS[i] = h.NewShield()
		p.succsS[i] = h.NewShield()
	}
	return p
}

// Protect implements core.Protector.
func (p *protector) Protect(c *cursor) {
	p.predS.ProtectSlot(c.pred)
	p.curS.Protect(c.cur)
	for i := MaxHeight - 1; i > c.level; i-- {
		p.predsS[i].ProtectSlot(c.preds[i])
		p.succsS[i].Protect(c.succs[i])
	}
}

// ClearProtection releases every shield (core.ProtectionClearer); the
// recover barrier calls it when a panic abandons a traversal.
func (p *protector) ClearProtection() {
	p.predS.Clear()
	p.curS.Clear()
	for i := 0; i < MaxHeight; i++ {
		p.predsS[i].Clear()
		p.succsS[i].Clear()
	}
}

// getCursor is the read-only optimistic traversal cursor.
type getCursor struct {
	level int
	pred  uint64
	cur   atomicx.Ref
}

type getProtector struct{ predS, curS *hp.Shield }

func (p *getProtector) Protect(c *getCursor) {
	p.predS.ProtectSlot(c.pred)
	p.curS.Protect(c.cur)
}

// ClearProtection releases both shields (core.ProtectionClearer).
func (p *getProtector) ClearProtection() {
	p.predS.Clear()
	p.curS.Clear()
}

// ExpeditedHandle is one thread's accessor.
type ExpeditedHandle struct {
	ops
	h *core.Handle

	prot, backup                 *protector
	getProt, getBackup           *getProtector
	maskPredS, maskCurS, maskNxS *hp.Shield

	// Handle-owned cursor storage for the Traverse engine, one buffer per
	// cursor type, so traversals never heap-allocate their (large) cursors.
	searchBuf core.CursorBuf[cursor]
	getBuf    core.CursorBuf[getCursor]
}

// Register creates a thread handle.
func (s *Expedited) Register() *ExpeditedHandle {
	d := s.dom.Register()
	h := &ExpeditedHandle{
		h:         d,
		prot:      newProtector(d),
		backup:    newProtector(d),
		getProt:   &getProtector{predS: d.NewShield(), curS: d.NewShield()},
		getBackup: &getProtector{predS: d.NewShield(), curS: d.NewShield()},
		maskPredS: d.NewShield(), maskCurS: d.NewShield(), maskNxS: d.NewShield(),
	}
	h.init(&s.list, h)
	return h
}

// Unregister releases the handle.
func (h *ExpeditedHandle) Unregister() { h.h.Unregister() }

// Core exposes the composed HP-(B)RCU participation record, so the
// lifecycle layer (handle pool, reaper integration) can reach the lease
// and reap state of the handle it wraps.
func (h *ExpeditedHandle) Core() *core.Handle { return h.h }

// Barrier drains reclamation (teardown/tests).
func (h *ExpeditedHandle) Barrier() { h.h.Barrier() }

// notRetired certifies that a node was not yet retired at the read: a node
// is retired only after its level-0 next is marked (markTower), and marks
// are never cleared.
func (l *list) notRetired(slot uint64) bool {
	return l.pool.At(slot).Next[0].Load().Tag() == 0
}

// resumable is both traversals' Validate: a checkpointed window can be
// resumed from while neither of its nodes was retired.
func (l *list) resumable(pred uint64, cur atomicx.Ref) bool {
	return l.notRetired(pred) && (cur.IsNil() || l.notRetired(cur.Slot()))
}

// search runs the expedited find once. ok=false means it must be retried
// from scratch (failed revalidation or a lost helping CAS). On success
// preds/succs in the returned cursor are protected by prot.
func (h *ExpeditedHandle) search(key int64, past bool) (cursor, bool) {
	l := h.l
	t := core.Traversal[cursor, struct{}]{
		Init: func() cursor {
			return cursor{
				level: MaxHeight - 1,
				pred:  l.head,
				cur:   l.pool.At(l.head).Next[MaxHeight-1].Load().Untagged(),
			}
		},
		Validate: func(c *cursor) bool { return l.resumable(c.pred, c.cur) },
		Step: func(c *cursor) (core.StepKind, struct{}) {
			if c.cur.IsNil() {
				return c.descend(l), struct{}{}
			}
			n := l.at(c.cur)
			next := n.Next[c.level].Load()
			if next.Tag() != 0 {
				// cur is marked at this level — checked before the key, or
				// a deleted node would be recorded as a successor: unlink
				// it inside a masked region with the operands shielded (no
				// retirement here — the node's owner retires).
				nu := next.Untagged()
				h.maskPredS.ProtectSlot(c.pred)
				h.maskCurS.Protect(c.cur)
				h.maskNxS.Protect(nu)
				succ := false
				ran, mustRollback := h.h.Mask(func() {
					succ = l.pool.At(c.pred).Next[c.level].CompareAndSwap(c.cur, nu)
				})
				if mustRollback {
					return core.StepAbort, struct{}{}
				}
				if !ran || !succ {
					return core.StepFail, struct{}{}
				}
				c.cur = nu
				return core.StepContinue, struct{}{}
			}
			if k := n.Key.Load(); k > key || k == key && !past {
				return c.descend(l), struct{}{}
			}
			c.pred = c.cur.Slot()
			c.cur = next.Untagged()
			return core.StepContinue, struct{}{}
		},
	}
	c, _, ok := core.Traverse(h.h, &h.searchBuf, h.prot, h.backup, t)
	return c, ok
}

// descend records the finished level and moves the window one level down,
// or finishes the traversal at level 0.
func (c *cursor) descend(l *list) core.StepKind {
	c.preds[c.level] = c.pred
	c.succs[c.level] = c.cur
	if c.level == 0 {
		return core.StepFinish
	}
	c.level--
	c.cur = l.pool.At(c.pred).Next[c.level].Load().Untagged()
	return core.StepContinue
}

// find retries search until it succeeds, yielding between attempts so
// that on a single CPU two operations whose retries invalidate each other
// cannot ping-pong indefinitely.
func (h *ExpeditedHandle) find(key int64, past bool) {
	for attempt := 0; ; attempt++ {
		if c, ok := h.search(key, past); ok {
			h.preds, h.succs = c.preds, c.succs
			return
		}
		if attempt > 0 {
			runtime.Gosched()
		}
	}
}

// retire is the two-step retirement; legal outside critical sections.
func (h *ExpeditedHandle) retire(slot uint64) { h.h.Retire(slot, h.l.pool) }

// release is a no-op: prot holds the position until the next traversal.
func (h *ExpeditedHandle) release() {}

// Get is the wait-free-style get on the Traverse engine — the
// configuration the paper evaluates: it skips marked nodes without helping
// (lock-free under HP-BRCU, footnote 9). The helping find serves Insert
// and Remove.
func (h *ExpeditedHandle) Get(key int64) (int64, bool) {
	l := h.l
	t := core.Traversal[getCursor, bool]{
		Init: func() getCursor {
			return getCursor{
				level: MaxHeight - 1,
				pred:  l.head,
				cur:   l.pool.At(l.head).Next[MaxHeight-1].Load().Untagged(),
			}
		},
		Validate: func(c *getCursor) bool { return l.resumable(c.pred, c.cur) },
		Step: func(c *getCursor) (core.StepKind, bool) {
			if c.cur.IsNil() || l.at(c.cur).Key.Load() >= key {
				if c.level == 0 {
					found := false
					if !c.cur.IsNil() {
						n := l.at(c.cur)
						found = n.Key.Load() == key && n.Next[0].Load().Tag() == 0
					}
					return core.StepFinish, found
				}
				c.level--
				c.cur = l.pool.At(c.pred).Next[c.level].Load().Untagged()
				return core.StepContinue, false
			}
			n := l.at(c.cur)
			next := n.Next[c.level].Load()
			if next.Tag() != 0 {
				c.cur = next.Untagged() // skip marked, no helping
				return core.StepContinue, false
			}
			c.pred = c.cur.Slot()
			c.cur = next.Untagged()
			return core.StepContinue, false
		},
	}
	for attempt := 0; ; attempt++ {
		c, found, ok := core.Traverse(h.h, &h.getBuf, h.getProt, h.getBackup, t)
		if !ok {
			if attempt > 0 {
				runtime.Gosched()
			}
			continue
		}
		if !found {
			return 0, false
		}
		return l.at(c.cur).Val.Load(), true
	}
}
