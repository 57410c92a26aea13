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
// full preds/succs record is protected *once*, by the final checkpoint — a
// descent is shorter than the default checkpoint period at every size the
// paper measures — instead of per window shift: the advantage the paper
// credits for HP-BRCU's lead in Figure 7d. Helping unlinks run inside
// abort-masked regions.
type Expedited struct {
	list
	dom *core.Domain
}

func newExpedited(backend core.Backend, cfg core.Config) *Expedited {
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

// cursor is a descent's window: the level being walked and the link
// pred → cur on it. It is all a resume needs; the levels a find has
// already finished are recorded once, in ops.preds and ops.succs.
type cursor struct {
	level int
	pred  uint64
	cur   atomicx.Ref
}

// protector checkpoints a cursor: two shields for the window and, for a
// find, a (pred, succ) pair per level above it, filled from the handle's
// position record, which a resume at level L rewrites at L and below only
// (DESIGN.md §11.2) — 2·MaxHeight stores by a finished find's one
// checkpoint. A get records nothing: its protectors are built without a
// record, have no level shields and cover the window alone.
type protector struct {
	predS, curS *hp.Shield
	pos         *ops
	levelS      [][2]*hp.Shield
}

func newProtector(h *core.Handle, pos *ops) *protector {
	p := &protector{predS: h.NewShield(), curS: h.NewShield(), pos: pos}
	if pos != nil {
		p.levelS = make([][2]*hp.Shield, MaxHeight)
		for i := range p.levelS {
			p.levelS[i] = [2]*hp.Shield{h.NewShield(), h.NewShield()}
		}
	}
	return p
}

// Protect implements core.Protector.
func (p *protector) Protect(c *cursor) {
	p.predS.ProtectSlot(c.pred)
	p.curS.Protect(c.cur)
	for i := len(p.levelS) - 1; i > c.level; i-- {
		p.levelS[i][0].ProtectSlot(p.pos.preds[i])
		p.levelS[i][1].Protect(p.pos.succs[i])
	}
}

// ClearProtection releases every shield (core.ProtectionClearer); the
// recover barrier calls it when a panic abandons a traversal.
func (p *protector) ClearProtection() {
	p.predS.Clear()
	p.curS.Clear()
	for _, s := range p.levelS {
		s[0].Clear()
		s[1].Clear()
	}
}

// ExpeditedHandle is one thread's accessor.
type ExpeditedHandle struct {
	ops
	h *core.Handle

	prot, backup                 *protector // find: the window and the record
	getProt, getBackup           *protector // get: the window
	maskPredS, maskCurS, maskNxS *hp.Shield

	// Handle-owned traversal state, one buffer per traversal, so
	// descents never heap-allocate their cursors.
	findBuf, getBuf core.CursorBuf[cursor]
}

// Register creates a thread handle.
func (s *Expedited) Register() *ExpeditedHandle {
	d := s.dom.Register()
	h := &ExpeditedHandle{
		h:         d,
		getProt:   newProtector(d, nil),
		getBackup: newProtector(d, nil),
		maskPredS: d.NewShield(), maskCurS: d.NewShield(), maskNxS: d.NewShield(),
	}
	h.prot, h.backup = newProtector(d, &h.ops), newProtector(d, &h.ops)
	h.findBuf.Init(d, h.prot, h.backup)
	h.getBuf.Init(d, h.getProt, h.getBackup)
	h.init(&s.list, h)
	return h
}

// Unregister releases the handle.
func (h *ExpeditedHandle) Unregister() { h.h.Unregister() }

// Core exposes the composed HP-(B)RCU participation record, so the
// lifecycle layer can arrange its adoption (core.AdoptWhenUnreachable).
func (h *ExpeditedHandle) Core() *core.Handle { return h.h }

// Barrier drains reclamation (teardown/tests).
func (h *ExpeditedHandle) Barrier() { h.h.Barrier() }

// entry is both descents' init: the head's window at the top level.
func (l *list) entry() cursor {
	return cursor{
		level: MaxHeight - 1,
		pred:  l.head,
		cur:   l.pool.At(l.head).Next[MaxHeight-1].Load().Untagged(),
	}
}

// resumable is both descents' valid: a checkpointed window can be resumed
// from while neither of its nodes was retired, which a node is only after
// its level-0 next is marked (markTower); marks are never cleared.
func (l *list) resumable(c *cursor) bool {
	return l.pool.At(c.pred).Next[0].Load().Tag() == 0 &&
		(c.cur.IsNil() || l.at(c.cur).Next[0].Load().Tag() == 0)
}

// search runs the expedited find once: the descent of ebr.go's find with
// Step before every node, each finished level recorded in ops.preds and
// ops.succs as it is left. A marked node goes to the buffer's Walk, which
// unlinks it in its masked region; at level 0 the record is shielded
// before Conclude's poll commits it. false means it must be retried from
// scratch (failed revalidation or a lost helping CAS).
func (h *ExpeditedHandle) search(key int64, past bool) bool {
	l := h.l
	a := h.findBuf.Try()
	c := l.entry()
	for {
		if !a.Step() {
			var ok bool
			if c, ok = h.findBuf.Walk(&a, c, l.entry, l.resumable, nil); !ok {
				return false
			}
		}
		down := c.cur.IsNil()
		if !down {
			n := l.at(c.cur)
			next := n.Next[c.level].Load()
			if next.Tag() != 0 {
				// cur is marked at this level — checked before the key, or a
				// deleted node would be recorded as a successor.
				var ok bool
				if c, ok = h.findBuf.Walk(&a, c, l.entry, l.resumable, h.unlink); !ok {
					return false
				}
				continue
			}
			if k := n.Key.Load(); k > key || k == key && !past {
				down = true
			} else {
				c.pred, c.cur = c.cur.Slot(), next.Untagged()
			}
		}
		if down {
			h.preds[c.level], h.succs[c.level] = c.pred, c.cur
			if c.level == 0 {
				h.findBuf.Shield(c)
				if a.Conclude() {
					return true
				}
				continue
			}
			c.level--
			c.cur = l.pool.At(c.pred).Next[c.level].Load().Untagged()
		}
	}
}

// unlink swings the window's link past its marked cur inside an
// abort-masked region, with the operands shielded (no retirement here —
// the node's owner retires), and moves the window past it. It reports
// whether the CAS won; Walk's poll after it tells whether the section was
// neutralized before or during the region.
func (h *ExpeditedHandle) unlink(c *cursor) bool {
	next := h.l.at(c.cur).Next[c.level].Load().Untagged()
	h.maskPredS.ProtectSlot(c.pred)
	h.maskCurS.Protect(c.cur)
	h.maskNxS.Protect(next)
	ok := false
	h.h.Mask(func() {
		ok = h.l.pool.At(c.pred).Next[c.level].CompareAndSwap(c.cur, next)
	})
	if ok {
		c.cur = next
	}
	return ok
}

// find retries search until it succeeds, yielding between attempts so
// that on a single CPU two operations whose retries invalidate each other
// cannot ping-pong indefinitely.
func (h *ExpeditedHandle) find(key int64, past bool) {
	for attempt := 0; !h.search(key, past); attempt++ {
		if attempt > 0 {
			runtime.Gosched()
		}
	}
}

// retire is the two-step retirement; legal outside critical sections.
func (h *ExpeditedHandle) retire(slot uint64) { h.h.Retire(slot, h.l.pool) }

// release is a no-op: prot holds the position until the next traversal.
func (h *ExpeditedHandle) release() {}

// Get is the wait-free-style get — the configuration the paper evaluates:
// it skips marked nodes without helping (lock-free under HP-BRCU, footnote
// 9). The helping find serves Insert and Remove.
func (h *ExpeditedHandle) Get(key int64) (int64, bool) {
	for attempt := 0; ; attempt++ {
		if val, found, ok := h.contains(key); ok {
			return val, found
		}
		if attempt > 0 {
			runtime.Gosched()
		}
	}
}

// contains runs the optimistic read once: ebr.go's Get descent with Step
// before every node, the value read whole before Conclude's poll commits
// it. ok is false when it must be retried from scratch.
func (h *ExpeditedHandle) contains(key int64) (int64, bool, bool) {
	l := h.l
	a := h.getBuf.Try()
	c := l.entry()
	for {
		if !a.Step() {
			var ok bool
			if c, ok = h.getBuf.Walk(&a, c, l.entry, l.resumable, nil); !ok {
				return 0, false, false
			}
		}
		var n *node
		if !c.cur.IsNil() {
			n = l.at(c.cur)
		}
		if n != nil && n.Key.Load() < key {
			next := n.Next[c.level].Load()
			if next.Tag() == 0 {
				c.pred = c.cur.Slot() // a marked cur is skipped, not helped
			}
			c.cur = next.Untagged()
		} else if c.level > 0 {
			c.level--
			c.cur = l.pool.At(c.pred).Next[c.level].Load().Untagged()
		} else {
			val, found := answer(n, key)
			if a.Conclude() {
				return val, found, true
			}
		}
	}
}

// answer is what a get returns from the level-0 node its descent stopped at.
func answer(n *node, key int64) (val int64, found bool) {
	if found = n != nil && n.Key.Load() == key && n.Next[0].Load().Tag() == 0; found {
		val = n.Val.Load()
	}
	return val, found
}
