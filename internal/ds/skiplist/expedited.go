package skiplist

import (
	"runtime"

	"github.com/smrgo/hpbrcu/internal/alloc"
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
	l   *list
	dom *core.Domain
}

// defaultSkipBackupPeriod exceeds any realistic operation length: skip
// list operations are short (O(log n) steps), so the paper's design
// protects the preds/succs record once, at the end of the critical
// section (§6's explanation of Figure 7d); a mid-descent checkpoint
// would write 2·MaxHeight+2 shields for nothing. Rollbacks restart the
// (cheap) descent instead.
const defaultSkipBackupPeriod = 4096

func skipCfg(cfg core.Config) core.Config {
	if cfg.BackupPeriod == 0 {
		cfg.BackupPeriod = defaultSkipBackupPeriod
	}
	return cfg
}

// NewHPRCU creates a skip list protected by HP-RCU (§3).
func NewHPRCU(cfg core.Config) *Expedited {
	s := &Expedited{l: newList(cfg.Allocator), dom: core.NewDomain(core.BackendRCU, skipCfg(cfg))}
	s.dom.BindPool(s.l.pool)
	return s
}

// NewHPBRCU creates a skip list protected by HP-BRCU (§4).
func NewHPBRCU(cfg core.Config) *Expedited {
	s := &Expedited{l: newList(cfg.Allocator), dom: core.NewDomain(core.BackendBRCU, skipCfg(cfg))}
	s.dom.BindPool(s.l.pool)
	return s
}

// Stats exposes reclamation statistics.
func (s *Expedited) Stats() *stats.Reclamation { return s.dom.Stats() }

// Domain exposes the underlying HP-(B)RCU domain.
func (s *Expedited) Domain() *core.Domain { return s.dom }

// LenSlow / KeysSlow / CheckSlow: single-threaded checks.
func (s *Expedited) LenSlow() int      { return s.l.lenSlow() }
func (s *Expedited) KeysSlow() []int64 { return s.l.keysSlow() }
func (s *Expedited) CheckSlow() bool   { return s.l.checkTowersSlow() }

// cursor is the traversal cursor: the current level window plus the
// preds/succs recorded at the levels already completed.
type cursor struct {
	level int
	pred  uint64
	cur   atomicx.Ref
	preds [MaxHeight]uint64
	succs [MaxHeight]atomicx.Ref
	// target/saw implement the deleter's clean-pass check.
	target atomicx.Ref
	saw    bool
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
	l     *Expedited
	h     *core.Handle
	cache *alloc.Cache[node]
	rng   *atomicx.Rand

	prot, backup                 *protector
	getProt, getBackup           *getProtector
	maskPredS, maskCurS, maskNxS *hp.Shield
	nodeS                        *hp.Shield

	// Handle-owned cursor storage for the Traverse engine, one buffer per
	// cursor type, so traversals never heap-allocate their (large) cursors.
	searchBuf core.CursorBuf[cursor]
	getBuf    core.CursorBuf[getCursor]
}

// Register creates a thread handle.
func (s *Expedited) Register() *ExpeditedHandle {
	h := s.dom.Register()
	return &ExpeditedHandle{
		l: s, h: h, cache: s.l.pool.NewCache(),
		rng:       atomicx.NewRand(nextSeed()),
		prot:      newProtector(h),
		backup:    newProtector(h),
		getProt:   &getProtector{predS: h.NewShield(), curS: h.NewShield()},
		getBackup: &getProtector{predS: h.NewShield(), curS: h.NewShield()},
		maskPredS: h.NewShield(), maskCurS: h.NewShield(), maskNxS: h.NewShield(),
		nodeS: h.NewShield(),
	}
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

// search runs the expedited find. ok=false means the operation must be
// retried from scratch (failed revalidation or a lost helping CAS).
// On success preds/succs in the returned cursor are protected by prot.
func (h *ExpeditedHandle) search(key int64, target atomicx.Ref) (cursor, bool, bool) {
	l := h.l.l
	t := core.Traversal[cursor, bool]{
		Init: func() cursor {
			c := cursor{
				level:  MaxHeight - 1,
				pred:   l.head,
				cur:    l.pool.At(l.head).Next[MaxHeight-1].Load().Untagged(),
				target: target,
			}
			if !c.cur.IsNil() && c.cur == target {
				c.saw = true
			}
			return c
		},
		Validate: func(c *cursor) bool {
			if !l.notRetired(c.pred) {
				return false
			}
			return c.cur.IsNil() || l.notRetired(c.cur.Slot())
		},
		Step: func(c *cursor) (core.StepKind, bool) {
			// A marked node must be unlinked before the key comparison:
			// a logically deleted node with key >= the search key would
			// otherwise be recorded as a successor (and the deleter's
			// clean pass would keep seeing it forever).
			if c.cur.IsNil() || l.at(c.cur).Next[c.level].Load().Tag() == 0 && l.at(c.cur).Key.Load() >= key {
				// Level finished: record and descend (or finish).
				c.preds[c.level] = c.pred
				c.succs[c.level] = c.cur
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
				if !c.cur.IsNil() && c.cur == c.target {
					c.saw = true
				}
				return core.StepContinue, false
			}
			n := l.at(c.cur)
			next := n.Next[c.level].Load()
			if next.Tag() != 0 {
				// cur is marked at this level: unlink inside a masked
				// region with the operands shielded (no retirement here —
				// the clean-pass owner retires).
				nu := next.Untagged()
				h.maskPredS.ProtectSlot(c.pred)
				h.maskCurS.Protect(c.cur)
				h.maskNxS.Protect(nu)
				succ := false
				level := c.level
				pred, cur := c.pred, c.cur
				ran, mustRollback := h.h.Mask(func() {
					succ = l.pool.At(pred).Next[level].CompareAndSwap(cur, nu)
				})
				if mustRollback {
					return core.StepAbort, false
				}
				if !ran || !succ {
					return core.StepFail, false
				}
				c.cur = nu
				if !c.cur.IsNil() && c.cur == c.target {
					c.saw = true
				}
				return core.StepContinue, false
			}
			c.pred = c.cur.Slot()
			c.cur = next.Untagged()
			if !c.cur.IsNil() && c.cur == c.target {
				c.saw = true
			}
			return core.StepContinue, false
		},
	}
	c, found, ok := core.Traverse(h.h, &h.searchBuf, h.prot, h.backup, t)
	return c, found, ok
}

// find retries search until it succeeds, yielding between attempts so
// that on a single CPU two operations whose retries invalidate each other
// cannot ping-pong indefinitely.
func (h *ExpeditedHandle) find(key int64, target atomicx.Ref) (cursor, bool) {
	for attempt := 0; ; attempt++ {
		c, found, ok := h.search(key, target)
		if ok {
			return c, found
		}
		if attempt > 0 {
			runtime.Gosched()
		}
	}
}

// Get is GetOptimistic — the configuration the paper evaluates; the
// helping find serves Insert and Remove.
func (h *ExpeditedHandle) Get(key int64) (int64, bool) { return h.GetOptimistic(key) }

// GetOptimistic is the wait-free-style get on the Traverse engine: it
// skips marked nodes without helping (lock-free under HP-BRCU).
func (h *ExpeditedHandle) GetOptimistic(key int64) (int64, bool) {
	l := h.l.l
	t := core.Traversal[getCursor, bool]{
		Init: func() getCursor {
			return getCursor{
				level: MaxHeight - 1,
				pred:  l.head,
				cur:   l.pool.At(l.head).Next[MaxHeight-1].Load().Untagged(),
			}
		},
		Validate: func(c *getCursor) bool {
			if !l.notRetired(c.pred) {
				return false
			}
			return c.cur.IsNil() || l.notRetired(c.cur.Slot())
		},
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

// Insert maps key to val; it fails if key is already present.
func (h *ExpeditedHandle) Insert(key, val int64) bool {
	l := h.l.l
	for {
		c, found := h.find(key, atomicx.Nil)
		if found {
			return false
		}
		height := randomHeight(h.rng)
		slot, ref := l.newNode(h.cache, key, val, height, &c.succs)
		h.nodeS.ProtectSlot(slot)
		if !l.pool.At(c.preds[0]).Next[0].CompareAndSwap(c.succs[0], ref) {
			l.discard(h.cache, slot)
			continue
		}
		n := l.pool.At(slot)
		for level := 1; level < height; level++ {
			for {
				if l.pool.At(c.preds[level]).Next[level].CompareAndSwap(c.succs[level], ref) {
					break
				}
				c, _ = h.find(key, atomicx.Nil)
				if c.succs[0] != ref {
					h.nodeS.Clear()
					return true
				}
				old := n.Next[level].Load()
				if old.Tag() != 0 {
					h.nodeS.Clear()
					return true
				}
				if old != c.succs[level] && !n.Next[level].CompareAndSwap(old, c.succs[level]) {
					h.nodeS.Clear()
					return true
				}
			}
		}
		h.nodeS.Clear()
		return true
	}
}

// Remove unmaps key, returning the removed value.
func (h *ExpeditedHandle) Remove(key int64) (int64, bool) {
	l := h.l.l
	c, found := h.find(key, atomicx.Nil)
	if !found {
		return 0, false
	}
	ref := c.succs[0] // protected by prot
	val := l.at(ref).Val.Load()
	if !l.markTower(ref) {
		return 0, false
	}
	// We own the node now: scan until two consecutive clean passes (extra
	// margin against in-flight inserts re-linking the node), then retire
	// (two-step). Yield between passes: the unlink progress may depend on
	// other threads getting scheduled.
	for clean := 0; clean < 2; {
		cc, _ := h.find(key, ref)
		if cc.saw {
			clean = 0
			runtime.Gosched()
		} else {
			clean++
		}
	}
	l.pool.Hdr(ref.Slot()).Retire()
	h.h.Retire(ref.Slot(), l.pool)
	return val, true
}
