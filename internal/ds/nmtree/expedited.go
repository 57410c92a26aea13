package nmtree

import (
	"runtime"

	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Expedited is a Natarajan-Mittal tree protected by HP-RCU or HP-BRCU.
// The seek is pure, so the whole descent runs in critical sections with
// the seek record checkpointed into four shields at the end; all writes
// (injection, tagging, splicing, retirement) run outside the critical
// section on the protected record, exactly like plain HP would — except
// that plain HP could never have traversed to the record safely.
//
// Revalidation (§3.3) for a mid-path checkpoint re-reads the recorded
// parent→leaf edge: marks (flag/tag) are set before any splice and never
// cleared from a field value, so observing the edge clean and unchanged
// proves the parent was not yet spliced out — the tree's analogue of the
// lists' logical-deletion check.
type Expedited struct {
	tree
	dom *core.Domain
}

func newExpedited(backend core.Backend, cfg core.Config) *Expedited {
	return &Expedited{tree: newTree(), dom: core.NewDomain(backend, cfg)}
}

// NewHPRCU creates a tree protected by HP-RCU (§3).
func NewHPRCU(cfg core.Config) *Expedited { return newExpedited(core.BackendRCU, cfg) }

// NewHPBRCU creates a tree protected by HP-BRCU (§4).
func NewHPBRCU(cfg core.Config) *Expedited { return newExpedited(core.BackendBRCU, cfg) }

// Stats exposes reclamation statistics.
func (l *Expedited) Stats() *stats.Reclamation { return l.dom.Stats() }

// Domain exposes the underlying HP-(B)RCU domain.
func (l *Expedited) Domain() *core.Domain { return l.dom }

// treeProtector checkpoints a seek cursor into four shields.
type treeProtector struct {
	ancS, sucS, parS, leafS *hp.Shield
}

func newTreeProtector(h *core.Handle) *treeProtector {
	return &treeProtector{
		ancS: h.NewShield(), sucS: h.NewShield(),
		parS: h.NewShield(), leafS: h.NewShield(),
	}
}

// Protect implements core.Protector.
func (p *treeProtector) Protect(c *seekCursor) {
	p.ancS.ProtectSlot(c.sr.ancestor)
	p.sucS.ProtectSlot(c.sr.successor)
	p.parS.ProtectSlot(c.sr.parent)
	p.leafS.ProtectSlot(c.sr.leaf)
}

// ClearProtection releases every shield (core.ProtectionClearer); the
// recover barrier calls it when a panic abandons a traversal.
func (p *treeProtector) ClearProtection() {
	p.ancS.Clear()
	p.sucS.Clear()
	p.parS.Clear()
	p.leafS.Clear()
}

// ExpeditedHandle is one thread's accessor.
type ExpeditedHandle struct {
	ops
	h *core.Handle

	prot, backup *treeProtector

	// Handle-owned traversal state, so descents never heap-allocate their
	// cursors.
	seekBuf core.CursorBuf[seekCursor]
}

// Register creates a thread handle.
func (l *Expedited) Register() *ExpeditedHandle {
	d := l.dom.Register()
	h := &ExpeditedHandle{h: d, prot: newTreeProtector(d), backup: newTreeProtector(d)}
	h.seekBuf.Init(d, h.prot, h.backup)
	h.init(&l.tree, h)
	return h
}

// Unregister releases the handle.
func (h *ExpeditedHandle) Unregister() { h.h.Unregister() }

// Core exposes the composed HP-(B)RCU participation record, so the
// lifecycle layer can arrange its adoption (core.AdoptWhenUnreachable).
func (h *ExpeditedHandle) Core() *core.Handle { return h.h }

// Barrier drains reclamation (teardown/tests).
func (h *ExpeditedHandle) Barrier() { h.h.Barrier() }

// seek repeats descend until a descent reaches a leaf, and returns the
// seek record, protected by prot until the next seek.
func (h *ExpeditedHandle) seek(key int64) seekRecord {
	for attempt := 0; ; attempt++ {
		if sr, ok := h.descend(key); ok {
			return sr
		}
		if attempt > 0 {
			runtime.Gosched() // a rollback invalidated a mid-path checkpoint; rare
		}
	}
}

// descend runs the NM seek once: ebr.go's loop over seekStep with Step
// before every edge, the record shielded at the leaf before Conclude's poll
// commits it. ok is false when it must be retried from the root.
func (h *ExpeditedHandle) descend(key int64) (seekRecord, bool) {
	t := h.t
	a := h.seekBuf.Try()
	c := t.seekInit()
	for {
		if !a.Step() {
			valid := func(c *seekCursor) bool { return t.resumable(key, c) }
			var ok bool
			if c, ok = h.seekBuf.Walk(&a, c, t.seekInit, valid, nil); !ok {
				return seekRecord{}, false
			}
		}
		if t.seekStep(key, &c) {
			h.seekBuf.Shield(c)
			if a.Conclude() {
				return c.sr, true
			}
		}
	}
}

// resumable is descend's valid: a checkpointed cursor can be resumed from
// while its parent→leaf edge is still clean and unchanged, so the parent
// was not spliced out (Expedited).
func (t *tree) resumable(key int64, c *seekCursor) bool {
	if c.sr.parent == t.root {
		return true // initial cursor: resuming from the root
	}
	e := t.childEdge(t.pool.At(c.sr.parent), key).Load()
	return e == c.leafEdge && e.Tag() == 0
}

// retire is the two-step retirement; legal outside critical sections.
func (h *ExpeditedHandle) retire(slot uint64) { h.h.Retire(slot, h.t.pool) }

// release is a no-op: prot holds the record until the next traversal.
func (h *ExpeditedHandle) release() {}
