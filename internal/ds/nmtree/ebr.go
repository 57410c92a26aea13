package nmtree

import (
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// EBR is a Natarajan-Mittal tree protected by epoch-based RCU (or nothing
// in NR mode): a BRCU domain that never signals.
type EBR struct {
	tree
	dom *brcu.Domain
}

// NewEBR creates a tree reclaimed by epoch-based RCU. brcu.NeverSignal is
// added after opts, since these sections never poll.
func NewEBR(opts ...brcu.Option) *EBR {
	return &EBR{tree: newTree(), dom: brcu.NewDomain(nil, append(opts, brcu.NeverSignal())...)}
}

// NewNR creates the no-reclamation baseline.
func NewNR() *EBR { return NewEBR(brcu.NoReclaim()) }

// Stats exposes reclamation statistics.
func (l *EBR) Stats() *stats.Reclamation { return l.dom.Stats() }

// EBRHandle is one thread's accessor.
type EBRHandle struct {
	ops
	h *brcu.Handle
}

// Register creates a thread handle.
func (l *EBR) Register() *EBRHandle {
	h := &EBRHandle{h: l.dom.Register()}
	h.init(&l.tree, h)
	return h
}

// Unregister releases the handle.
func (h *EBRHandle) Unregister() { h.h.Unregister() }

// Barrier drains reclamation (teardown/tests).
func (h *EBRHandle) Barrier() { h.h.Barrier() }

// seek pins and runs the NM seek to a leaf; the pin is the protection,
// and what release drops.
func (h *EBRHandle) seek(key int64) seekRecord {
	h.h.Pin()
	t := h.t
	c := t.seekInit()
	yc := 0
	for !t.seekStep(key, &c) {
		atomicx.StepYield(&yc)
	}
	return c.sr
}

func (h *EBRHandle) retire(slot uint64) { h.h.Defer(slot, h.t.pool) }
func (h *EBRHandle) release()           { h.h.Unpin() }
