package nmtree

import (
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/ebr"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// EBR is a Natarajan-Mittal tree protected by epoch-based RCU (or nothing
// in NR mode).
type EBR struct {
	tree
	dom *ebr.Domain
}

// NewEBR creates a tree reclaimed by epoch-based RCU.
func NewEBR(opts ...ebr.Option) *EBR {
	return &EBR{tree: newTree(), dom: ebr.NewDomain(nil, opts...)}
}

// NewNR creates the no-reclamation baseline.
func NewNR() *EBR { return NewEBR(ebr.NoReclaim()) }

// Stats exposes reclamation statistics.
func (l *EBR) Stats() *stats.Reclamation { return l.dom.Stats() }

// EBRHandle is one thread's accessor.
type EBRHandle struct {
	ops
	h *ebr.Handle
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
