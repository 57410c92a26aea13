// Package hp implements hazard pointers (Michael 2002/2004), Algorithm 1 of
// the paper: per-pointer Shields, validated protection (ProtectFrom), batch
// Retire, and shield-scanning Reclaim.
//
// HP is both a baseline scheme in the evaluation and the fine-grained half
// of HP-RCU/HP-BRCU, which reuse Shield and Reclaim unchanged and only
// re-implement Retire (two-step retirement, Algorithm 4).
//
// Go's sync/atomic operations are sequentially consistent, which provides
// the fence(SC) required between publishing a protection and re-reading the
// source for validation (Algorithm 1 line 7) and between taking the retired
// list and scanning shields (line 13).
package hp

import (
	"sync"
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/obs"
	"github.com/smrgo/hpbrcu/internal/registry"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// DefaultScanThreshold is the per-thread retired-node count that triggers a
// reclamation pass. The paper's evaluation triggers reclamation per 128
// retirements for all schemes (§6).
const DefaultScanThreshold = 128

// Domain owns the shield registry and reclamation statistics for one data
// structure instance.
type Domain struct {
	scanThreshold int
	rec           *stats.Reclamation

	handles registry.Registry[Handle]

	// shields tracks the number of currently registered shields and its
	// peak — the H term of the §5 bound 2GN+GN²+H, taken from the real
	// registry instead of a per-structure magic constant.
	shields stats.Gauge

	// orphans holds retired nodes abandoned by unregistered handles.
	orphanMu sync.Mutex
	orphans  []alloc.Retired
}

// Option configures a Domain.
type Option func(*Domain)

// WithScanThreshold overrides the per-thread retire batch size.
func WithScanThreshold(n int) Option {
	return func(d *Domain) {
		if n > 0 {
			d.scanThreshold = n
		}
	}
}

// NewDomain creates a hazard-pointer domain reporting into rec. A nil rec
// allocates a private one.
func NewDomain(rec *stats.Reclamation, opts ...Option) *Domain {
	if rec == nil {
		rec = &stats.Reclamation{}
	}
	d := &Domain{scanThreshold: DefaultScanThreshold, rec: rec}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Stats returns the domain's reclamation statistics.
func (d *Domain) Stats() *stats.Reclamation { return d.rec }

// Shields returns the number of currently registered shields.
func (d *Domain) Shields() int64 { return d.shields.Load() }

// ShieldsPeak returns the highest number of simultaneously registered
// shields observed — the H to evaluate the §5 bound with after a run.
func (d *Domain) ShieldsPeak() int64 { return d.shields.Peak() }

// Handle is a thread's participation record. Handles are not safe for
// concurrent use; each worker registers its own.
type Handle struct {
	d       *Domain
	shields atomic.Pointer[[]*Shield] // owner appends; reclaimers scan
	retired []alloc.Retired
	scratch map[uint64]int // reused protected-slot multiset keyed by slot
	frees   alloc.Frees    // a pass's unprotected nodes, freed per pool at once
	trace   *obs.Trace     // reclaim events; nil with observability off

	// scanAt is the retired-list length that triggers the next Reclaim:
	// the survivors of the last scan plus the scan threshold. A fixed
	// `len(retired) >= threshold` check degenerates into a full shield
	// scan per retire once `threshold` nodes are pinned by live shields
	// (each scan keeps them all and the very next retire re-triggers);
	// the moving watermark always buys a full batch of new retirements
	// between scans. Survivors are capped by the live-shield count, so
	// scanAt ≤ H + threshold and the §5 bound 2GN+GN²+H still holds.
	// Owner-goroutine-only.
	scanAt int
}

// Register adds a thread to the domain.
func (d *Domain) Register() *Handle {
	h := &Handle{d: d, scratch: make(map[uint64]int), scanAt: d.scanThreshold}
	if obs.On {
		h.trace = obs.NewTrace("hp")
	}
	empty := []*Shield{}
	h.shields.Store(&empty)
	d.handles.Add(h)
	return h
}

// Unregister removes the thread. Its shields are cleared and any still
// pending retired nodes are handed to the domain for later reclamation.
// internal/core also runs it on the finalizer goroutine for a handle whose
// owner is gone (adoption), so it reads the shield list through one load.
func (h *Handle) Unregister() {
	// One snapshot for both the clear loop and the gauge: the two loads
	// could otherwise disagree if this handle's owner leaked mid-NewShield
	// and the slice grew between them.
	shields := *h.shields.Load()
	for _, s := range shields {
		s.Clear()
	}
	d := h.d
	d.shields.Add(-int64(len(shields)))
	empty := []*Shield{}
	h.shields.Store(&empty) // an unregistered handle must not keep live shields
	if len(h.retired) > 0 {
		d.orphanMu.Lock()
		d.orphans = append(d.orphans, h.retired...)
		d.orphanMu.Unlock()
		h.retired = nil
	}
	d.handles.Remove(h)
}

// Shield is a single protection slot for a node (Algorithm 1). The zero
// value protects nothing.
//
// The slot is cache-line-padded: a bare shield is an 8-byte heap object,
// so the allocator's size classes would pack eight of them — typically
// owned by eight different threads — into one line, and every Protect
// store would invalidate the other seven owners' cached copies as well as
// every reclaimer mid-scan. Padding gives each shield a private line.
type Shield struct {
	slot atomicx.Padded
}

// NewShield creates and registers a shield owned by h.
func (h *Handle) NewShield() *Shield {
	s := &Shield{}
	old := *h.shields.Load()
	next := make([]*Shield, len(old)+1)
	copy(next, old)
	next[len(old)] = s
	h.shields.Store(&next) // owner-only write; reclaimers read the snapshot
	h.d.shields.Add(1)
	return s
}

// Protect publishes protection of the node referred to by r (tag bits are
// ignored). The protection is not validated; see ProtectFrom.
func (s *Shield) Protect(r atomicx.Ref) {
	if fault.On {
		// Stall in the classic HP race window: the reference is loaded
		// but the protection not yet published.
		fault.Fire(fault.SiteShield)
	}
	s.slot.Store(r.Slot())
}

// ProtectSlot publishes protection of a raw slot index.
func (s *Shield) ProtectSlot(slot uint64) {
	if fault.On {
		fault.Fire(fault.SiteShield)
	}
	s.slot.Store(slot)
}

// Clear removes the protection.
func (s *Shield) Clear() { s.slot.Store(0) }

// Get returns the currently protected slot (0 when clear).
func (s *Shield) Get() uint64 { return s.slot.Load() }

// ProtectFrom loads a reference from src, protects it, and validates that
// src still holds the same reference (Algorithm 1, ProtectFrom). On return
// the referent — if non-nil — was reachable from src after the protection
// was published and therefore cannot be reclaimed while the shield holds.
//
// The returned reference is the validated value of src, tag bits included.
func ProtectFrom(s *Shield, src *atomicx.AtomicRef) atomicx.Ref {
	r := src.Load()
	for {
		s.Protect(r) // SC store; no explicit fence needed in Go
		v := src.Load()
		if v == r {
			return r
		}
		r = v
	}
}

// Retire schedules the node for reclamation once no shield protects it.
// Reclamation runs inline when the thread's batch reaches the scan
// threshold.
func (h *Handle) Retire(slot uint64, pool alloc.Freer) {
	h.d.rec.Retired.Inc()
	h.d.rec.Unreclaimed.Add(1)
	r := alloc.Retired{Slot: slot, Pool: pool}
	if obs.On {
		r.At = obs.Nanos()
	}
	h.retired = append(h.retired, r)
	if len(h.retired) >= h.scanAt {
		h.Reclaim()
	}
}

// RetireRecords is the inner HP-Retire of two-step retirement
// (internal/core): it appends a whole expired (B)RCU batch to the retired
// list and scans once if that reaches the threshold. It does not touch the
// Retired/Unreclaimed statistics — HP-RCU/HP-BRCU count a node at the
// outer Retire — and it keeps the records whole, so the outer Retire's obs
// timestamp survives and the retire→reclaim age histogram measures the
// full two-step lifetime.
func (h *Handle) RetireRecords(rs []alloc.Retired) {
	h.retired = append(h.retired, rs...)
	if len(h.retired) >= h.scanAt {
		h.Reclaim()
	}
}

// Reclaim scans all shields and frees every retired node that is not
// protected (Algorithm 1, Reclaim). Unprotected orphans from unregistered
// threads are adopted and freed too. The pass's frees reach each pool as
// one FreeSlots batch.
func (h *Handle) Reclaim() {
	d := h.d

	d.orphanMu.Lock()
	if len(d.orphans) > 0 {
		h.retired = append(h.retired, d.orphans...)
		d.orphans = nil
	}
	d.orphanMu.Unlock()

	// Snapshot every shield. SC loads order this scan after the retire
	// batch was taken, matching Algorithm 1 line 13's fence.
	protected := h.scratch
	clear(protected)
	for _, other := range d.handles.Snapshot() {
		for _, s := range *other.shields.Load() {
			if slot := s.Get(); slot != 0 {
				protected[slot]++
			}
		}
	}

	var now int64
	if obs.On {
		now = obs.Nanos()
	}
	kept := h.retired[:0]
	freed := int64(0)
	for _, r := range h.retired {
		if _, ok := protected[r.Slot]; ok {
			kept = append(kept, r)
			continue
		}
		h.frees.Add(r)
		freed++
		if now != 0 && r.At != 0 {
			d.rec.ReclaimAgeNanos.Record(now - r.At)
		}
	}
	h.frees.Flush()
	h.retired = kept
	// Move the watermark past the survivors so the next scan is earned by
	// a full batch of fresh retirements, not re-triggered per retire by
	// nodes still pinned under live shields (see scanAt).
	h.scanAt = len(kept) + d.scanThreshold
	if freed > 0 {
		d.rec.Reclaimed.Add(freed)
		d.rec.Unreclaimed.Add(-freed)
	}
	if obs.On {
		h.trace.Rec(obs.EvReclaim, freed)
	}
}

// PendingRetired reports the number of nodes this handle is still holding.
func (h *Handle) PendingRetired() int { return len(h.retired) }
