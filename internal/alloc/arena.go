// Arena mode: segment-granularity reclamation (ISSUE 10).
//
// In pool mode every FreeSlot pushes one slot onto a shared freelist — a
// lock acquisition per reclaimed node, and a freelist whose length the GC
// must trace. Arena mode replaces that hot path with segment accounting:
// slabs are carved into fixed-size segments of segSize slots, each free
// only bumps an atomic per-segment counter, and when a segment's count
// reaches segSize (every slot freed, none re-handed out) the whole segment
// is tagged with the current grace epoch and parked in limbo. A later
// refill observes the grace edge having advanced past the tag and recycles
// the segment wholesale: 512 slots per lock acquisition instead of 1.
//
// Safety argument (DESIGN.md §16 states it in full): every individual slot
// is only handed to FreeSlot/FreeLocal after its reclamation scheme has
// verified the node's own grace period (HP scan, epoch quiescence, NBR
// neutralization, VBR version check). Segment recycling therefore never
// needs a grace period for correctness — the epoch tag adds a second,
// segment-wide grace interval on top for epoch-backed schemes (RCU/BRCU/
// EBR), which keeps whole-segment reuse at least one epoch behind the
// youngest free in the segment. Schemes without an epoch source leave
// graceSource nil and segments recycle immediately, which is exactly the
// per-node guarantee they already provide.
package alloc

import (
	"sync"
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/obs"
	"github.com/smrgo/hpbrcu/internal/stats"
)

// Mode selects the reclamation granularity of a Pool.
type Mode int

const (
	// ModePool is the default: per-slot freelist reuse (shared freelist +
	// per-thread cache, cacheBatch slots per lock acquisition).
	ModePool Mode = iota
	// ModeArena reclaims at segment granularity: frees bump per-segment
	// counters and whole segments of segSize slots are recycled once every
	// slot is free and the segment's epoch tag falls behind the grace edge.
	ModeArena
)

// String returns the mode's command-line spelling ("pool" or "arena").
func (m Mode) String() string {
	if m == ModeArena {
		return "arena"
	}
	return "pool"
}

// Arena segment geometry: a slab's entries are divided into segsPerSlab
// contiguous segments of segSize slots each. Segment boundaries are fixed
// by index arithmetic, so a segment never straddles slabs.
const (
	segBits     = 9 // 512 slots per segment
	segSize     = 1 << segBits
	segsPerSlab = slabSize / segSize
)

// segMeta is the per-segment accounting record. freed counts slots of the
// segment that have been freed and not yet re-handed out; when it reaches
// segSize the whole segment is free and is parked for wholesale recycling.
type segMeta struct {
	freed atomic.Uint32
}

// taggedSeg is a completed segment waiting in limbo for the grace edge to
// pass its tag. start is the first slot of the segment.
type taggedSeg struct {
	start uint64
	tag   uint64
}

// arenaState holds the arena-mode fields of a Pool, grouped so pool-mode
// pools pay only the struct space.
type arenaState struct {
	// graceSource, when set, returns the current grace epoch (brcu.Epoch,
	// ebr.Epoch). Completed segments are tagged with it and recycled only
	// once it has advanced past the tag. Nil means segments recycle
	// immediately — correct for schemes whose per-node grace is already
	// verified before FreeSlot (HP, NBR, VBR, NR). Set before workers
	// start; read without synchronization.
	graceSource func() uint64

	// segMu guards limbo and ready.
	segMu sync.Mutex
	// limbo holds completed segments whose epoch tag has not yet fallen
	// behind the grace edge, oldest first.
	limbo []taggedSeg
	// ready holds completed segments cleared for reuse.
	ready []uint64

	// rec, when set, mirrors the segment counters into the bound
	// stats.Reclamation (Stats().ArenaSegments*). Set before workers
	// start; read without synchronization.
	rec *stats.Reclamation

	// SegsGrown counts segments carved fresh from slabs; SegsRecycled
	// counts wholesale segment reuses; SegsLimbo gauges segments parked
	// awaiting their grace tag.
	SegsGrown    stats.Counter
	SegsRecycled stats.Counter
	SegsLimbo    stats.Gauge
}

// Mode reports the pool's reclamation granularity.
func (p *Pool[T]) Mode() Mode { return p.mode }

// SetGraceSource installs the epoch source used to tag completed segments;
// see the arenaState field comment. It is a no-op guard in pool mode only
// in the sense that pool mode never consults it.
func (p *Pool[T]) SetGraceSource(src func() uint64) { p.arena.graceSource = src }

// SetRecorder mirrors the pool's segment counters into rec (the domain's
// stats.Reclamation), so segment growth/recycling shows up in Snapshot.
// Several pools may share one recorder; the mirror is additive.
func (p *Pool[T]) SetRecorder(rec *stats.Reclamation) { p.arena.rec = rec }

// Binding is the mode-and-wiring subset of Pool that domains see when a
// data structure binds its pool to its domain (core.Domain.BindPool):
// enough to install the grace source and the stats mirror without knowing
// the node type.
type Binding interface {
	// Mode reports the pool's reclamation granularity.
	Mode() Mode
	// SetGraceSource installs the epoch source used to tag segments.
	SetGraceSource(func() uint64)
	// SetRecorder mirrors segment counters into the domain's stats.
	SetRecorder(*stats.Reclamation)
}

// segAccount records one freed slot against its segment. If this free
// completes the segment (freed == segSize), the segment is reset and
// parked: tagged into limbo when a grace source is installed, straight
// onto the ready list otherwise.
//
// The reset is race-free: between Add returning segSize and Store(0), no
// other free of this segment can run, because all segSize slots are free
// and none can be re-allocated until the segment passes through refill —
// which orders after the segMu push below.
func (p *Pool[T]) segAccount(slot uint64) {
	idx := slot - 1
	m := &p.slabs[idx>>slabBits].segs[(idx>>segBits)&(segsPerSlab-1)]
	if m.freed.Add(1) != segSize {
		return
	}
	m.freed.Store(0)
	start := (idx>>segBits)<<segBits + 1
	a := &p.arena
	a.segMu.Lock()
	if a.graceSource != nil {
		a.limbo = append(a.limbo, taggedSeg{start: start, tag: a.graceSource()})
		a.segMu.Unlock()
		a.SegsLimbo.Add(1)
		if a.rec != nil {
			a.rec.ArenaSegmentsLimbo.Add(1)
		}
		return
	}
	a.ready = append(a.ready, start)
	a.segMu.Unlock()
}

// refillArena loads the magazine with one whole segment: first harvesting
// limbo entries whose tag has fallen behind the grace edge, then popping a
// ready segment, and only when both are empty carving a fresh segment from
// the slabs (behind the grow gate, when gated — recycling never consults
// the gate, because reuse cannot increase the footprint).
func (p *Pool[T]) refillArena(c *Cache[T], gated bool) error {
	a := &p.arena
	a.segMu.Lock()
	if len(a.limbo) > 0 && a.graceSource != nil {
		// Harvest every expired segment, not just one: the grace edge
		// advances in bursts and limbo is oldest-first.
		edge := a.graceSource()
		n := 0
		for n < len(a.limbo) && a.limbo[n].tag < edge {
			a.ready = append(a.ready, a.limbo[n].start)
			n++
		}
		if n > 0 {
			a.limbo = append(a.limbo[:0], a.limbo[n:]...)
			a.SegsLimbo.Add(-int64(n))
			if a.rec != nil {
				a.rec.ArenaSegmentsLimbo.Add(-int64(n))
			}
		}
	}
	if n := len(a.ready); n > 0 {
		start := a.ready[n-1]
		a.ready = a.ready[:n-1]
		a.segMu.Unlock()
		for i := 0; i < segSize; i++ {
			c.slots = append(c.slots, start+uint64(i))
		}
		a.SegsRecycled.Inc()
		if a.rec != nil {
			a.rec.ArenaSegmentsRecycled.Inc()
		}
		if obs.On {
			c.trace.Rec(obs.EvSegReclaim, segSize)
		}
		return nil
	}
	a.segMu.Unlock()

	if gated && p.growGate != nil {
		if err := p.growGate(); err != nil {
			return err
		}
	}

	p.growMu.Lock()
	start := p.nextSlot
	// nextSlot starts at 1 and arena refills always carve exactly segSize
	// slots, so fresh segments stay aligned to segment boundaries.
	for i := 0; i < segSize; i++ {
		slot := start + uint64(i)
		idx := slot - 1
		si := idx >> slabBits
		if si >= maxSlabs {
			p.growMu.Unlock()
			panic("alloc: pool exhausted (maxSlabs reached)")
		}
		if p.slabs[si] == nil {
			p.slabs[si] = new(slab[T])
		}
		c.slots = append(c.slots, slot)
	}
	p.nextSlot = start + segSize
	p.growMu.Unlock()
	a.SegsGrown.Inc()
	if a.rec != nil {
		a.rec.ArenaSegmentsGrown.Inc()
	}
	if obs.On {
		c.trace.Rec(obs.EvSegGrow, segSize)
	}
	return nil
}
