package alloc

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/smrgo/hpbrcu/internal/stats"
)

// drainCache retires and frees every slot currently magazined in c via
// FreeSlot, so segment accounting sees them.
func drainCache(p *Pool[testNode], c *Cache[testNode]) {
	for len(c.slots) > 0 {
		s, _ := p.Alloc(c)
		p.Hdr(s).Retire()
		p.FreeSlot(s)
	}
}

func TestArenaBasic(t *testing.T) {
	p := NewPool[testNode](ModeArena)
	if p.Mode() != ModeArena {
		t.Fatal("mode not recorded")
	}
	c := p.NewCache()
	slot, n := p.Alloc(c)
	if slot == 0 || p.At(slot) != n {
		t.Fatal("arena Alloc broken")
	}
	if p.arena.SegsGrown.Load() != 1 {
		t.Fatalf("SegsGrown = %d, want 1 after first refill", p.arena.SegsGrown.Load())
	}
	// The first refill magazines the whole first segment.
	if len(c.slots) != segSize-1 {
		t.Fatalf("magazine holds %d slots, want %d", len(c.slots), segSize-1)
	}
	p.Hdr(slot).Retire()
	p.FreeSlot(slot)
	if got := p.Hdr(slot).State(); got != StateFree {
		t.Fatalf("state after free = %d, want Free", got)
	}
}

// TestArenaSegmentRecycle completes a whole segment via FreeSlot with no
// grace source installed and checks the next refill recycles it instead of
// carving a fresh segment.
func TestArenaSegmentRecycle(t *testing.T) {
	p := NewPool[testNode](ModeArena)
	c := p.NewCache()

	// Allocate exactly one segment and free every slot back through
	// segment accounting.
	slots := make([]uint64, 0, segSize)
	for i := 0; i < segSize; i++ {
		s, _ := p.Alloc(c)
		slots = append(slots, s)
	}
	versions := make(map[uint64]uint64, segSize)
	for _, s := range slots {
		versions[s] = p.Hdr(s).Version()
		p.Hdr(s).Retire()
		p.FreeSlot(s)
	}
	if got := p.arena.SegsRecycled.Load(); got != 0 {
		t.Fatalf("SegsRecycled = %d before any refill, want 0", got)
	}

	// The next refill must pop the completed segment, not carve slab space.
	grown := p.arena.SegsGrown.Load()
	s, _ := p.Alloc(c)
	if p.arena.SegsGrown.Load() != grown {
		t.Fatal("refill carved a fresh segment despite a ready one")
	}
	if p.arena.SegsRecycled.Load() != 1 {
		t.Fatalf("SegsRecycled = %d, want 1", p.arena.SegsRecycled.Load())
	}
	if _, ok := versions[s]; !ok {
		t.Fatalf("recycled alloc returned slot %d outside the completed segment", s)
	}
	if got := p.Hdr(s).Version(); got != versions[s]+1 {
		t.Fatalf("recycled slot version = %d, want %d (ABA bump)", got, versions[s]+1)
	}
}

// TestArenaGraceTag installs a controllable grace source and checks that a
// completed segment stays in limbo until the epoch advances past its tag,
// with fresh carving (never premature reuse) covering the gap.
func TestArenaGraceTag(t *testing.T) {
	p := NewPool[testNode](ModeArena)
	var epoch atomic.Uint64
	epoch.Store(5)
	p.SetGraceSource(epoch.Load)

	c := p.NewCache()
	slots := make([]uint64, 0, segSize)
	for i := 0; i < segSize; i++ {
		s, _ := p.Alloc(c)
		slots = append(slots, s)
	}
	inSeg := make(map[uint64]bool, segSize)
	for _, s := range slots {
		inSeg[s] = true
		p.Hdr(s).Retire()
		p.FreeSlot(s)
	}
	if got := p.arena.SegsLimbo.Load(); got != 1 {
		t.Fatalf("SegsLimbo = %d, want 1 (tagged segment parked)", got)
	}

	// Epoch unchanged: the refill must not touch the limbo segment.
	s, _ := p.Alloc(c)
	if inSeg[s] {
		t.Fatalf("slot %d reused while its segment's tag had not cleared the grace edge", s)
	}
	if p.arena.SegsGrown.Load() != 2 {
		t.Fatalf("SegsGrown = %d, want 2 (fresh carve while limbo blocked)", p.arena.SegsGrown.Load())
	}

	// Advance the epoch past the tag: the next refill harvests the
	// segment. Drain the magazine first so Alloc is forced to refill.
	epoch.Add(1)
	drainCache(p, c)
	for i := 0; i < 2*segSize; i++ {
		s, _ := p.Alloc(c)
		if inSeg[s] {
			if p.arena.SegsRecycled.Load() == 0 {
				t.Fatal("segment slot reused without SegsRecycled accounting")
			}
			if p.arena.SegsLimbo.Load() != 0 {
				t.Fatalf("SegsLimbo = %d after harvest, want 0", p.arena.SegsLimbo.Load())
			}
			return
		}
	}
	t.Fatal("limbo segment never recycled after the grace edge advanced")
}

// TestArenaFreeLocalOverflow fills the magazine past a whole segment so
// FreeLocal's overflow path routes frees through segment accounting.
func TestArenaFreeLocalOverflow(t *testing.T) {
	p := NewPool[testNode](ModeArena)
	c := p.NewCache()
	// Take two segments' worth of slots live, then free them all locally:
	// the first segSize stay magazined, the remainder must hit segAccount
	// and eventually complete a segment.
	slots := make([]uint64, 0, 2*segSize)
	for i := 0; i < 2*segSize; i++ {
		s, _ := p.Alloc(c)
		slots = append(slots, s)
	}
	for _, s := range slots {
		p.Hdr(s).Retire()
		p.FreeLocal(c, s)
	}
	if len(c.slots) != segSize {
		t.Fatalf("magazine holds %d slots, want %d (overflow must not cache)", len(c.slots), segSize)
	}
	var accounted uint32
	for si := 0; p.slabs[si] != nil; si++ {
		for g := range p.slabs[si].segs {
			accounted += p.slabs[si].segs[g].freed.Load()
		}
	}
	recycledSlots := uint32(p.arena.SegsRecycled.Load()) * segSize
	readySlots := uint32(len(p.arena.ready)) * segSize
	if accounted+recycledSlots+readySlots != segSize {
		t.Fatalf("segment accounting saw %d frees (+%d recycled, +%d ready), want %d total",
			accounted, recycledSlots, readySlots, segSize)
	}
}

// TestArenaStress races allocation, retirement, FreeSlot segment
// accounting, magazine refill (limbo harvest + fresh carve), and a
// concurrently advancing grace edge. Run under -race this checks the
// segMu/atomic protocol; in any mode it checks nodes are never stolen
// while live.
func TestArenaStress(t *testing.T) {
	p := NewPool[testNode](ModeArena)
	var epoch atomic.Uint64
	p.SetGraceSource(epoch.Load)

	const workers = 8
	const perWorker = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Epoch advancer: keeps limbo draining while segments complete.
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				epoch.Add(1)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			c := p.NewCache()
			var mine []uint64
			for i := 0; i < perWorker; i++ {
				s, n := p.Alloc(c)
				n.key = id
				mine = append(mine, s)
				if i%2 == 0 && len(mine) > 8 {
					victim := mine[0]
					mine = mine[1:]
					if p.At(victim).key != id {
						t.Errorf("node %d stolen: key=%d want %d", victim, p.At(victim).key, id)
						return
					}
					p.Hdr(victim).Retire()
					if i%4 == 0 {
						p.FreeSlot(victim) // shared path: segment accounting
					} else {
						p.FreeLocal(c, victim) // magazine path
					}
				}
			}
			for _, s := range mine {
				p.Hdr(s).Retire()
				p.FreeSlot(s)
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	if p.Live.Load() != 0 {
		t.Fatalf("leak: %d live nodes after teardown", p.Live.Load())
	}
	if p.arena.SegsGrown.Load() == 0 {
		t.Fatal("stress run never carved a segment")
	}
}

// TestArenaRecorderMirror checks segment counters mirror into a bound
// stats.Reclamation.
func TestArenaRecorderMirror(t *testing.T) {
	p := NewPool[testNode](ModeArena)
	var epoch atomic.Uint64
	p.SetGraceSource(epoch.Load)
	rec := &stats.Reclamation{}
	p.SetRecorder(rec)

	c := p.NewCache()
	slots := make([]uint64, 0, segSize)
	for i := 0; i < segSize; i++ {
		s, _ := p.Alloc(c)
		slots = append(slots, s)
	}
	if rec.ArenaSegmentsGrown.Load() != 1 {
		t.Fatalf("mirrored SegsGrown = %d, want 1", rec.ArenaSegmentsGrown.Load())
	}
	for _, s := range slots {
		p.Hdr(s).Retire()
		p.FreeSlot(s)
	}
	if rec.ArenaSegmentsLimbo.Load() != 1 {
		t.Fatalf("mirrored SegsLimbo = %d, want 1", rec.ArenaSegmentsLimbo.Load())
	}
	epoch.Add(1)
	drainCache(p, c)
	for i := 0; i < 2*segSize && rec.ArenaSegmentsRecycled.Load() == 0; i++ {
		s, _ := p.Alloc(c)
		p.Hdr(s).Retire()
		p.FreeSlot(s)
	}
	if rec.ArenaSegmentsRecycled.Load() == 0 {
		t.Fatal("mirrored SegsRecycled never incremented")
	}
	if rec.ArenaSegmentsLimbo.Peak() != 1 {
		t.Fatalf("mirrored limbo peak = %d, want 1", rec.ArenaSegmentsLimbo.Peak())
	}
}
