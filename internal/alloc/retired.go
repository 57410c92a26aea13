package alloc

// Retired is one node awaiting reclamation: the slot plus the pool that can
// free it. Every scheme in this repository batches these records.
type Retired struct {
	Slot uint64
	Pool Freer
	// At is the obs timestamp of the retirement (0 unless the
	// observability layer was enabled at retire time); reclamation paths
	// use it to record the retire→reclaim age histogram.
	At int64
}

// Frees gathers one reclamation pass into runs of consecutive records that
// share a pool and hands each run to its pool in one FreeSlots call. A
// handle's retired records almost always come from one pool, so a pass is
// usually one run and the grouping costs one comparison per record. A
// reclaimer owns one Frees and reuses it across passes, which keeps its
// buffer; it is not safe for concurrent use.
type Frees struct {
	pool  Freer
	slots []uint64
}

// Add queues r's slot, first freeing the queued run if r belongs to
// another pool.
func (f *Frees) Add(r Retired) {
	if r.Pool != f.pool {
		f.Flush()
		f.pool = r.Pool
	}
	f.slots = append(f.slots, r.Slot)
}

// Flush frees the queued run. The buffer is emptied before the pool sees
// it, so a FreeSlots that panics on a bad slot leaves nothing to be freed
// twice.
func (f *Frees) Flush() {
	pool, slots := f.pool, f.slots
	f.pool, f.slots = nil, f.slots[:0]
	if len(slots) > 0 {
		pool.FreeSlots(slots)
	}
}

// FreeAll frees every record of rs.
func (f *Frees) FreeAll(rs []Retired) {
	for _, r := range rs {
		f.Add(r)
	}
	f.Flush()
}
