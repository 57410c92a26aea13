// Package hashmap names the paper's chaining hash table (§6): a fixed
// array of buckets, each a sorted linked list — Harris-Michael lists for
// the plain-HP variant, HHSList (Harris list with the optimistic get) for
// every other scheme. A bucket is nothing but a head sentinel, so the map
// is package hlist's list with n heads: all buckets share one node pool
// and one reclamation domain, exactly like the evaluation's configuration
// where reclamation thresholds are global, not per bucket, and a handle
// switches bucket by storing one head slot — the same store under every
// scheme. Only the VBR map, whose list is a different algorithm, lives
// here.
package hashmap

import (
	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/brcu"
	"github.com/smrgo/hpbrcu/internal/core"
	"github.com/smrgo/hpbrcu/internal/ds/hlist"
	"github.com/smrgo/hpbrcu/internal/ds/lnode"
	"github.com/smrgo/hpbrcu/internal/hp"
	"github.com/smrgo/hpbrcu/internal/nbr"
	"github.com/smrgo/hpbrcu/internal/stats"
	"github.com/smrgo/hpbrcu/internal/vbr"
)

// DefaultBucketsFor sizes the table so the expected chain length at 50 %
// fill matches the paper's reported ~1.7 nodes per traversal.
func DefaultBucketsFor(keyRange int64) int {
	b := int(keyRange / 4)
	if b < 1 {
		b = 1
	}
	return b
}

// The map and handle types are hlist's.
type (
	// EBR is the hash map over HHSList buckets under epoch-based RCU (or NR).
	EBR = hlist.EBR
	// HP is the hash map over Harris-Michael buckets under plain hazard
	// pointers (HP cannot protect the optimistic HHSList, Table 1).
	HP = hlist.HP
	// Expedited is the hash map over HHSList buckets under HP-RCU or HP-BRCU.
	Expedited = hlist.Expedited
	// NBR is the hash map over HHSList buckets under neutralization-based
	// reclamation.
	NBR = hlist.NBR
)

// NewEBR creates an RCU-protected map with n buckets.
func NewEBR(n int, opts ...brcu.Option) *EBR { return hlist.NewEBROf(hlist.HHS, n, opts...) }

// NewNR creates the no-reclamation baseline map.
func NewNR(n int) *EBR { return NewEBR(n, brcu.NoReclaim()) }

// NewHP creates a hazard-pointer-protected map with n buckets.
func NewHP(n int, opts ...hp.Option) *HP { return hlist.NewHPOf(n, opts...) }

// NewHPRCU creates an HP-RCU-protected map with n buckets.
func NewHPRCU(n int, cfg core.Config) *Expedited {
	return hlist.NewExpeditedOf(core.BackendRCU, hlist.HHS, n, cfg)
}

// NewHPBRCU creates an HP-BRCU-protected map with n buckets.
func NewHPBRCU(n int, cfg core.Config) *Expedited {
	return hlist.NewExpeditedOf(core.BackendBRCU, hlist.HHS, n, cfg)
}

// NewNBR creates an NBR-protected map with n buckets.
func NewNBR(n int, opts ...nbr.Option) *NBR { return hlist.NewNBROf(hlist.HHS, n, opts...) }

// NewNBRLarge creates the paper's NBR-Large configuration; the batch size
// is applied on top of opts.
func NewNBRLarge(n int, opts ...nbr.Option) *NBR {
	return NewNBR(n, append(opts[:len(opts):len(opts)], nbr.WithBatchSize(nbr.LargeBatchSize))...)
}

// VBR is the hash map over VBR lists (version-based reclamation).
type VBR struct {
	rec     *stats.Reclamation
	buckets []*vbr.List
}

// NewVBR creates a VBR-protected map with n buckets.
func NewVBR(n int) *VBR {
	pool := alloc.NewPool[lnode.Node]()
	cache := pool.NewCache()
	rec := &stats.Reclamation{}
	m := &VBR{rec: rec, buckets: make([]*vbr.List, n)}
	for i := range m.buckets {
		m.buckets[i] = vbr.NewShared(pool, cache, rec)
	}
	return m
}

// Stats exposes reclamation statistics.
func (m *VBR) Stats() *stats.Reclamation { return m.rec }

// VBRHandle is one thread's accessor: a single vbr.Handle, and so a single
// allocation cache, re-bound to key's bucket by each operation — the
// analogue of hlist's bind.
type VBRHandle struct {
	buckets []*vbr.List
	h       *vbr.Handle
}

// Register creates a thread handle; its cost does not depend on the
// bucket count.
func (m *VBR) Register() *VBRHandle {
	return &VBRHandle{buckets: m.buckets, h: m.buckets[0].Register()}
}

// Unregister releases the handle.
func (h *VBRHandle) Unregister() {}

// Barrier is a no-op: VBR never defers reclamation.
func (h *VBRHandle) Barrier() {}

func (h *VBRHandle) bucket(key int64) *vbr.Handle {
	h.h.Rebind(h.buckets[hlist.BucketOf(key, len(h.buckets))])
	return h.h
}

// Get returns the value mapped to key.
func (h *VBRHandle) Get(key int64) (int64, bool) { return h.bucket(key).Get(key) }

// Insert maps key to val; it fails if key is already present.
func (h *VBRHandle) Insert(key, val int64) bool { return h.bucket(key).Insert(key, val) }

// Remove unmaps key, returning the removed value.
func (h *VBRHandle) Remove(key int64) (int64, bool) { return h.bucket(key).Remove(key) }
