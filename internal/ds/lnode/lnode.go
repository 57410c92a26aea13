// Package lnode provides the node and list-core shared by every sorted
// linked list in this repository (Harris, Harris-Michael, and the
// Herlihy-Shavit wait-free-get variant) and by the chaining hash map's
// buckets.
//
// A node's mark (logical deletion, Harris 2001) is tag bit 0 of its Next
// reference. Key and Val are atomics so that a neutralized-but-not-yet-
// rolled-back reader racing with slot reuse stays within the Go memory
// model (DESIGN.md §2); all schemes pay the same negligible cost.
package lnode

import (
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
)

// MarkBit is the logical-deletion tag on a node's Next reference.
const MarkBit = 1

// MinKey is the head sentinel's key; user keys must be greater.
const MinKey = -1 << 63

// Node is one list element.
type Node struct {
	Key  atomic.Int64
	Val  atomic.Int64
	Next atomicx.AtomicRef
}

// List is the scheme-independent list core: a node pool plus an immortal
// head sentinel.
type List struct {
	Pool *alloc.Pool[Node]
	Head uint64 // slot of the sentinel; never retired
}

// New creates an empty list with its own pool.
func New() *List {
	pool := alloc.NewPool[Node]()
	return NewShared(pool, pool.NewCache())
}

// NewShared creates a list whose nodes live in an existing pool.
func NewShared(pool *alloc.Pool[Node], cache *alloc.Cache[Node]) *List {
	return &List{Pool: pool, Head: NewHead(pool, cache)}
}

// NewHead allocates one head sentinel in pool and returns its slot. A
// sentinel is never retired, so a List is fully described by (Pool, Head):
// the hash map keeps one head slot per bucket and no List at all.
func NewHead(pool *alloc.Pool[Node], cache *alloc.Cache[Node]) uint64 {
	slot, n := pool.Alloc(cache)
	n.Key.Store(MinKey)
	n.Next.Store(atomicx.Nil)
	return slot
}

// At resolves a reference to its node, ignoring tag bits.
func (l *List) At(r atomicx.Ref) *Node { return l.Pool.At(r.Slot()) }

// NewNode allocates and initializes an unpublished node.
func (l *List) NewNode(c *alloc.Cache[Node], key, val int64, next atomicx.Ref) (uint64, atomicx.Ref) {
	slot, n := l.Pool.Alloc(c)
	n.Key.Store(key)
	n.Val.Store(val)
	n.Next.Store(next.Untagged())
	return slot, atomicx.MakeRef(slot, 0)
}

// Discard returns an unpublished node straight to the pool (e.g. an insert
// that lost to an existing key). The node was never reachable, so no
// reclamation scheme is involved.
func (l *List) Discard(c *alloc.Cache[Node], slot uint64) {
	l.Pool.Hdr(slot).Retire()
	l.Pool.FreeLocal(c, slot)
}

// LenSlow counts unmarked nodes; single-threaded use only (tests, checks).
func (l *List) LenSlow() int {
	n := 0
	r := l.Pool.At(l.Head).Next.Load()
	for !r.IsNil() {
		nd := l.At(r)
		nx := nd.Next.Load()
		if nx.Tag() == 0 {
			n++
		}
		r = nx.Untagged()
	}
	return n
}

// KeysSlow returns the live keys in order; single-threaded use only.
func (l *List) KeysSlow() []int64 {
	var out []int64
	r := l.Pool.At(l.Head).Next.Load()
	for !r.IsNil() {
		nd := l.At(r)
		nx := nd.Next.Load()
		if nx.Tag() == 0 {
			out = append(out, nd.Key.Load())
		}
		r = nx.Untagged()
	}
	return out
}
