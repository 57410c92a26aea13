// Package skiplist implements the Herlihy-Shavit lock-free skip list
// (The Art of Multiprocessor Programming, ch. 14), one of the paper's
// evaluation structures (Figure 7d). Each node carries one tower of
// next references; the mark (logical deletion) is tag bit 0 of each level's
// next reference, set top-down with level 0 last — a node is logically
// deleted exactly when its level-0 next is marked.
//
// Reclamation protocol (all schemes): unlink CASes during traversal help
// remove marked nodes but never retire them. The deleter that wins the
// level-0 mark owns the node; it repeatedly runs the physical-removal scan
// until one *clean pass* encounters the node at no level, which proves no
// link to it remains or can be created (a later insert's link CAS would
// have to expect a link that the clean pass already removed), and then
// retires it.
//
// Variants: EBR/NR; HP (per-level validated protection, the multi-shield
// cost the paper shows in Figure 7d); HP-RCU / HP-BRCU via the Traverse
// engine with helping unlinks inside abort-masked regions; and for every
// non-HP scheme a wait-free-style GetOptimistic that skips marked nodes
// without helping (lock-free under HP-BRCU, footnote 9), which is also
// their Get. NBR does not apply (Table 1): helping unlinks occur
// mid-traversal.
package skiplist

import (
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
)

// MaxHeight is the tower height cap; 2^20 expected elements per level-0
// node is ample for every benchmark configuration.
const MaxHeight = 20

// markBit is the logical-deletion tag on each level's next reference.
const markBit = 1

// minKey is the head sentinel's key.
const minKey = -1 << 63

// node is one skip-list element.
type node struct {
	Key atomic.Int64
	Val atomic.Int64
	// Top is the highest valid level index (0-based, immutable per
	// incarnation — rewritten on reuse before publication).
	Top  atomic.Int32
	Next [MaxHeight]atomicx.AtomicRef
}

// list is the scheme-independent core.
type list struct {
	pool *alloc.Pool[node]
	head uint64 // full-height immortal sentinel
}

func newList(mode ...alloc.Mode) *list {
	pool := alloc.NewPool[node](mode...)
	cache := pool.NewCache()
	slot, n := pool.Alloc(cache)
	n.Key.Store(minKey)
	n.Top.Store(MaxHeight - 1)
	for i := range n.Next {
		n.Next[i].Store(atomicx.Nil)
	}
	return &list{pool: pool, head: slot}
}

func (l *list) at(r atomicx.Ref) *node { return l.pool.At(r.Slot()) }

// randomHeight draws a geometric(1/2) tower height in [1, MaxHeight].
func randomHeight(rng *atomicx.Rand) int {
	h := 1
	for h < MaxHeight && rng.Next()&1 == 0 {
		h++
	}
	return h
}

// newNode allocates an unpublished node of the given height with all next
// references pre-set to the provided successors.
func (l *list) newNode(c *alloc.Cache[node], key, val int64, height int, succs *[MaxHeight]atomicx.Ref) (uint64, atomicx.Ref) {
	slot, n := l.pool.Alloc(c)
	n.Key.Store(key)
	n.Val.Store(val)
	n.Top.Store(int32(height - 1))
	for i := 0; i < MaxHeight; i++ {
		if i < height {
			n.Next[i].Store(succs[i].Untagged())
		} else {
			n.Next[i].Store(atomicx.Nil)
		}
	}
	return slot, atomicx.MakeRef(slot, 0)
}

// discard returns an unpublished node to the pool.
func (l *list) discard(c *alloc.Cache[node], slot uint64) {
	l.pool.Hdr(slot).Retire()
	l.pool.FreeLocal(c, slot)
}

// markTower marks every level top-down, level 0 last. It reports whether
// this caller won the level-0 mark (and thus owns retirement).
func (l *list) markTower(ref atomicx.Ref) bool {
	n := l.at(ref)
	top := int(n.Top.Load())
	for level := top; level >= 1; level-- {
		for {
			next := n.Next[level].Load()
			if next.Tag() != 0 {
				break
			}
			n.Next[level].CompareAndSwap(next, next.WithTag(markBit))
		}
	}
	for {
		next := n.Next[0].Load()
		if next.Tag() != 0 {
			return false // someone else completed the logical deletion
		}
		if n.Next[0].CompareAndSwap(next, next.WithTag(markBit)) {
			return true
		}
	}
}

// LenSlow counts unmarked level-0 nodes; single-threaded use only.
func (l *list) lenSlow() int {
	n := 0
	r := l.pool.At(l.head).Next[0].Load().Untagged()
	for !r.IsNil() {
		nd := l.at(r)
		nx := nd.Next[0].Load()
		if nx.Tag() == 0 {
			n++
		}
		r = nx.Untagged()
	}
	return n
}

func (l *list) keysSlow() []int64 {
	var out []int64
	r := l.pool.At(l.head).Next[0].Load().Untagged()
	for !r.IsNil() {
		nd := l.at(r)
		nx := nd.Next[0].Load()
		if nx.Tag() == 0 {
			out = append(out, nd.Key.Load())
		}
		r = nx.Untagged()
	}
	return out
}

// checkTowersSlow verifies that every level-l link connects nodes whose
// towers reach level l and that each level is sorted; single-threaded.
func (l *list) checkTowersSlow() bool {
	for level := 0; level < MaxHeight; level++ {
		prev := int64(minKey)
		r := l.pool.At(l.head).Next[level].Load().Untagged()
		for !r.IsNil() {
			nd := l.at(r)
			if int(nd.Top.Load()) < level {
				return false
			}
			k := nd.Key.Load()
			if k <= prev {
				return false
			}
			prev = k
			r = nd.Next[level].Load().Untagged()
		}
	}
	return true
}

// seedCounter dispenses distinct PRNG seeds to handles.
var seedCounter atomic.Uint64

func nextSeed() uint64 { return seedCounter.Add(1) * 0x9E3779B97F4A7C15 }
