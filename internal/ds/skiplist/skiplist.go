// Package skiplist implements the Herlihy-Shavit lock-free skip list
// (The Art of Multiprocessor Programming, ch. 14), one of the paper's
// evaluation structures (Figure 7d), once: node, allocation, the tower
// marking, one Insert and one Remove live here, over the per-scheme find
// that is the only code that differs (§4.3 puts the scheme behind
// Traverse, not behind insert and remove):
//
//   - ebr.go:       EBR/NR — one pinned descent, and the optimistic get,
//     on a BRCU domain that never signals (brcu.NeverSignal).
//   - hp.go:        plain HP — per-level protect-and-validate (three
//     shields a level, the multi-shield cost of Figure 7d); its get helps.
//   - expedited.go: HP-RCU/HP-BRCU — the same two descents with a poll
//     and a countdown per node (core.Attempt), each one loop whose
//     rollbacks, checkpoints and masked helping unlinks are its buffer's
//     Walk.
//
// Each find is monomorphic: no interface or type-parameter call happens
// inside a per-node loop. The shared write path reaches the scheme through
// the positioner interface, a handful of indirect calls per operation. NBR
// does not apply (Table 1): helping unlinks occur mid-traversal.
//
// Each node carries one tower of next references; the mark (logical
// deletion) is tag bit 0 of each level's next reference, set top-down with
// level 0 last — a node is logically deleted exactly when its level-0 next
// is marked.
//
// Retirement protocol (all schemes). Unlink CASes during a find help
// remove marked nodes but never retire them. A node is retired by exactly
// one owner, after one find past its key that started when nothing could
// create a link to it any more. Three things make that find a proof:
//
//   - Only the node's own inserter ever makes it reachable at a level
//     where it was not. Every other CAS that stores a reference to it — a
//     helping unlink of its predecessor, an insert in front of it — expects
//     a reachable link to it and replaces that link. So once the inserter
//     is out, a level at which the node is unreachable stays that way.
//   - The inserter is out before the find starts. The inserter and the
//     deleter that won the level-0 mark meet on the node's Link word:
//     whichever of them finishes last (linking → linked by the inserter,
//     linking → orphaned by the deleter) owns the unlinking find and the
//     retirement. The inserter re-points Next[level] at the successor its
//     latest find saw before every link CAS, and stops at the first level
//     it finds marked.
//   - The find cannot stop short of the node. A find of key K stops each
//     level at the first unmarked node with key ≥ K, which may be a newer
//     node with the same key linked in front of the deleted one; the
//     unlinking find therefore runs past keys equal to K. At every level
//     it ends on a link pred → succ, read while pred was reachable, with
//     pred.key ≤ K < succ.key: the marked node was not between them, so it
//     was unreachable at that level at that moment, and by the first point
//     for good.
//
// DESIGN.md §3.2 gives the argument in full.
package skiplist

import (
	"fmt"
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/core"
)

// MaxHeight is the tower height cap; 2^20 expected elements per level-0
// node is ample for every benchmark configuration.
const MaxHeight = 20

// markBit is the logical-deletion tag on each level's next reference.
const markBit = 1

// minKey is the head sentinel's key.
const minKey = -1 << 63

// Link states: who may still create a link to the node, and who retires it.
const (
	linking  uint32 = iota // the inserter is still linking the tower
	linked                 // the inserter is out; the deleter unlinks and retires
	orphaned               // deleted while linking; the inserter unlinks and retires
)

// node is one skip-list element.
type node struct {
	Key atomic.Int64
	Val atomic.Int64
	// Top is the highest valid level index (0-based, immutable per
	// incarnation — rewritten on reuse before publication).
	Top atomic.Int32
	// Link is the retirement hand-off between the node's inserter and its
	// deleter (package comment). It shares Top's word, so it costs no space.
	Link atomic.Uint32
	Next [MaxHeight]atomicx.AtomicRef
}

// list is the scheme-independent half of a skip list: the node pool and
// the full-height immortal head sentinel.
type list struct {
	pool *alloc.Pool[node]
	head uint64
}

func newList() list {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	slot, n := pool.Alloc(cache)
	n.Key.Store(minKey)
	n.Top.Store(MaxHeight - 1)
	for i := range n.Next {
		n.Next[i].Store(atomicx.Nil)
	}
	return list{pool: pool, head: slot}
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
	n.Link.Store(linking)
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
// this caller won the level-0 mark (the logical deletion).
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

// positioner is the per-scheme half of a write. find fills ops.preds and
// ops.succs around key at every level — succs[level] is the first unmarked
// node with key ≥ key (with past set: key > key), preds[level] its
// predecessor — unlinking the marked nodes it meets, and leaves the caller
// entitled to CAS through every one of them: pinned (EBR) or with all of
// them shielded (HP, HP-RCU, HP-BRCU). It retries internally until it has
// such a position. retire hands an unlinked node to the scheme; release
// drops whatever find acquired and must follow every find, before the
// next one.
//
// release is called inline, not deferred; see hlist's positioner for why
// nothing between find and release may panic recoverably.
type positioner interface {
	find(key int64, past bool)
	retire(slot uint64)
	release()
}

// ops is the scheme-independent half of a handle: the position the latest
// find produced (its only copy: every find records a level here as it
// leaves it) and the one Insert and one Remove of the package. Scheme
// handles embed it and set pos to themselves.
type ops struct {
	l     *list
	cache *alloc.Cache[node]
	rng   *atomicx.Rand
	pos   positioner

	preds [MaxHeight]uint64
	succs [MaxHeight]atomicx.Ref
}

func (o *ops) init(l *list, pos positioner) {
	o.l = l
	o.cache = l.pool.NewCache()
	o.rng = atomicx.NewRand(nextSeed())
	o.pos = pos
}

// locate runs the scheme's find and reports whether key is present; the
// caller releases.
func (o *ops) locate(key int64) bool {
	o.pos.find(key, false)
	s := o.succs[0]
	return !s.IsNil() && o.l.at(s).Key.Load() == key
}

// Insert maps key to val; it fails if key is already present. The level-0
// CAS publishes the node; the upper levels are linked afterwards, bottom
// up, for as long as the node is not being deleted.
func (o *ops) Insert(key, val int64) bool {
	l := o.l
	for {
		if o.locate(key) {
			o.pos.release()
			return false
		}
		height := randomHeight(o.rng)
		slot, ref := l.newNode(o.cache, key, val, height, &o.succs)
		if !l.pool.At(o.preds[0]).Next[0].CompareAndSwap(o.succs[0], ref) {
			o.pos.release()
			l.discard(o.cache, slot)
			continue
		}
		// While Link reads linking the node cannot be retired, so it needs
		// no protection of its own across the re-finds below.
		n := l.pool.At(slot)
	tower:
		for level := 1; level < height; level++ {
			for {
				// Publish at this level the successor the latest find saw,
				// not the one preset by an earlier find: that one may have
				// been unlinked and retired since, and nothing that unlinks
				// it can see a link the node does not expose yet.
				old := n.Next[level].Load()
				if old.Tag() != 0 || old != o.succs[level] && !n.Next[level].CompareAndSwap(old, o.succs[level]) {
					break tower // marked: being deleted, stop linking
				}
				if l.pool.At(o.preds[level]).Next[level].CompareAndSwap(o.succs[level], ref) {
					break
				}
				o.pos.release()
				o.findCommitted(key, false, committedFindRetries)
			}
		}
		o.pos.release()
		// The last access of an inserter that is not the node's owner.
		if !n.Link.CompareAndSwap(linking, linked) {
			o.unlinkAndRetire(key, slot)
		}
		return true
	}
}

// Remove unmaps key, returning the removed value: it marks the tower
// (logical deletion) and, unless the node's inserter is still linking and
// inherits the job, unlinks and retires it.
func (o *ops) Remove(key int64) (int64, bool) {
	if !o.locate(key) {
		o.pos.release()
		return 0, false
	}
	ref := o.succs[0]
	n := o.l.at(ref)
	val := n.Val.Load()
	won := o.l.markTower(ref)
	mine := won && !n.Link.CompareAndSwap(linking, orphaned)
	o.pos.release()
	if !won {
		return 0, false // a concurrent deleter won the logical deletion
	}
	if mine {
		o.unlinkAndRetire(key, ref.Slot())
	}
	return val, true
}

// unlinkAndRetire is the owner's half of the retirement protocol (package
// comment): one find past key, started after the tower is fully marked and
// the inserter is out, leaves the node unreachable at every level for
// good.
func (o *ops) unlinkAndRetire(key int64, slot uint64) {
	o.findCommitted(key, true, committedFindRetries)
	o.pos.release()
	o.l.pool.Hdr(slot).Retire()
	o.pos.retire(slot)
}

// committedFindRetries bounds findCommitted: the chaos corpus's panic plan
// cannot fire twice in a row; a panic that repeats this often is a bug.
const committedFindRetries = 8

// findCommitted is the find of an operation that has already taken effect —
// its level-0 CAS (Insert) or its markTower (Remove) won — so its result,
// and a marked node's retirement, hang on this find returning. A panic
// contained inside it (core's PanicRecover: the handle is restored and the
// recovery counted by then) is therefore absorbed and the find retried; the
// node needs no shield meanwhile, nobody but its owner retires it. A
// poisoned handle, any other value (PanicRethrow re-raises the original)
// and the last retry's error pass through unchanged. DESIGN.md §10.
func (o *ops) findCommitted(key int64, past bool, retries int) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*core.PanicError); retries == 0 || !ok || pe.Poisoned {
				panic(r)
			}
			o.findCommitted(key, past, retries-1)
		}
	}()
	o.pos.find(key, past)
}

// KeysSlow returns the live keys in level-0 order; single-threaded use
// only (tests, checks).
func (l *list) KeysSlow() []int64 {
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

// CheckSlow verifies the quiescent structure: every level-j link points at
// a live, unmarked node whose tower reaches j, and each level's keys
// strictly ascend. A link to a retired or recycled slot — a node retired
// while still linked — fails the first or the last of these.
// Single-threaded use only.
func (l *list) CheckSlow() error {
	for level := 0; level < MaxHeight; level++ {
		prev := int64(minKey)
		r := l.pool.At(l.head).Next[level].Load()
		for !r.IsNil() {
			nd := l.at(r)
			k := nd.Key.Load()
			switch {
			case r.Tag() != 0:
				return fmt.Errorf("level %d: marked link left behind before key %d", level, k)
			case l.pool.Hdr(r.Slot()).State() != alloc.StateLive:
				return fmt.Errorf("level %d: link to slot %d (key %d) in allocator state %d", level, r.Slot(), k, l.pool.Hdr(r.Slot()).State())
			case int(nd.Top.Load()) < level:
				return fmt.Errorf("level %d: link to key %d whose tower tops out at %d", level, k, nd.Top.Load())
			case k <= prev:
				return fmt.Errorf("level %d: key %d follows %d", level, k, prev)
			}
			prev = k
			r = nd.Next[level].Load()
		}
	}
	return nil
}

// seedCounter dispenses distinct PRNG seeds to handles.
var seedCounter atomic.Uint64

func nextSeed() uint64 { return seedCounter.Add(1) * 0x9E3779B97F4A7C15 }
