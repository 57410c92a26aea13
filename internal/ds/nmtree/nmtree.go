// Package nmtree implements the Natarajan-Mittal lock-free external binary
// search tree (PPoPP 2014), one of the paper's evaluation structures
// (Figure 7c). Internal nodes route; leaves hold the keys. Deletion is
// edge-based: the deleter *flags* the edge from the parent to the doomed
// leaf (injection), then — possibly helped by other operations — *tags*
// the parent's other edge and splices the parent out by swinging the
// grandparent/ancestor edge to the surviving sibling (cleanup).
//
// Edge tag bits: bit 0 = FLAG (child leaf is being deleted), bit 1 = TAG
// (this edge's parent is being spliced out). Both ride in the atomicx.Ref
// tag bits, so one CAS covers address and state, as in the original.
//
// Node, allocation, cleanup, one Insert, one Remove and the Get every
// scheme but NBR shares live in this file, over the per-scheme seek that
// is the only code that differs (§4.3 puts the scheme behind Traverse, not
// behind insert and remove):
//
//   - ebr.go:       EBR/NR — one pinned descent, on a BRCU domain that
//     never signals (brcu.NeverSignal).
//   - nbr.go:       NBR — the read-phase descent, reservation of the seek
//     record, the write phase; and a pure-read Get (the tree is
//     access-aware: seeks are pure reads, every write follows reservation).
//   - expedited.go: HP-RCU/HP-BRCU — the same descent with a poll and a
//     countdown per edge (core.Attempt), one loop whose rollbacks and
//     checkpoints are its buffer's Walk, the seek record shielded into
//     four shields at the leaf.
//
// Each seek is monomorphic: no interface or type-parameter call happens
// inside a per-node loop. The shared write path reaches the scheme through
// the positioner interface, a handful of indirect calls per operation.
// Plain HP does not apply (Table 1): a seek may traverse edges out of
// flagged/tagged nodes that a concurrent cleanup has already retired, with
// no per-node validation possible.
//
// When a cleanup splices out a chain (ancestor's successor ≠ parent, the
// rare helping pile-up), the winner retires the chain's endpoints —
// successor, parent, and the flagged leaf, all covered by its protection —
// and leaks the interior nodes. The interior of a chain is only ever
// produced by overlapping incomplete deletions and is empty in the common
// case; leaking it is the standard compromise in reclamation benchmarks of
// this structure and applies identically to every scheme here.
package nmtree

import (
	"math"
	"sync/atomic"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/core"
)

// Edge state bits (atomicx.Ref tag bits).
const (
	flagBit = 1 // the child (a leaf) is being deleted
	tagBit  = 2 // the parent of this edge is being spliced out
)

// Sentinel keys: inf2 > inf1 > every user key.
const (
	inf2 = math.MaxInt64
	inf1 = math.MaxInt64 - 1
)

// node is one tree node. A node is a leaf iff its Left edge is nil; leaves
// never gain children (inserts replace the leaf with a fresh internal
// node).
type node struct {
	Key   atomic.Int64
	Val   atomic.Int64
	Left  atomicx.AtomicRef
	Right atomicx.AtomicRef
}

// tree is the scheme-independent half of a tree: the node pool and the
// two immortal sentinels.
type tree struct {
	pool  *alloc.Pool[node]
	root  uint64 // R
	sroot uint64 // S = R.left
}

func newTree() tree {
	pool := alloc.NewPool[node]()
	cache := pool.NewCache()
	mk := func(key int64) (uint64, *node) {
		s, n := pool.Alloc(cache)
		n.Key.Store(key)
		n.Left.Store(atomicx.Nil)
		n.Right.Store(atomicx.Nil)
		return s, n
	}
	l1, _ := mk(inf1) // leaf ∞₁
	l2a, _ := mk(inf2)
	l2b, _ := mk(inf2)
	sSlot, s := mk(inf1)
	s.Left.Store(atomicx.MakeRef(l1, 0))
	s.Right.Store(atomicx.MakeRef(l2a, 0))
	rSlot, r := mk(inf2)
	r.Left.Store(atomicx.MakeRef(sSlot, 0))
	r.Right.Store(atomicx.MakeRef(l2b, 0))
	return tree{pool: pool, root: rSlot, sroot: sSlot}
}

func (t *tree) at(r atomicx.Ref) *node { return t.pool.At(r.Slot()) }

// childEdge returns the edge of n on key's side.
func (t *tree) childEdge(n *node, key int64) *atomicx.AtomicRef {
	if key < n.Key.Load() {
		return &n.Left
	}
	return &n.Right
}

// siblingEdge returns the edge of n opposite key's side.
func (t *tree) siblingEdge(n *node, key int64) *atomicx.AtomicRef {
	if key < n.Key.Load() {
		return &n.Right
	}
	return &n.Left
}

// seekRecord is the result of a traversal (the NM seek record): the last
// clean edge (ancestor → successor) plus the terminal parent → leaf pair.
type seekRecord struct {
	ancestor  uint64
	successor uint64
	parent    uint64
	leaf      uint64
}

// seekStep descends one level from the cursor; it is factored out so that
// every scheme runs the identical traversal. The cursor tracks the edge
// value that led into leaf (for the clean-edge bookkeeping).
type seekCursor struct {
	sr       seekRecord
	leafEdge atomicx.Ref // value of the edge parent→leaf
}

func (t *tree) seekInit() seekCursor {
	return seekCursor{
		sr: seekRecord{
			ancestor:  t.root,
			successor: t.sroot,
			parent:    t.root,
			leaf:      t.sroot,
		},
		leafEdge: t.pool.At(t.root).Left.Load(),
	}
}

// seekStep advances the cursor one edge. done is true once leaf is a true
// leaf (descent finished).
func (t *tree) seekStep(key int64, c *seekCursor) (done bool) {
	n := t.pool.At(c.sr.leaf)
	nextEdge := t.childEdge(n, key).Load()
	if nextEdge.IsNil() {
		return true // c.sr.leaf is a leaf
	}
	if c.leafEdge.Tag()&tagBit == 0 {
		// Edge parent→leaf is clean: (parent, leaf) is the deepest clean
		// edge so far.
		c.sr.ancestor = c.sr.parent
		c.sr.successor = c.sr.leaf
	}
	c.sr.parent = c.sr.leaf
	c.sr.leaf = nextEdge.Slot()
	c.leafEdge = nextEdge
	return false
}

// newLeafAndInternal builds the replacement subtree for an insert: a new
// internal node whose children are the existing leaf and a new leaf. It
// returns the internal node's reference.
func (t *tree) newLeafAndInternal(cache *alloc.Cache[node], key, val int64, leafSlot uint64) atomicx.Ref {
	leafKey := t.pool.At(leafSlot).Key.Load()

	ls, ln := t.pool.Alloc(cache)
	ln.Key.Store(key)
	ln.Val.Store(val)
	ln.Left.Store(atomicx.Nil)
	ln.Right.Store(atomicx.Nil)

	is, in := t.pool.Alloc(cache)
	in.Val.Store(0)
	if key < leafKey {
		in.Key.Store(leafKey)
		in.Left.Store(atomicx.MakeRef(ls, 0))
		in.Right.Store(atomicx.MakeRef(leafSlot, 0))
	} else {
		in.Key.Store(key)
		in.Left.Store(atomicx.MakeRef(leafSlot, 0))
		in.Right.Store(atomicx.MakeRef(ls, 0))
	}
	return atomicx.MakeRef(is, 0)
}

// discardInsert returns an unpublished insert subtree to the pool.
func (t *tree) discardInsert(cache *alloc.Cache[node], internal atomicx.Ref, leafSlot uint64) {
	in := t.at(internal)
	l, r := in.Left.Load(), in.Right.Load()
	var newLeaf atomicx.Ref
	if l.Slot() == leafSlot {
		newLeaf = r
	} else {
		newLeaf = l
	}
	t.pool.Hdr(newLeaf.Slot()).Retire()
	t.pool.FreeLocal(cache, newLeaf.Slot())
	t.pool.Hdr(internal.Slot()).Retire()
	t.pool.FreeLocal(cache, internal.Slot())
}

// positioner is the per-scheme half of an operation. seek descends to
// key's leaf and returns the seek record with the caller entitled to read
// and CAS through all four of its nodes: pinned (EBR), in a write phase
// with the four reserved (NBR), or with the four shielded (HP-RCU,
// HP-BRCU). It retries internally until it has such a record. retire hands
// an unlinked node to the scheme; release drops whatever seek acquired and
// must follow every seek, before the next one.
//
// release is called inline, not deferred; see hlist's positioner for why
// nothing between seek and release may panic recoverably.
type positioner interface {
	seek(key int64) seekRecord
	retire(slot uint64)
	release()
}

// ops is the scheme-independent half of a handle: the one Insert, Remove
// and seek-based Get of the package. Scheme handles embed it and set pos
// to themselves.
type ops struct {
	t     *tree
	cache *alloc.Cache[node]
	pos   positioner
}

func (o *ops) init(t *tree, pos positioner) {
	o.t = t
	o.cache = t.pool.NewCache()
	o.pos = pos
}

// Get returns the value mapped to key, by way of the scheme's seek.
func (o *ops) Get(key int64) (int64, bool) {
	sr := o.pos.seek(key)
	leaf := o.t.pool.At(sr.leaf)
	val, found := leaf.Val.Load(), leaf.Key.Load() == key
	o.pos.release()
	return val, found
}

// Insert maps key to val; it fails if key is already present. The new
// leaf and its internal node are published by one CAS on the edge the
// scheme's seek found.
func (o *ops) Insert(key, val int64) bool {
	t := o.t
	for {
		sr := o.pos.seek(key)
		if t.pool.At(sr.leaf).Key.Load() == key {
			o.pos.release()
			return false
		}
		internal := t.newLeafAndInternal(o.cache, key, val, sr.leaf)
		childE := t.childEdge(t.pool.At(sr.parent), key)
		ok := childE.CompareAndSwap(atomicx.MakeRef(sr.leaf, 0), internal)
		if !ok {
			t.discardInsert(o.cache, internal, sr.leaf)
			o.help(key, sr, childE)
		}
		o.pos.release()
		if ok {
			return true
		}
	}
}

// Remove unmaps key, returning the removed value: it flags the edge to
// key's leaf (injection, the logical deletion) and then splices until the
// leaf is gone (cleanup mode), by its own hand or a helper's.
func (o *ops) Remove(key int64) (int64, bool) {
	t := o.t
	var doomed uint64 // the leaf this operation flagged; 0 before injection
	var val int64
	retries := 0 // of a seek a panic was contained in: none before injection
	for {
		sr := o.seek(key, retries)
		childE := t.childEdge(t.pool.At(sr.parent), key)
		var done bool
		if doomed == 0 {
			leaf := t.pool.At(sr.leaf)
			if leaf.Key.Load() != key {
				o.pos.release()
				return 0, false
			}
			val = leaf.Val.Load()
			if childE.CompareAndSwap(atomicx.MakeRef(sr.leaf, 0), atomicx.MakeRef(sr.leaf, flagBit)) {
				doomed, retries = sr.leaf, 8 // the skip list's committedFindRetries
				done = o.cleanup(key, sr)
			} else {
				o.help(key, sr, childE) // then retry the injection
			}
		} else if cv := childE.Load(); sr.leaf != doomed || cv.Slot() != doomed || cv.Tag()&flagBit == 0 {
			// The leaf is gone: a helper finished the splice. The injection
			// froze the edge parent→leaf as flagged until then, so the same
			// slot back at this position unflagged is a recycled incarnation
			// (key re-inserted) — every scheme drops its hold on the record
			// between attempts, so that can happen, and without this test a
			// remover that lost the splice would run cleanup on the new leaf
			// for as long as the key stays.
			done = true
		} else {
			done = o.cleanup(key, sr)
		}
		o.pos.release()
		if done {
			return val, true
		}
	}
}

// seek is the scheme's seek. Once Remove has flagged its leaf the key will
// go, whoever splices it, and the caller is owed the value: from then on
// (retries > 0) a panic contained inside the seek is absorbed and the seek
// retried, as by the skip list's findCommitted. Only the result hangs on it
// here — the flagged leaf is retired by whichever operation splices it.
func (o *ops) seek(key int64, retries int) (sr seekRecord) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*core.PanicError); retries == 0 || !ok || pe.Poisoned {
				panic(r)
			}
			sr = o.seek(key, retries-1)
		}
	}()
	return o.pos.seek(key)
}

// help completes the deletion that made a CAS on childE fail, if the edge
// still leads to the leaf the record names.
func (o *ops) help(key int64, sr seekRecord, childE *atomicx.AtomicRef) {
	if cv := childE.Load(); cv.Slot() == sr.leaf && cv.Tag() != 0 {
		o.cleanup(key, sr)
	}
}

// cleanup splices out the parent and the flagged leaf recorded in sr (the
// NM cleanup), retiring each unlinked slot this thread owns. It reports
// whether the splice succeeded.
func (o *ops) cleanup(key int64, sr seekRecord) bool {
	t := o.t
	parentN := t.pool.At(sr.parent)
	childE := t.childEdge(parentN, key)
	sibE := t.siblingEdge(parentN, key)

	// Which of parent's children is the flagged (doomed) one?
	cv := childE.Load()
	if cv.Tag()&flagBit == 0 {
		// We are helping a deletion of the other child.
		childE, sibE = sibE, childE
		cv = childE.Load()
		if cv.Tag()&flagBit == 0 {
			// Stale record: no deletion in progress at this parent.
			return false
		}
	}
	doomed := cv.Slot()

	// Tag the surviving edge so parent's children freeze.
	for {
		sv := sibE.Load()
		if sv.Tag()&tagBit != 0 {
			break
		}
		sibE.CompareAndSwap(sv, sv.WithTag(sv.Tag()|tagBit))
	}
	sv := sibE.Load()
	// Splice: ancestor's clean edge successor → surviving child,
	// preserving the survivor's FLAG, clearing the TAG.
	newEdge := atomicx.MakeRef(sv.Slot(), sv.Tag()&flagBit)
	ancE := t.childEdge(t.pool.At(sr.ancestor), key)
	if !ancE.CompareAndSwap(atomicx.MakeRef(sr.successor, 0), newEdge) {
		return false
	}

	// Retire what this splice unlinked: the chain endpoints plus the
	// doomed leaf. TryRetire resolves ownership when splices overlap.
	for _, s := range [...]uint64{sr.successor, sr.parent, doomed} {
		if t.pool.Hdr(s).TryRetire() {
			o.pos.retire(s)
		}
	}
	return true
}

// KeysSlow returns the live keys in order; single-threaded use only
// (tests, checks).
func (t *tree) KeysSlow() []int64 {
	var out []int64
	var walk func(r atomicx.Ref)
	walk = func(r atomicx.Ref) {
		n := t.at(r)
		if n.Left.Load().IsNil() {
			if k := n.Key.Load(); k < inf1 {
				out = append(out, k)
			}
			return
		}
		walk(n.Left.Load().Untagged())
		walk(n.Right.Load().Untagged())
	}
	walk(atomicx.MakeRef(t.root, 0))
	return out
}
