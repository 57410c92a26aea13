// Package hlist implements the sorted lock-free linked-list family once:
// Harris's list (Harris 2001), the paper's HHSList, the Harris-Michael
// list (Michael 2002) and the chaining hash map's buckets are the same
// node, the same insert and the same mark-then-unlink remove. What
// differs between them is two constants (Kind): how many marked nodes one
// excision CAS may cover — a whole run for Harris, exactly one for
// Harris-Michael — and whether Get is the helping search or the
// Herlihy-Shavit optimistic contains. A hash map is the same list with
// more than one head sentinel.
//
// What differs between reclamation schemes is how a traversal is protected
// (§4.3 puts the scheme behind the traversal, not behind insert and
// remove), so that, and only that, is written per scheme:
//
//   - ebr.go:       EBR/NR — one pinned Harris search, on a BRCU domain
//     that never signals (brcu.NeverSignal; NR adds brcu.NoReclaim).
//   - nbr.go:       NBR — read-phase searchOnce, reservations, write phase.
//   - hp.go:        plain HP — protect-and-validate find (run bound 1 only:
//     Figure 2 is why HP cannot follow links out of a marked run).
//   - expedited.go: HP-RCU/HP-BRCU — Harris's search and the optimistic
//     get, each one loop: RCU's loop with a poll and a countdown per node
//     (core.Attempt's Step) and a commit at the destination (the search
//     shields it before Conclude's poll). A failed poll, a checkpoint, an
//     armed hook or a marked run goes to the buffer's Walk, which keeps
//     the checkpoints and the rollbacks and excises runs in its masked
//     region.
//
// Each search is monomorphic: no interface, func-value or type-parameter
// call happens inside a per-node loop — the expedited ones' Step inlines,
// and their out-of-line calls (Walk, the commit) sit on the rollback,
// checkpoint, marked-run and destination branches (inline_test.go at the
// repository root holds the expedited loops to that). The shared write
// path reaches the scheme through the positioner interface, a handful of
// indirect calls per operation.
//
// Marked runs are excised at most maxRun nodes at a time so every
// traversal step stays bounded (§5 requires bounded critical-section
// phases); a partial excision legally re-links the predecessor to a still
// marked node, which a later search removes.
package hlist

import (
	"fmt"
	"math/bits"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/ds/lnode"
)

// Kind names a member of the list family.
type Kind int

const (
	// Harris is Harris's list: searches excise whole marked runs with one
	// CAS and Get is that search (it helps).
	Harris Kind = iota
	// HHS is the paper's HHSList: Harris's list whose Get is the
	// Herlihy-Shavit optimistic contains, a pure read that never helps.
	HHS
	// HarrisMichael is Michael's variant: every marked node is unlinked by
	// its own CAS, which is what lets plain HP validate each step.
	HarrisMichael
)

// maxRun bounds how many marked nodes one excision covers. It is a
// constant, not a knob: 1 and "a whole run" are two different published
// algorithms, and 64 only caps a step's work for §5 — no caller has a
// reason to pick a third value.
const maxRun = 64

func (k Kind) runBound() int {
	if k == HarrisMichael {
		return 1
	}
	return maxRun
}

// set is the scheme-independent half of a list or hash map: one node pool
// and one immortal head sentinel per bucket (a plain list has one bucket).
// All buckets share the pool and the scheme's domain, like the paper's
// evaluation, where reclamation thresholds are global, not per bucket.
type set struct {
	pool  *alloc.Pool[lnode.Node]
	heads []uint64
	kind  Kind
}

func newSet(k Kind, heads int) set {
	if heads < 1 {
		heads = 1
	}
	pool := alloc.NewPool[lnode.Node]()
	cache := pool.NewCache()
	s := set{pool: pool, heads: make([]uint64, heads), kind: k}
	for i := range s.heads {
		s.heads[i] = lnode.NewHead(pool, cache)
	}
	return s
}

// KeysSlow returns the live keys, in order within each bucket;
// single-threaded use only (tests, checks).
func (s *set) KeysSlow() []int64 {
	var out []int64
	for _, head := range s.heads {
		out = append(out, (&lnode.List{Pool: s.pool, Head: head}).KeysSlow()...)
	}
	return out
}

// BucketOf hashes a key to a bucket index (Fibonacci hashing): key·2⁶⁴/φ
// mod 2⁶⁴ is the fraction of key/φ, and its product with n keeps the high
// word, in [0, n). Its low bits repeat with the key's: taking them put
// every multiple of a power-of-two n in one bucket.
func BucketOf(key int64, n int) int {
	hi, _ := bits.Mul64(uint64(key)*0x9E3779B97F4A7C15, uint64(n))
	return int(hi)
}

// positioner is the per-scheme half of a write. find returns the position
// of key — prev's slot, the unmarked cur (nil past the last node) and
// whether cur holds key — and leaves the caller entitled to CAS both Next
// words: pinned (EBR), in a write phase with both reserved (NBR), or with
// both shielded (HP, HP-RCU, HP-BRCU). It retries internally until it has
// such a position. retire hands an unlinked node to the scheme; release
// drops whatever find acquired and must follow every find.
//
// release is called inline, not deferred (a defer inside the retry loops
// is a heap-allocated one): nothing between find and release may panic
// recoverably, or the handle stays pinned and blocks the domain's
// reclamation. The family's one panic of its own, retireRun's assertion,
// releases first; the allocator's poison checks report memory corruption,
// after which the domain is not worth unpinning.
type positioner interface {
	find(key int64) (prev uint64, cur atomicx.Ref, found bool)
	retire(slot uint64)
	release()
}

// ops is the scheme-independent half of a handle: the list the current
// operation runs on, the run buffer, and the one insert and one remove of
// the whole family. Scheme handles embed it and set pos to themselves.
type ops struct {
	l     lnode.List // the shared pool + the head of the current key's bucket
	heads []uint64
	bound int  // marked nodes one excision CAS may cover
	hhs   bool // Get is the optimistic contains
	cache *alloc.Cache[lnode.Node]
	pos   positioner
	run   runBuf
}

func (o *ops) init(s *set, pos positioner) {
	o.l = lnode.List{Pool: s.pool, Head: s.heads[0]}
	o.heads = s.heads
	o.bound = s.kind.runBound()
	o.hhs = s.kind == HHS
	o.cache = s.pool.NewCache()
	o.pos = pos
}

// bind points the handle at key's bucket. It is the hash map's only
// per-operation work, and the same store for every scheme: the shields,
// reservations, cache and run buffer are the handle's, not the bucket's.
func (o *ops) bind(key int64) {
	if n := len(o.heads); n > 1 {
		o.l.Head = o.heads[BucketOf(key, n)]
	}
}

// helpingGet is Get by way of the scheme's full search.
func (o *ops) helpingGet(key int64) (val int64, found bool) {
	o.bind(key)
	_, cur, found := o.pos.find(key)
	if found {
		val = o.l.At(cur).Val.Load()
	}
	o.pos.release()
	return val, found
}

// Insert maps key to val; it fails if key is already present. The new node
// is published by one CAS on the predecessor found by the scheme's search.
func (o *ops) Insert(key, val int64) bool {
	o.bind(key)
	l := &o.l
	var newSlot uint64
	var newRef atomicx.Ref
	for {
		prev, cur, found := o.pos.find(key)
		if found {
			o.pos.release()
			if newSlot != 0 {
				l.Discard(o.cache, newSlot)
			}
			return false
		}
		if newSlot == 0 {
			newSlot, newRef = l.NewNode(o.cache, key, val, cur)
		} else {
			l.Pool.At(newSlot).Next.Store(cur)
		}
		ok := l.Pool.At(prev).Next.CompareAndSwap(cur, newRef)
		o.pos.release()
		if ok {
			return true
		}
	}
}

// Remove unmaps key, returning the removed value: it marks the node
// (logical deletion) and then makes one best-effort attempt to unlink it;
// searches clean up after a failed attempt.
func (o *ops) Remove(key int64) (int64, bool) {
	o.bind(key)
	l := &o.l
	for {
		prev, cur, found := o.pos.find(key)
		if !found {
			o.pos.release()
			return 0, false
		}
		curN := l.At(cur)
		next := curN.Next.Load()
		val := curN.Val.Load()
		if next.Tag() != 0 || !curN.Next.CompareAndSwap(next, next.WithTag(lnode.MarkBit)) {
			o.pos.release()
			continue // a concurrent remove or insert-after won: re-find
		}
		if l.Pool.At(prev).Next.CompareAndSwap(cur, next) {
			l.Pool.Hdr(cur.Slot()).Retire()
			o.pos.retire(cur.Slot())
		}
		o.pos.release()
		return val, true
	}
}

// runBuf holds the slots of one marked run, captured during runEnd so that
// retirement never has to walk links again after the first node is
// retired (a retired node can, in principle, be reclaimed and recycled the
// moment the scheme's grace conditions allow, so re-reading its link word
// would be unsound).
type runBuf struct {
	slots [maxRun]uint64
	n     int
}

// runEnd walks the marked run starting at first (which must be marked),
// recording every run node, and returns the excision target: the first
// unmarked node, nil, or — if the run exceeds the bound — a still marked
// node that stays linked (partial excision). With bound 1 that is always
// first's successor: Harris-Michael's unlink. All returned references are
// untagged.
func (o *ops) runEnd(first atomicx.Ref) (end atomicx.Ref) {
	o.run.n = 0
	cur := first
	for i := 0; i < o.bound; i++ {
		next := o.l.At(cur).Next.Load()
		if next.Tag() == 0 {
			// cur's own Next is unmarked, so cur itself is live: it is
			// the excision target, not a run member (the mark lives on a
			// node's own Next word, not on the edge pointing at it).
			return cur
		}
		o.run.slots[o.run.n] = cur.Slot()
		o.run.n++
		nu := next.Untagged()
		if nu.IsNil() {
			return atomicx.Nil
		}
		cur = nu
	}
	return cur // partial excision: cur may itself be marked but stays linked
}

// retireRun retires the captured run nodes. Winning the excision CAS makes
// the caller the owner of the run in the common case; when two excisions
// race over runs that briefly overlapped (a partial excision boundary
// moving under a concurrent remove), TryRetire resolves per-node ownership
// exactly as the Natarajan-Mittal chain splices do: whichever excisor
// claims a node first retires it, the other skips it.
func (o *ops) retireRun() {
	pool := o.l.Pool
	for _, slot := range o.run.slots[:o.run.n] {
		// Lifecycle assertion in the spirit of the allocator's poison
		// checks: a run member's mark is permanent, so an unmarked node
		// here means a live node was captured (this caught a run-boundary
		// bug where runEnd treated the first live node as a run member).
		// Every caller runs inside a critical section, so the node cannot
		// have been recycled between capture and this re-read.
		if pool.At(slot).Next.Load().Tag() == 0 {
			o.pos.release()
			panic(fmt.Sprintf("hlist: retireRun captured unmarked node (key=%d slot=%d)",
				pool.At(slot).Key.Load(), slot))
		}
		if pool.Hdr(slot).TryRetire() {
			o.pos.retire(slot)
		}
	}
}
