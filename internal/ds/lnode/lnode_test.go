package lnode

import (
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
)

func TestNewListHasSentinel(t *testing.T) {
	l := New()
	head := l.Pool.At(l.Head)
	if head.Key.Load() != MinKey {
		t.Fatal("head sentinel key must be MinKey")
	}
	if !head.Next.Load().IsNil() {
		t.Fatal("empty list head must point to nil")
	}
	if l.LenSlow() != 0 || l.KeysSlow() != nil {
		t.Fatal("empty list must have no keys")
	}
}

func TestSharedPool(t *testing.T) {
	pool := alloc.NewPool[Node]()
	cache := pool.NewCache()
	a := NewShared(pool, cache)
	b := NewShared(pool, cache)
	if a.Pool != b.Pool {
		t.Fatal("shared lists must share the pool")
	}
	if a.Head == b.Head {
		t.Fatal("shared lists must have distinct sentinels")
	}
}

func TestNewNodeAndDiscard(t *testing.T) {
	l := New()
	cache := l.Pool.NewCache()
	slot, ref := l.NewNode(cache, 7, 70, atomicx.MakeRef(99, 1))
	n := l.At(ref)
	if n.Key.Load() != 7 || n.Val.Load() != 70 {
		t.Fatal("node fields not initialized")
	}
	if n.Next.Load().Tag() != 0 {
		t.Fatal("NewNode must strip tag bits from the successor")
	}
	hdr := l.Pool.Hdr(slot)
	v := hdr.Version()
	l.Discard(cache, slot)
	if hdr.State() != alloc.StateFree || hdr.Version() != v+1 {
		t.Fatalf("discarded node: state %d version %d, want Free at version %d", hdr.State(), hdr.Version(), v+1)
	}
	s2, _ := l.NewNode(cache, 8, 80, atomicx.Nil)
	if s2 != slot {
		t.Fatal("discarded slot not reused first")
	}
	if hdr.State() != alloc.StateLive || hdr.Version() != v+1 {
		t.Fatalf("reused node: state %d version %d, want Live at version %d", hdr.State(), hdr.Version(), v+1)
	}
}

func TestLenAndKeysSkipMarked(t *testing.T) {
	l := New()
	cache := l.Pool.NewCache()
	// head -> 1 -> 2 -> 3, with 2 marked.
	var next atomicx.Ref
	var refs [4]atomicx.Ref
	for k := 3; k >= 1; k-- {
		_, r := l.NewNode(cache, int64(k), int64(k), next)
		refs[k] = r
		next = r
	}
	l.Pool.At(l.Head).Next.Store(next)
	n2 := l.At(refs[2])
	n2.Next.Store(n2.Next.Load().WithTag(MarkBit))

	if got := l.LenSlow(); got != 2 {
		t.Fatalf("len = %d, want 2 (marked node skipped)", got)
	}
	keys := l.KeysSlow()
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 3 {
		t.Fatalf("keys = %v", keys)
	}
}
