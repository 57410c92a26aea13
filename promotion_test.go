package hpbrcu

// Promotion audit: Register hands out one guard around the structure
// handle and nothing in between, and the guard must carry the optional
// handle interface (TryInserter) itself while still reaching what the
// structure offers underneath — its participation record, its optimistic
// get, the backpressure gate — however the map is configured. These tests
// pin that per configuration (their names date from when each
// configuration added a wrapper of its own).

import (
	"testing"
	"time"
)

// Compile-time pins: the guard is the handle every caller sees, so it
// must carry the optional interface itself; the map implementation must
// satisfy the full Map interface including the handle-free facade.
var (
	_ TryInserter = (*guardedHandle)(nil)
	_ Map         = (*mapImpl)(nil)
)

// optimisticGetter is the structure-handle method the HHSList's Get must
// be, through the guard.
type optimisticGetter interface {
	GetOptimistic(key int64) (int64, bool)
}

// exerciseHandle drives the promoted surface end to end on a fresh
// handle: TryInsert must insert and Get must see the insert.
func exerciseHandle(t *testing.T, h MapHandle, key int64) {
	t.Helper()
	ti, ok := h.(TryInserter)
	if !ok {
		t.Fatal("handle lost TryInserter through the decorator stack")
	}
	if ok, err := ti.TryInsert(key, key*2); err != nil || !ok {
		t.Fatalf("TryInsert(%d) = %v, %v; want true, nil", key, ok, err)
	}
	if v, ok := h.Get(key); !ok || v != key*2 {
		t.Fatalf("Get(%d) = %d, %v; want %d, true", key, v, ok, key*2)
	}
}

// registerGuard registers a handle and checks what Register put in it: the
// HP-BRCU structure handle itself, with its participation record, not a
// wrapper.
func registerGuard(t *testing.T, m Map) *guardedHandle {
	t.Helper()
	h := m.Register()
	g, ok := h.(*guardedHandle)
	if !ok {
		t.Fatalf("Register returned %T, want *guardedHandle", h)
	}
	if _, ok := g.inner.(coreHandle); !ok {
		t.Fatalf("guard holds %T, not the structure's HP-BRCU handle", g.inner)
	}
	return g
}

func TestPromotionPlainGuard(t *testing.T) {
	m, err := NewHList(HPBRCU, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer Close(m, 5*time.Second)
	g := registerGuard(t, m)
	exerciseHandle(t, g, 11)
	g.Unregister()
}

func TestPromotionThroughPressureWrap(t *testing.T) {
	m, err := NewHList(HPBRCU, Config{
		Backpressure: BackpressureConfig{Enabled: true, Ceiling: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer Close(m, 5*time.Second)
	g := registerGuard(t, m)
	if g.m.bp == nil {
		t.Fatal("backpressure map has no admission gate for TryInsert to ask")
	}
	exerciseHandle(t, g, 22)
	g.Unregister()
}

func TestPromotionThroughOptimisticWrap(t *testing.T) {
	m, err := NewHHSList(HPBRCU, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer Close(m, 5*time.Second)
	g := registerGuard(t, m)
	if _, ok := g.inner.(optimisticGetter); !ok {
		t.Fatalf("structure handle %T does not expose GetOptimistic", g.inner)
	}
	exerciseHandle(t, g, 33)
	// The HHSList picked the optimistic get at construction; it must be
	// what the guard's Get reaches.
	if v, ok := g.Get(33); !ok || v != 66 {
		t.Fatalf("optimistic Get(33) = %d, %v; want 66, true", v, ok)
	}
	g.Unregister()
}

func TestPromotionThroughBothWraps(t *testing.T) {
	m, err := NewHHSList(HPBRCU, Config{
		Backpressure: BackpressureConfig{Enabled: true, Ceiling: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer Close(m, 5*time.Second)
	g := registerGuard(t, m)
	if _, ok := g.inner.(optimisticGetter); !ok || g.m.bp == nil {
		t.Fatalf("structure handle %T: optimistic get %v, backpressure gate %v", g.inner, ok, g.m.bp != nil)
	}
	exerciseHandle(t, g, 44)
	g.Unregister()
}
