package hpbrcu

// Promotion audit: Register hands out one guard around the structure
// handle and nothing in between, and the guard must carry the optional
// handle interfaces (TryInserter, ContextHandle) itself while still
// reaching what the structure offers underneath — its own GetCtx and
// BarrierCtx, its participation record, the backpressure gate — however
// the map is configured. The capabilities are resolved once, at Register;
// these tests pin that resolution per configuration (their names date from
// when each configuration added a wrapper of its own).

import (
	"context"
	"testing"
	"time"
)

// Compile-time pins: the guard is the handle every caller sees, so it
// must carry both optional interfaces itself; the map implementation must
// satisfy the full Map interface including the handle-free facade.
var (
	_ TryInserter   = (*guardedHandle)(nil)
	_ ContextHandle = (*guardedHandle)(nil)
	_ Map           = (*mapImpl)(nil)
)

// optimisticGetter is the structure-handle method the HHSList's Get must
// be, through the guard.
type optimisticGetter interface {
	GetOptimistic(key int64) (int64, bool)
}

// exerciseHandle drives the promoted surface end to end on a fresh
// handle: TryInsert must insert, GetCtx must see the insert, and a
// cancelled context must surface its error instead of the value.
func exerciseHandle(t *testing.T, h MapHandle, key int64) {
	t.Helper()
	ti, ok := h.(TryInserter)
	if !ok {
		t.Fatal("handle lost TryInserter through the decorator stack")
	}
	if ok, err := ti.TryInsert(key, key*2); err != nil || !ok {
		t.Fatalf("TryInsert(%d) = %v, %v; want true, nil", key, ok, err)
	}
	ch, ok := h.(ContextHandle)
	if !ok {
		t.Fatal("handle lost ContextHandle through the decorator stack")
	}
	if v, ok, err := ch.GetCtx(context.Background(), key); err != nil || !ok || v != key*2 {
		t.Fatalf("GetCtx(%d) = %d, %v, %v; want %d, true, nil", key, v, ok, err, key*2)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok, err := ch.GetCtx(cancelled, key); err == nil || ok {
		t.Fatalf("GetCtx under cancelled ctx = ok=%v err=%v; want miss with the ctx error", ok, err)
	}
	if err := ch.BarrierCtx(context.Background()); err != nil {
		t.Fatalf("BarrierCtx: %v", err)
	}
}

// registerGuard registers a handle and checks what Register resolved on
// it: an HP-BRCU list handle is context-aware, and it is the guard's inner
// handle itself, not a wrapper.
func registerGuard(t *testing.T, m Map) *guardedHandle {
	t.Helper()
	h := m.Register()
	g, ok := h.(*guardedHandle)
	if !ok {
		t.Fatalf("Register returned %T, want *guardedHandle", h)
	}
	if g.ctx == nil || g.ctx != g.inner {
		t.Fatalf("guard did not resolve the structure's GetCtx/BarrierCtx on %T", g.inner)
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
