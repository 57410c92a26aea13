package hpbrcu

// Promotion audit: the decorator stack Register builds — pressureHandle
// (backpressure), guardedHandle (lifecycle guard) — must keep promoting
// the optional handle interfaces (TryInserter, ContextHandle) and the
// optimistic get no matter how the wrappers compose. Interface embedding
// hides undeclared methods, so each wrap is a place promotion can silently
// break; these assertions and the per-decorator tests pin it. The HHSList
// get swap is not a wrap: the structure picks its Get at construction.

import (
	"context"
	"testing"
	"time"
)

// Compile-time pins: the guard is the outermost wrap every caller sees,
// so it must carry both optional interfaces itself; the pressure wrap is
// where TryInsert originates; the map implementation must satisfy the
// full Map interface including the handle-free facade.
var (
	_ TryInserter   = (*guardedHandle)(nil)
	_ ContextHandle = (*guardedHandle)(nil)
	_ TryInserter   = pressureHandle{}
	_ Map           = (*mapImpl)(nil)
)

// ctxGetter and optimisticGetter mirror the structure-handle methods
// unwrapBase must keep reachable underneath the package wrappers.
type ctxGetter interface {
	GetCtx(ctx context.Context, key int64) (int64, bool, error)
}

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

func TestPromotionPlainGuard(t *testing.T) {
	m, err := NewHList(HPBRCU, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer Close(m, 5*time.Second)
	h := m.Register()
	g, ok := h.(*guardedHandle)
	if !ok {
		t.Fatalf("Register returned %T, want *guardedHandle", h)
	}
	if _, ok := g.base.(ctxGetter); !ok {
		t.Fatalf("guard base %T does not expose the structure GetCtx", g.base)
	}
	exerciseHandle(t, h, 11)
	h.Unregister()
}

func TestPromotionThroughPressureWrap(t *testing.T) {
	m, err := NewHList(HPBRCU, Config{
		Backpressure: BackpressureConfig{Enabled: true, Ceiling: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer Close(m, 5*time.Second)
	g := m.Register().(*guardedHandle)
	if _, ok := g.inner.(pressureHandle); !ok {
		t.Fatalf("backpressure map wrapped the handle in %T, want pressureHandle", g.inner)
	}
	// The pressure wrap embeds the MapHandle interface, which hides GetCtx;
	// unwrapBase must have peeled it so the guard still finds the method.
	if _, ok := g.base.(ctxGetter); !ok {
		t.Fatalf("unwrapBase failed to peel pressureHandle: base is %T", g.base)
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
	g := m.Register().(*guardedHandle)
	if g.inner != g.base {
		t.Fatalf("HHSList wrapped the structure handle in %T; its Get is chosen at construction, not by a wrap", g.inner)
	}
	if _, ok := g.base.(optimisticGetter); !ok {
		t.Fatalf("structure handle %T does not expose GetOptimistic", g.base)
	}
	if _, ok := g.base.(ctxGetter); !ok {
		t.Fatalf("structure handle %T does not expose GetCtx", g.base)
	}
	exerciseHandle(t, g, 33)
	// The optimistic swap must still be in effect through the guard.
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
	g := m.Register().(*guardedHandle)
	if _, ok := g.inner.(pressureHandle); !ok {
		t.Fatalf("outermost inner wrap is %T, want pressureHandle", g.inner)
	}
	if _, ok := g.base.(optimisticGetter); !ok {
		t.Fatalf("unwrapBase failed to peel both wraps: base is %T", g.base)
	}
	if _, ok := g.base.(ctxGetter); !ok {
		t.Fatalf("composed wraps hid the structure GetCtx: base is %T", g.base)
	}
	exerciseHandle(t, g, 44)
	g.Unregister()
}
