package hlist

// Regression tests for cooperative cancellation on the expedited list:
// a context cancelled mid-traversal must self-neutralize the caller's
// critical section, roll the cursor back to its last validated
// checkpoint, and leave the handle immediately reusable. The checkpoint
// regression pins down the §4.3 invariant under cancellation — at the
// moment the abort lands, one protector buffer still holds a complete
// protected cursor, so the follow-up operations see no recycled memory.

import (
	"context"
	"errors"
	"testing"

	"github.com/smrgo/hpbrcu/internal/core"
)

func cancelTestConfig() core.Config {
	// Short checkpoint distance so the neutralization lands within a few
	// held steps of the cancel.
	return core.Config{BackupPeriod: 8, MaxLocalTasks: 8, ScanThreshold: 8}
}

func TestGetCtxAlreadyCancelled(t *testing.T) {
	l := NewHPBRCU(cancelTestConfig())
	h := l.Register()
	defer h.Unregister()
	h.Insert(1, 42)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := h.GetCtx(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("GetCtx(cancelled ctx) err = %v, want context.Canceled", err)
	}
	// The pre-flight rejection must not have entered a critical section:
	// the handle works immediately and nothing was accounted as an
	// in-flight cancellation rollback.
	if v, ok := h.Get(1); !ok || v != 42 {
		t.Fatalf("Get(1) after rejected GetCtx = (%d,%v), want (42,true)", v, ok)
	}
}

func TestTraverseCtxCancelMidTraversalRollsBack(t *testing.T) {
	l := NewHPBRCU(cancelTestConfig())
	h := l.Register()

	const n = 200
	for k := int64(0); k < n; k++ {
		if !h.Insert(k, k*31+7) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}

	// The optimistic read's loop, written out in the test: step ~50 nodes
	// in, then cancel and hold position (keep stepping and checkpointing
	// without advancing) until the self-neutralization lands and Walk ends
	// the traversal. The hold guarantees the cancel arrives mid-traversal,
	// not between operations.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lst := &h.l
	a := h.getBuf.Try(ctx)
	c := h.getEntry()
	steps := 0
	for {
		if !a.Step() {
			var ok bool
			if c, ok = h.getBuf.Walk(&a, c, h.getEntry, h.getResumable, nil); !ok {
				break
			}
		}
		steps++
		if steps == 50 {
			cancel()
		}
		if steps < 50 {
			c.cur = lst.At(c.cur).Next.Load().Untagged()
		}
	}
	err := h.getBuf.Err()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("traversal err = %v, want context.Canceled", err)
	}
	if steps < 50 {
		t.Fatalf("traversal aborted after %d steps, before the cancel point", steps)
	}

	// The rollback must have returned the handle to quiescent with its
	// checkpoint intact: every immediate follow-up works, on this handle,
	// with no re-registration.
	if v, found := h.Get(42); !found || v != 42*31+7 {
		t.Fatalf("Get(42) after cancellation = (%d,%v), want (%d,true)", v, found, int64(42*31+7))
	}
	if v, found, err := h.GetCtx(context.Background(), 150); err != nil || !found || v != 150*31+7 {
		t.Fatalf("GetCtx(150) after cancellation = (%d,%v,%v), want (%d,true,nil)", v, found, err, int64(150*31+7))
	}
	if !h.Insert(n, n*31+7) {
		t.Fatal("Insert after cancellation failed")
	}

	if got := l.Stats().Snapshot().CancelledOps; got != 1 {
		t.Fatalf("CancelledOps = %d, want 1", got)
	}

	h.Barrier()
	h.Unregister()
}

func TestBarrierCtxCancelled(t *testing.T) {
	l := NewHPBRCU(cancelTestConfig())
	h := l.Register()
	for k := int64(0); k < 32; k++ {
		h.Insert(k, k)
		h.Remove(k)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.BarrierCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("BarrierCtx(cancelled) = %v, want context.Canceled", err)
	}
	// A cancelled barrier leaves draining unfinished but consistent; a
	// plain barrier afterwards finishes the job.
	if err := h.BarrierCtx(context.Background()); err != nil {
		t.Fatalf("BarrierCtx(background) = %v", err)
	}
	// The op handle's shields still protect its last cursor; release them
	// and finish through a fresh handle so the books can balance.
	h.Unregister()
	d := l.Register()
	d.Barrier()
	d.Unregister()
	if left := l.Stats().Snapshot().Unreclaimed; left != 0 {
		t.Fatalf("unreclaimed = %d after full drain", left)
	}
}
