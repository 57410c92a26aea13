package obs

import (
	"strings"
	"testing"

	"github.com/smrgo/hpbrcu/internal/stats"
)

func TestNilTraceDrops(t *testing.T) {
	var tr *Trace
	tr.Rec(EvEpochAdvance, 1) // must not panic
	if tr.Len() != 0 {
		t.Fatal("nil trace recorded")
	}
}

func TestPackageGateClosed(t *testing.T) {
	if On || Active() != nil {
		t.Fatal("gate open at test start")
	}
	if tr := NewTrace("x"); tr != nil {
		t.Fatal("NewTrace returned a live trace with the gate closed")
	}
	SetRun("x", nil) // no-op, must not panic
}

func TestActivateDeactivate(t *testing.T) {
	c := NewCollector(8)
	Activate(c)
	defer Deactivate()
	if !On || Active() != c {
		t.Fatal("gate did not open")
	}
	tr := NewTrace("h")
	if tr == nil {
		t.Fatal("no trace with gate open")
	}
	tr.Rec(EvSignal, 3)
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
	Deactivate()
	if On || Active() != nil {
		t.Fatal("gate did not close")
	}
}

func TestRingWrap(t *testing.T) {
	c := NewCollector(4)
	tr := c.NewTrace("h")
	for i := int64(0); i < 10; i++ {
		tr.Rec(EvDrain, i)
	}
	if tr.Len() != 10 {
		t.Fatalf("len = %d, want 10 (logical count, not ring size)", tr.Len())
	}
	got := c.Merged(0)
	if len(got) != 4 {
		t.Fatalf("merged %d events, want ring size 4", len(got))
	}
	// The ring keeps the newest events: args 6..9.
	for i, e := range got {
		if e.Arg != int64(6+i) {
			t.Fatalf("event %d arg = %d, want %d", i, e.Arg, 6+i)
		}
	}
}

func TestMergedOrdersAcrossHandles(t *testing.T) {
	c := NewCollector(8)
	a := c.NewTrace("a")
	b := c.NewTrace("b")
	// Interleave writers; seq numbers are collector-global, so the merge
	// must reconstruct the interleaving regardless of per-ring order.
	a.Rec(EvEpochAdvance, 1)
	b.Rec(EvSignal, 2)
	a.Rec(EvRollback, 3)
	b.Rec(EvDrain, 4)

	got := c.Merged(0)
	if len(got) != 4 {
		t.Fatalf("merged %d events, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("merge not ordered by seq: %v", got)
		}
	}
	wantHandles := []string{"a#0", "b#1", "a#0", "b#1"}
	for i, e := range got {
		if e.Handle != wantHandles[i] || e.Arg != int64(i+1) {
			t.Fatalf("event %d = %+v, want handle %s arg %d", i, e, wantHandles[i], i+1)
		}
	}
}

func TestMergedTailLimitsPerHandle(t *testing.T) {
	c := NewCollector(16)
	a := c.NewTrace("a")
	b := c.NewTrace("b")
	for i := int64(0); i < 10; i++ {
		a.Rec(EvDrain, i)
		b.Rec(EvReclaim, i)
	}
	got := c.Merged(3)
	if len(got) != 6 {
		t.Fatalf("tail(3) over 2 handles returned %d events, want 6", len(got))
	}
	for _, e := range got {
		if e.Arg < 7 {
			t.Fatalf("tail returned old event %+v", e)
		}
	}
}

func TestFormatTail(t *testing.T) {
	c := NewCollector(8)
	tr := c.NewTrace("brcu")
	tr.Rec(EvDrain, 1)
	lines := c.FormatTail(0)
	if len(lines) != 1 {
		t.Fatalf("lines = %v", lines)
	}
	for _, want := range []string{"seq=1", "brcu#0", "drain", "arg=1"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("line %q missing %q", lines[0], want)
		}
	}
	if c.String() != lines[0] {
		t.Error("String() differs from joined FormatTail")
	}
}

func TestEventKindNames(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() == "" || k.String() == "event?" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if EventKind(200).String() != "event?" {
		t.Fatal("out-of-range kind should print event?")
	}
}

func TestSetRun(t *testing.T) {
	c := NewCollector(0)
	if l, r := c.Run(); l != "" || r != nil {
		t.Fatal("fresh collector has a run")
	}
	rec := &stats.Reclamation{}
	c.SetRun("fig5 HHSList", rec)
	l, r := c.Run()
	if l != "fig5 HHSList" || r != rec {
		t.Fatalf("run = %q, %p", l, r)
	}
}
