package brcu

import (
	"testing"
	"time"
)

// Every owner transition is one swap on the status word; these tests pin
// the two interleavings that makes possible and the table cannot show,
// because they are gone again a few instructions later: an owner's swap
// landing on a word the reaper holds, and the reaper's closing write
// landing while such a swap has the word.

// TestSwapRestoresReaperPhases: the swap reports false on Reaping and
// Reaped and leaves exactly that word; on every other phase it takes the
// word.
func TestSwapRestoresReaperPhases(t *testing.T) {
	d := leaseDomain(t)
	h := d.Register()
	next := pack(phaseInCs, 3)
	for ph := phaseOut; ph <= phaseReaped; ph++ {
		w := pack(ph, 9)
		if ph >= phaseInMut {
			w = pack(ph, 0)
		}
		h.status.Store(w)
		took := h.swap(next)
		if want := ph < phaseReaping; took != want {
			t.Errorf("swap over %s reported %v, want %v", phaseName(ph), took, want)
		}
		got := h.Word()
		if took && got != next {
			t.Errorf("swap over %s left %#x, want its own word %#x", phaseName(ph), got, next)
		}
		if !took && got != w {
			t.Errorf("swap over %s left %#x, want the reaper's word %#x back", phaseName(ph), got, w)
		}
	}
}

// reapedSubject is a leased handle its reaper has claimed (Reaping), or
// also adopted, deregistered and published (Reaped).
func reapedSubject(t *testing.T, ph uint64) (*Domain, *Handle) {
	t.Helper()
	d := leaseDomain(t)
	h := d.Register()
	h.Enter()
	h.Exit()
	if _, ok := claim(h); !ok {
		t.Fatal("TryReap refused an idle handle")
	}
	if ph == phaseReaped {
		finishReap(d, h)
	}
	return d, h
}

func finishReap(d *Domain, h *Handle) {
	h.AdoptBatch()
	d.RemoveAll([]*Handle{h})
	h.FinishReap()
}

// TestOwnerSwapOverReaperPhase: Enter and BeginMut that swap over Reaping
// leave exactly the Reaping word for as long as the reap runs, and
// resurrect (gen+1, registered once) when it is published; over Reaped
// they resurrect at once. Exit leaves either word exactly as it found it
// and resurrects nothing: the next Enter does.
func TestOwnerSwapOverReaperPhase(t *testing.T) {
	claimers := []struct {
		name  string
		act   func(h *Handle)
		phase uint64
	}{
		{"Enter", (*Handle).Enter, phaseInCs},
		{"BeginMut", func(h *Handle) { h.BeginMut() }, phaseInMut},
	}
	for _, c := range claimers {
		t.Run(c.name+"/Reaping", func(t *testing.T) {
			d, h := reapedSubject(t, phaseReaping)
			reaping := h.Word()
			done := make(chan struct{})
			go func() { c.act(h); close(done) }()
			select {
			case <-done:
				t.Fatalf("%s completed while the reaper held the word", c.name)
			case <-time.After(10 * time.Millisecond):
			}
			// By now the owner has swapped, restored and is waiting: the
			// word must be the reaper's, exactly.
			if w := h.Word(); w != reaping {
				t.Fatalf("%s left %#x mid-reap, want the Reaping word %#x", c.name, w, reaping)
			}
			finishReap(d, h)
			<-done
			checkResurrected(t, d, h, c.phase)
		})
		t.Run(c.name+"/Reaped", func(t *testing.T) {
			d, h := reapedSubject(t, phaseReaped)
			c.act(h)
			checkResurrected(t, d, h, c.phase)
		})
	}
	for _, ph := range []uint64{phaseReaping, phaseReaped} {
		t.Run("Exit/"+phaseName(ph), func(t *testing.T) {
			d, h := reapedSubject(t, ph)
			w := h.Word()
			h.Exit()
			if got := h.Word(); got != w {
				t.Fatalf("Exit left %#x, want the reaper's word %#x", got, w)
			}
			if h.Gen() != 0 {
				t.Fatal("Exit resurrected the handle")
			}
			if ph == phaseReaping {
				finishReap(d, h)
			}
			h.Enter()
			checkResurrected(t, d, h, phaseInCs)
		})
	}
}

func checkResurrected(t *testing.T, d *Domain, h *Handle, phase uint64) {
	t.Helper()
	if got := phaseOf(h); got != phase {
		t.Fatalf("phase = %s after the reap, want %s", phaseName(got), phaseName(phase))
	}
	if h.Gen() != 1 {
		t.Fatalf("gen = %d, want 1 (one resurrection)", h.Gen())
	}
	if n := d.handles.Len(); n != 1 {
		t.Fatalf("registry holds %d handles after the resurrection, want 1", n)
	}
	if got := d.population.Load(); got != 1 {
		t.Fatalf("population = %d after the resurrection, want 1", got)
	}
}

// TestCloseReapWaitsForRestore: a FinishReap or CancelReap issued while an
// owner's swap has the Reaping word does not write over the owner's word,
// and completes once the owner stores Reaping back — with the reaper's
// word, not the owner's restore, standing last.
func TestCloseReapWaitsForRestore(t *testing.T) {
	for _, c := range []struct {
		name  string
		close func(h *Handle, claimed uint64)
		want  func(claimed uint64) uint64
	}{
		{"FinishReap",
			func(h *Handle, _ uint64) { h.FinishReap() },
			func(uint64) uint64 { return pack(phaseReaped, 0) }},
		{"CancelReap",
			func(h *Handle, claimed uint64) { h.CancelReap(claimed) },
			func(claimed uint64) uint64 { return claimed }},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := leaseDomain(t)
			h := d.Register()
			h.Enter()
			h.Exit()
			claimed, ok := claim(h)
			if !ok {
				t.Fatal("TryReap refused an idle handle")
			}
			// The owner's swap, stopped before its restore.
			owner := pack(phaseInCs, d.Epoch())
			old := h.status.Swap(owner)
			done := make(chan struct{})
			go func() { c.close(h, claimed); close(done) }()
			select {
			case <-done:
				t.Fatalf("%s completed while the owner's swap had the word", c.name)
			case <-time.After(10 * time.Millisecond):
			}
			if w := h.Word(); w != owner {
				t.Fatalf("%s wrote %#x over the owner's word %#x", c.name, w, owner)
			}
			h.status.Store(old) // the owner's restore
			<-done
			if w, want := h.Word(), c.want(claimed); w != want {
				t.Fatalf("word = %#x after %s, want %#x", w, c.name, want)
			}
		})
	}
}
