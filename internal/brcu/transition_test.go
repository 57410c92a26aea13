package brcu

import (
	"fmt"
	"strings"
	"testing"
)

// The status-word transition table: for every phase the word can show and
// every action of every actor that touches it — the owner, a reclaimer and
// adoption, which runs once the owner is gone — what the word becomes, or
// that the action panics. DESIGN.md §2 describes the same machine, and an
// exhaustive interleaving check (ROADMAP item 6) has exactly this machine
// to enumerate.
//
// Columns, in order: Out InCs InRm RbReq. A cell reads
//
//	=          the word is untouched
//	InCs^      moved to that phase, announcing the current global epoch
//	RbReq      moved to that phase, payload (the section's epoch) kept
//	Out        moved to Out
//	panic      misuse, caught before the word moves
//
// followed by what the action returned.
var statusWordTransitions = []struct {
	actor, action string
	cells         [4]string
}{
	{"owner", "Enter", [4]string{"InCs^", "InCs^", "InCs^", "InCs^"}},
	{"owner", "Exit", [4]string{"=", "Out", "Out", "Out"}},
	{"owner", "Poll", [4]string{"= ok", "= ok", "= ok", "= rollback"}},
	{"owner", "Refresh", [4]string{"= rollback", "InCs^ ok", "= rollback", "= rollback"}},
	{"owner", "Mask", [4]string{"panic", "= ran(InRm)", "panic", "= rollback"}},
	{"owner", "Mask exit", [4]string{"= ran,rollback", "= ran,rollback", "InCs ran", "= ran,rollback"}},
	{"owner", "Unregister", [4]string{"= left", "panic", "panic", "= left"}},

	{"reclaimer", "neutralizeIfLagging below budget", [4]string{"= pass", "= blocked", "= blocked", "= pass"}},
	{"reclaimer", "neutralizeIfLagging at budget", [4]string{"= pass", "RbReq signalled", "RbReq signalled", "= pass"}},

	{"adoption", "Adopt", [4]string{"= left", "Out left", "Out left", "Out left"}},
}

// subject is one handle driven into a starting phase, with a second
// registered handle to act as the reclaimer.
type subject struct {
	d    *Domain
	h, r *Handle
}

const (
	sectionEpoch = 5 // what h's section announces
	globalEpoch  = 7 // where the domain has moved since: h lags
)

// newSubject drives a fresh handle into phase.
func newSubject(phase uint64) *subject {
	d := NewDomain(nil, WithMaxLocalTasks(1024), WithForceThreshold(2))
	d.epoch.Store(sectionEpoch)
	s := &subject{d: d, h: d.Register(), r: d.Register()}
	h := s.h
	switch phase {
	case phaseInCs:
		h.Enter()
	case phaseInRm:
		h.Enter()
		h.status.Store(pack(phaseInRm, sectionEpoch)) // as inside a Mask body
	case phaseRbReq:
		h.Enter()
		h.SelfNeutralize()
	}
	if got := phaseOf(h); got != phase {
		panic("setup: reached " + phaseName(got) + ", want " + phaseName(phase))
	}
	d.epoch.Store(globalEpoch)
	return s
}

func pollWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "rollback"
}

func maskWord(ran, mustRollback bool) string {
	var parts []string
	if ran {
		parts = append(parts, "ran")
	}
	if mustRollback {
		parts = append(parts, "rollback")
	}
	return strings.Join(parts, ",")
}

func neutralizeWord(ok, signalled bool) string {
	switch {
	case !ok:
		return "blocked"
	case signalled:
		return "signalled"
	}
	return "pass"
}

// left reports whether h has left the registry.
func (s *subject) left() string {
	for _, o := range s.d.handles.Snapshot() {
		if o == s.h {
			return "still registered"
		}
	}
	return "left"
}

// statusWordActions are the table's rows, by name; each returns what the
// action reported.
var statusWordActions = map[string]func(s *subject) string{
	"Enter":   func(s *subject) string { s.h.Enter(); return "" },
	"Exit":    func(s *subject) string { s.h.Exit(); return "" },
	"Poll":    func(s *subject) string { return pollWord(s.h.Poll()) },
	"Refresh": func(s *subject) string { return pollWord(s.h.Refresh()) },
	"Mask": func(s *subject) string {
		in := ""
		ret := maskWord(s.h.Mask(func() {
			ph, e := unpack(s.h.status.Load())
			in = "(" + phaseName(ph) + ")"
			if e != sectionEpoch {
				in = "(payload moved)"
			}
		}))
		return ret + in
	},
	"Mask exit": func(s *subject) string {
		// The region's exit CAS, run against the starting word: enter a
		// region from a scratch section, then put the word back.
		start := s.h.status.Load()
		s.h.status.Store(pack(phaseInCs, sectionEpoch))
		return maskWord(s.h.Mask(func() { s.h.status.Store(start) }))
	},
	"Unregister": func(s *subject) string { s.h.Unregister(); return s.left() },

	"neutralizeIfLagging below budget": func(s *subject) string {
		s.r.pushCnt = 0
		return neutralizeWord(s.r.neutralizeIfLagging(s.h, globalEpoch))
	},
	"neutralizeIfLagging at budget": func(s *subject) string {
		s.r.pushCnt = s.d.forceThreshold
		return neutralizeWord(s.r.neutralizeIfLagging(s.h, globalEpoch))
	},

	"Adopt": func(s *subject) string { s.h.Adopt(); return s.left() },
}

// describe renders what became of the word in the table's notation.
func describe(before, after uint64) string {
	ph, payload := unpack(after)
	switch {
	case after == before:
		return "="
	case ph == phaseOut:
		return "Out"
	case payload == globalEpoch:
		return phaseName(ph) + "^"
	case payload == sectionEpoch:
		return phaseName(ph)
	}
	return fmt.Sprintf("%s(%d)", phaseName(ph), payload)
}

// outcome runs act on s and renders the cell.
func (s *subject) outcome(act func(*subject) string) (cell string) {
	before := s.h.status.Load()
	defer func() {
		if recover() != nil {
			cell = "panic"
			if s.h.status.Load() != before {
				cell = "panic, but the word moved"
			}
		}
	}()
	ret := act(s)
	cell = describe(before, s.h.status.Load())
	if ret != "" {
		cell += " " + ret
	}
	return cell
}

func TestStatusWordTransitions(t *testing.T) {
	phases := [4]uint64{phaseOut, phaseInCs, phaseInRm, phaseRbReq}
	if len(statusWordTransitions) != len(statusWordActions) {
		t.Fatalf("table has %d rows for %d actions", len(statusWordTransitions), len(statusWordActions))
	}
	for _, row := range statusWordTransitions {
		act := statusWordActions[row.action]
		if act == nil {
			t.Fatalf("no action %q", row.action)
		}
		for i, ph := range phases {
			name := fmt.Sprintf("%s %s from %s", row.actor, row.action, phaseName(ph))
			if got, want := newSubject(ph).outcome(act), row.cells[i]; got != want {
				t.Errorf("%s: %s, want %s", name, got, want)
			}
		}
	}
}

// phaseOf reads h's phase.
func phaseOf(h *Handle) uint64 {
	ph, _ := unpack(h.status.Load())
	return ph
}
