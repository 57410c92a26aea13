package brcu

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The status-word transition table: for every phase the word can show and
// every action of every actor that touches it — the owner, a reclaimer,
// the reaper — what the word becomes, or that the action refuses, waits
// or panics. DESIGN.md §7.2 reproduces it as the state diagram, and an
// exhaustive interleaving check (ROADMAP item 6) has exactly this machine
// to enumerate.
//
// Columns, in order: Out InCs InRm RbReq InMut Reaping Reaped. A cell reads
//
//	=          the word is untouched
//	InCs^      moved to that phase, announcing the current global epoch
//	RbReq      moved to that phase, payload (the section's epoch) kept
//	Out#       moved to Out with an operation count no Out word has carried
//	           (leased or not: Enter and Exit take one path)
//	restored   the reaper put back exactly the word it claimed from
//	wait: X    the owner spins while the reaper holds the word, then X
//	panic      misuse, caught before the word moves
//	-          unreachable: the reaper only acts on a word it owns, and
//	           without leases there is no reaper and no InMut
//
// followed by what the action returned and by gen+1 when the owner
// resurrected on the way.
var statusWordTransitions = []struct {
	actor, action    string
	leased, unleased [7]string
}{
	{"owner", "Enter",
		[7]string{"InCs^", "InCs^", "InCs^", "InCs^", "InCs^", "wait: InCs^ gen+1", "InCs^ gen+1"},
		[7]string{"InCs^", "InCs^", "InCs^", "InCs^", "-", "-", "-"}},
	{"owner", "Exit",
		[7]string{"=", "Out#", "Out#", "Out#", "Out#", "=", "="},
		[7]string{"=", "Out#", "Out#", "Out#", "-", "-", "-"}},
	{"owner", "Poll",
		[7]string{"= ok", "= ok", "= ok", "= rollback", "= rollback", "= rollback", "= rollback"},
		[7]string{"= ok", "= ok", "= ok", "= rollback", "-", "-", "-"}},
	{"owner", "Refresh",
		[7]string{"= rollback", "InCs^ ok", "= rollback", "= rollback", "= rollback", "= rollback", "= rollback"},
		[7]string{"= rollback", "InCs^ ok", "= rollback", "= rollback", "-", "-", "-"}},
	{"owner", "Mask",
		[7]string{"panic", "= ran(InRm)", "panic", "= rollback", "= rollback", "= rollback", "= rollback"},
		[7]string{"panic", "= ran(InRm)", "panic", "= rollback", "-", "-", "-"}},
	{"owner", "Mask exit",
		[7]string{"= ran,rollback", "= ran,rollback", "InCs ran", "= ran,rollback", "= ran,rollback", "= ran,rollback", "= ran,rollback"},
		[7]string{"= ran,rollback", "= ran,rollback", "InCs ran", "= ran,rollback", "-", "-", "-"}},
	{"owner", "BeginMut",
		[7]string{"InMut true", "panic", "= false", "InMut true", "= false", "wait: InMut true gen+1", "InMut true gen+1"},
		[7]string{"= false", "= false", "= false", "= false", "-", "-", "-"}},
	{"owner", "EndMut",
		[7]string{"=", "=", "=", "=", "Out#", "=", "="},
		[7]string{"=", "=", "=", "=", "-", "-", "-"}},
	{"owner", "ForceOut",
		[7]string{"=", "Out#", "Out#", "Out#", "Out#", "wait: Out# gen+1", "Out# gen+1"},
		[7]string{"=", "Out#", "Out#", "Out#", "-", "-", "-"}},
	{"owner", "Unregister",
		[7]string{"Out# left", "panic", "panic", "Out# left", "= left", "wait: Out# left gen+1", "Out# left gen+1"},
		[7]string{"= left", "panic", "panic", "= left", "-", "-", "-"}},

	{"reclaimer", "neutralizeIfLagging below budget",
		[7]string{"= pass", "= blocked", "= blocked", "= pass", "= pass", "= pass", "= pass"},
		[7]string{"= pass", "= blocked", "= blocked", "= pass", "-", "-", "-"}},
	{"reclaimer", "neutralizeIfLagging at budget",
		[7]string{"= pass", "RbReq signalled", "RbReq signalled", "= pass", "= pass", "= pass", "= pass"},
		[7]string{"= pass", "RbReq signalled", "RbReq signalled", "= pass", "-", "-", "-"}},

	{"reaper", "TryReap(current word)",
		[7]string{"Reaping true", "= false", "= false", "Reaping true", "= false", "= false", "= false"},
		[7]string{"-", "-", "-", "-", "-", "-", "-"}},
	{"reaper", "TryReap(stale word)",
		[7]string{"= false", "= false", "= false", "= false", "= false", "= false", "= false"},
		[7]string{"-", "-", "-", "-", "-", "-", "-"}},
	{"reaper", "CancelReap(word)",
		[7]string{"-", "-", "-", "-", "-", "restored", "-"},
		[7]string{"-", "-", "-", "-", "-", "-", "-"}},
	{"reaper", "FinishReap",
		[7]string{"-", "-", "-", "-", "-", "Reaped", "-"},
		[7]string{"-", "-", "-", "-", "-", "-", "-"}},
}

// subject is one handle driven into a starting phase, with what the
// actors around it need.
type subject struct {
	d *Domain
	h *Handle
	r *Handle // a second registered handle: the reclaimer

	outs    map[uint64]bool // every Out word h has shown
	stale   uint64          // a word h showed before its last move
	claimed uint64          // Reaping/Reaped: the word the reaper claimed from
	gen     uint64
}

const (
	sectionEpoch = 5 // what h's section announces
	globalEpoch  = 7 // where the domain has moved since: h lags
)

func (s *subject) note() {
	if w := s.h.Word(); phaseOf(s.h) == phaseOut {
		s.outs[w] = true
	}
}

func (s *subject) reap() {
	s.h.AdoptBatch()
	s.d.RemoveAll([]*Handle{s.h})
	s.h.FinishReap()
}

// newSubject drives a fresh handle into phase; ok is false when the phase
// cannot be reached without leases.
func newSubject(leased bool, phase uint64) (s *subject, ok bool) {
	if !leased && phase >= phaseInMut {
		return nil, false
	}
	d := NewDomain(nil, WithMaxLocalTasks(1024), WithForceThreshold(2))
	if leased {
		d.EnableLeases()
	}
	d.epoch.Store(sectionEpoch)
	s = &subject{d: d, h: d.Register(), r: d.Register(), outs: map[uint64]bool{}}
	h := s.h
	s.stale = h.Word()
	s.note()
	switch phase {
	case phaseOut, phaseReaping, phaseReaped:
		h.Enter()
		h.Exit()
		s.note()
		if phase != phaseOut {
			s.claimed = h.Word()
			if !h.TryReap(s.claimed) {
				panic("setup: TryReap refused an idle handle")
			}
		}
		if phase == phaseReaped {
			s.reap()
		}
	case phaseInCs:
		h.Enter()
	case phaseInRm:
		h.Enter()
		h.status.Store(pack(phaseInRm, sectionEpoch)) // as inside a Mask body
	case phaseRbReq:
		h.Enter()
		h.SelfNeutralize()
	case phaseInMut:
		h.BeginMut()
	}
	if got := phaseOf(h); got != phase {
		panic("setup: reached " + phaseName(got) + ", want " + phaseName(phase))
	}
	d.epoch.Store(globalEpoch)
	s.gen = h.gen
	return s, true
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
		start := s.h.Word()
		s.h.status.Store(pack(phaseInCs, sectionEpoch))
		return maskWord(s.h.Mask(func() { s.h.status.Store(start) }))
	},
	"BeginMut": func(s *subject) string { return fmt.Sprint(s.h.BeginMut()) },
	"EndMut":   func(s *subject) string { s.h.EndMut(); return "" },
	"ForceOut": func(s *subject) string { s.h.ForceOut(); return "" },
	"Unregister": func(s *subject) string {
		s.h.Unregister()
		for _, o := range s.d.handles.Snapshot() {
			if o == s.h {
				return "still registered"
			}
		}
		return "left"
	},

	"neutralizeIfLagging below budget": func(s *subject) string {
		s.r.pushCnt = 0
		return neutralizeWord(s.r.neutralizeIfLagging(s.h, globalEpoch))
	},
	"neutralizeIfLagging at budget": func(s *subject) string {
		s.r.pushCnt = s.d.forceThreshold
		return neutralizeWord(s.r.neutralizeIfLagging(s.h, globalEpoch))
	},

	"TryReap(current word)": func(s *subject) string { return fmt.Sprint(s.h.TryReap(s.h.Word())) },
	"TryReap(stale word)":   func(s *subject) string { return fmt.Sprint(s.h.TryReap(s.stale)) },
	"CancelReap(word)":      func(s *subject) string { s.h.CancelReap(s.claimed); return "" },
	"FinishReap":            func(s *subject) string { s.h.FinishReap(); return "" },
}

// describe renders what became of the word in the table's notation.
func (s *subject) describe(before uint64) string {
	after := s.h.Word()
	ph, payload := unpack(after)
	switch {
	case after == before:
		return "="
	case after == s.claimed && s.claimed != 0:
		return "restored"
	case ph == phaseOut:
		if s.outs[after] {
			return "Out(recurred)"
		}
		return "Out#"
	case ph >= phaseInMut:
		if payload != 0 {
			return phaseName(ph) + "(payload)"
		}
		return phaseName(ph)
	case payload == globalEpoch:
		return phaseName(ph) + "^"
	case payload == sectionEpoch:
		return phaseName(ph)
	}
	return fmt.Sprintf("%s(%d)", phaseName(ph), payload)
}

func TestStatusWordTransitions(t *testing.T) {
	phases := [7]uint64{phaseOut, phaseInCs, phaseInRm, phaseRbReq, phaseInMut, phaseReaping, phaseReaped}
	if len(statusWordTransitions) != len(statusWordActions) {
		t.Fatalf("table has %d rows for %d actions", len(statusWordTransitions), len(statusWordActions))
	}
	for _, row := range statusWordTransitions {
		act := statusWordActions[row.action]
		if act == nil {
			t.Fatalf("no action %q", row.action)
		}
		for _, leased := range []bool{true, false} {
			col, mode := row.leased, "leased"
			if !leased {
				col, mode = row.unleased, "unleased"
			}
			for i, ph := range phases {
				name := fmt.Sprintf("%s %s from %s, %s", row.actor, row.action, phaseName(ph), mode)
				want := col[i]
				s, reachable := newSubject(leased, ph)
				if want == "-" {
					if reachable && row.actor != "reaper" {
						t.Errorf("%s: listed unreachable, but the phase can be set up", name)
					}
					continue
				}
				if !reachable {
					t.Errorf("%s: want %q, but the phase cannot be set up", name, want)
					continue
				}
				if got := s.outcome(act, strings.HasPrefix(want, "wait: ")); got != want {
					t.Errorf("%s: %s, want %s", name, got, want)
				}
			}
		}
	}
}

// outcome runs act on its own goroutine (an owner action against a word
// the reaper holds must wait, and the test must not wait with it) and
// renders the cell. For a cell expected to wait it first checks that the
// action does, then finishes the reap to release it.
func (s *subject) outcome(act func(*subject) string, wantWait bool) string {
	before := s.h.Word()
	type result struct {
		ret      string
		panicked bool
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if recover() != nil {
				done <- result{panicked: true}
			}
		}()
		done <- result{ret: act(s)}
	}()

	prefix := ""
	patience := 10 * time.Second
	if wantWait {
		patience = 5 * time.Millisecond
	}
	var res result
	select {
	case res = <-done:
	case <-time.After(patience):
		if s.h.Word() != before {
			return "wait, but the word moved"
		}
		prefix = "wait: "
		s.reap()
		res = <-done
	}

	if res.panicked {
		return prefix + "panic"
	}
	out := prefix + s.describe(before)
	if res.ret != "" {
		out += " " + res.ret
	}
	if s.h.gen != s.gen {
		out += fmt.Sprintf(" gen+%d", s.h.gen-s.gen)
	}
	return out
}
