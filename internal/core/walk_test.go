package core

// Tests of the Walk API from a loop of the test's own, shaped like
// hlist's: what the instrumented gate carries, where the countdown puts
// checkpoints, what a first attempt's Conclude commits — a read's values,
// a find's shields — and how a Walk adopts an attempt that leaves its
// section.

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/fault"
)

// chainWalk is one handle's walker over a chain: it owns the per-node
// loop and reaches the protocol only through Walk.
type chainWalk struct {
	h            *Handle
	pool         *alloc.Pool[node]
	slots        []uint64 // the chain's, by position
	buf          CursorBuf[chainCursor]
	prot, backup Protector[chainCursor]

	valid   func(c *chainCursor) bool // nil: always resumable
	onStep  func(w *Walk[chainCursor], pos int64)
	failAt  int64 // the owner gives the walk up (Fail) at this position; 0: never
	visited int
	inits   int // calls of init
	valids  int // calls of valid, from Enter's resume and from Checkpoint

	// onConclude, if set, runs in a first attempt between the tail's read
	// (and, in find, its shield) and Conclude's poll.
	onConclude func()

	// marked are the positions a find must not step past: find's first
	// attempt hands its section to the walk there, and the walk excises
	// the position in a masked region (it unmarks it) before visiting it.
	marked  map[int64]bool
	excised int
}

// read is a read-only traversal shaped like hlist's contains: a first
// attempt without a walk (onStep gets a nil *Walk there), handed to the
// walk if it leaves its section.
func (cw *chainWalk) read() (last int64, ok bool) {
	a, ok := cw.h.Try(nil)
	if !ok {
		return cw.walkFrom(a, chainCursor{})
	}
	c := chainCursor{cur: atomicx.MakeRef(cw.slots[0], 0)}
	for a.Step() {
		cw.visited++
		if cw.onStep != nil {
			cw.onStep(nil, c.pos)
		}
		nd := cw.pool.At(c.cur.Slot())
		nx := nd.next.Load()
		if nx.IsNil() {
			last := nd.key
			if cw.onConclude != nil {
				cw.onConclude()
			}
			if a.Conclude() {
				return last, true
			}
			break
		}
		c.cur, c.pos = nx, c.pos+1
	}
	return cw.walkFrom(a, c)
}

// find is a write's find shaped like hlist's search: a first attempt that
// shields the tail in prot before Conclude's poll commits it, and hands its
// live section to the walk at a marked position.
func (cw *chainWalk) find() (last int64, ok bool) {
	a, ok := cw.h.Try(nil)
	if !ok {
		return cw.walkFrom(a, chainCursor{})
	}
	c := chainCursor{cur: atomicx.MakeRef(cw.slots[0], 0)}
	for a.Step() {
		if cw.marked[c.pos] {
			a.Handoff()
			break
		}
		cw.visited++
		if cw.onStep != nil {
			cw.onStep(nil, c.pos)
		}
		nd := cw.pool.At(c.cur.Slot())
		nx := nd.next.Load()
		if nx.IsNil() {
			last := nd.key
			cw.prot.Protect(&c)
			if cw.onConclude != nil {
				cw.onConclude()
			}
			if a.Conclude() {
				return last, true
			}
			break
		}
		c.cur, c.pos = nx, c.pos+1
	}
	return cw.walkFrom(a, c)
}

// walk runs to the tail and returns its key; ok is false when the walk
// ended early (a checkpoint that no longer validates).
func (cw *chainWalk) walk() (last int64, ok bool) { return cw.walkFrom(Attempt{}, chainCursor{}) }

// walkFrom is walk adopting the first attempt a, whose next cursor is from.
func (cw *chainWalk) walkFrom(a Attempt, from chainCursor) (last int64, ok bool) {
	init := func() chainCursor {
		cw.inits++
		return chainCursor{cur: atomicx.MakeRef(cw.slots[0], 0)}
	}
	valid := func(c *chainCursor) bool {
		cw.valids++
		return cw.valid == nil || cw.valid(c)
	}
	var w Walk[chainCursor]
	w.Bind(nil, cw.h, &cw.buf, cw.prot, cw.backup)
	w.Start()
	defer w.Guard()
	w.Adopt(a, from)
	for w.Enter(init, valid) {
		c := *w.Cursor()
		hooks := w.Instrumented()
		for {
			if hooks {
				w.StepHooks()
			}
			if !w.Poll() {
				break
			}
			if cw.marked[c.pos] {
				pos := c.pos
				if _, mustRollback := cw.h.Mask(func() {
					delete(cw.marked, pos)
					cw.excised++
				}); mustRollback {
					break
				}
			}
			cw.visited++
			if cw.onStep != nil {
				cw.onStep(&w, c.pos)
			}
			if cw.failAt > 0 && c.pos == cw.failAt {
				w.Fail()
				return 0, false
			}
			nd := cw.pool.At(c.cur.Slot())
			nx := nd.next.Load()
			if nx.IsNil() {
				*w.Cursor() = c
				if w.Finish() {
					return nd.key, true
				}
				break
			}
			c.cur, c.pos = nx, c.pos+1
			if w.Due() {
				*w.Cursor() = c
				if !w.Checkpoint(valid) {
					break
				}
			}
		}
	}
	return 0, false
}

func newChainWalk(t *testing.T, backend Backend, n int, cfg Config) (*chainWalk, *Domain) {
	t.Helper()
	pool := alloc.NewPool[node]()
	_, slots := chain(pool, pool.NewCache(), n)
	d := NewDomain(backend, cfg)
	h := d.Register()
	t.Cleanup(h.Unregister)
	return &chainWalk{
		h: h, pool: pool, slots: slots,
		prot:   &testProtector{s: h.NewShield()},
		backup: &testProtector{s: h.NewShield()},
	}, d
}

// TestWalkFaultSitesFire arms the three sites the step hooks carry at
// Period 1 and walks a 1 000-node chain: all of them must fire from the
// instrumented path, the forced rollbacks must resume to the right answer,
// a contained panic must leave the handle usable, and a plan armed in the
// middle of an attempt must be picked up by the next one.
func TestWalkFaultSitesFire(t *testing.T) {
	const n, period = 1000, 16
	cw, d := newChainWalk(t, BackendBRCU, n, Config{BackupPeriod: period})

	var plans [fault.NumSites]fault.Plan
	plans[fault.SitePoll] = fault.Plan{Period: 1}
	// The cooldown exceeds the checkpoint distance, so every attempt
	// completes a checkpoint between two forced rollbacks.
	plans[fault.SiteStepRollback] = fault.Plan{Period: 1, Cooldown: 3 * period}
	inj := fault.New(fault.Config{Seed: 1, Plans: plans})
	fault.Activate(inj)
	defer fault.Deactivate()

	if last, ok := cw.walk(); !ok || last != n-1 {
		t.Fatalf("walk under forced rollbacks = (%d,%v), want (%d,true)", last, ok, n-1)
	}
	if inj.Fired(fault.SitePoll) == 0 || inj.Fired(fault.SiteStepRollback) == 0 {
		t.Fatalf("fired: poll=%d step-rollback=%d, want both > 0",
			inj.Fired(fault.SitePoll), inj.Fired(fault.SiteStepRollback))
	}
	rb := d.Stats().Rollbacks.Load()
	if rb < int64(inj.Fired(fault.SiteStepRollback)) {
		t.Fatalf("rollbacks = %d, fewer than the %d forced", rb, inj.Fired(fault.SiteStepRollback))
	}
	// Resume, not restart: a rollback re-walks at most the steps since the
	// last complete checkpoint (plus the iteration whose poll failed,
	// which visits nothing).
	if max := n + int(rb)*period; cw.visited > max {
		t.Fatalf("visited %d nodes over %d rollbacks, want <= %d", cw.visited, rb, max)
	}

	// A panic at a step is contained through the abort path.
	plans[fault.SitePanic] = fault.Plan{Period: 1}
	inj = fault.New(fault.Config{Seed: 1, Plans: plans})
	fault.Activate(inj)
	func() {
		defer func() {
			if r := recover(); !errors.Is(r.(error), fault.ErrInjectedPanic) {
				t.Fatalf("recovered %v, want the injected panic re-raised", r)
			}
		}()
		cw.walk()
		t.Fatal("walk returned with SitePanic armed at Period 1")
	}()
	if inj.Fired(fault.SitePanic) == 0 {
		t.Fatal("SitePanic did not fire")
	}
	if got := d.Stats().PanicsRecovered.Load(); got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
	if cw.h.Poisoned() {
		t.Fatal("contained panic poisoned the handle")
	}
	fault.Deactivate()
	if last, ok := cw.walk(); !ok || last != n-1 {
		t.Fatalf("walk after contained panic = (%d,%v), want (%d,true)", last, ok, n-1)
	}

	// Armed mid-attempt: the running attempt keeps its uninstrumented
	// loop, the next one runs the hooks.
	plans[fault.SitePanic] = fault.Plan{}
	plans[fault.SiteStepRollback] = fault.Plan{}
	inj = fault.New(fault.Config{Seed: 1, Plans: plans})
	var sawOff, sawOn bool
	cw.onStep = func(w *Walk[chainCursor], pos int64) {
		switch {
		case !fault.On && pos == 100:
			if w.Instrumented() {
				t.Error("attempt instrumented with nothing armed")
			}
			fault.Activate(inj)
			sawOff = inj.Arrivals(fault.SitePoll) == 0
		case fault.On && pos == 120 && !sawOn:
			if w.Instrumented() || inj.Arrivals(fault.SitePoll) != 0 {
				t.Error("running attempt picked the plan up mid-loop")
			}
			sawOn = true
			cw.h.brcu.SelfNeutralize() // end this attempt
		}
	}
	if last, ok := cw.walk(); !ok || last != n-1 {
		t.Fatalf("walk across Activate = (%d,%v), want (%d,true)", last, ok, n-1)
	}
	if !sawOff || !sawOn || inj.Arrivals(fault.SitePoll) == 0 {
		t.Fatalf("mid-traversal Activate: off=%v on=%v poll arrivals=%d, want the next attempt to reach the hooks",
			sawOff, sawOn, inj.Arrivals(fault.SitePoll))
	}
}

// posProtector records the position of every cursor it is asked to
// protect, in one log shared by both buffers.
type posProtector struct {
	testProtector
	log *[]int64
}

func (p *posProtector) Protect(c *chainCursor) {
	*p.log = append(*p.log, c.pos)
	p.testProtector.Protect(c)
}

// TestWalkCheckpointCadence pins where the countdown protects: after every
// BackupPeriod-th step, exactly where i%period == 0 did — and a checkpoint
// whose cursor does not validate is postponed by a whole period, not to
// the next step, so a cursor that never validates still arrives. It also
// pins the walk's two ways out: Finish delivers the final cursor in the
// cursor slot, protected in prot; Fail leaves the section with the walk
// not ok.
func TestWalkCheckpointCadence(t *testing.T) {
	const n, period = 100, 16
	for _, backend := range []Backend{BackendRCU, BackendBRCU} {
		name := map[Backend]string{BackendRCU: "HP-RCU", BackendBRCU: "HP-BRCU"}[backend]
		t.Run(name, func(t *testing.T) {
			cw, _ := newChainWalk(t, backend, n, Config{BackupPeriod: period})
			var log []int64
			prot := &posProtector{testProtector{cw.h.NewShield()}, &log}
			cw.prot = prot
			cw.backup = &posProtector{testProtector{cw.h.NewShield()}, &log}

			// The walk protects every period-th position and the
			// destination — not the entry cursor, which a rollback
			// rebuilds — and the destination once more when it finished
			// in backup.
			checkpoints := func(log []int64) []int64 {
				for len(log) > 1 && log[len(log)-1] == n-1 && log[len(log)-2] == n-1 {
					log = log[:len(log)-1]
				}
				return log
			}

			if last, ok := cw.walk(); !ok || last != n-1 {
				t.Fatalf("walk = (%d,%v)", last, ok)
			}
			if got, want := checkpoints(log), []int64{16, 32, 48, 64, 80, 96, n - 1}; !reflect.DeepEqual(got, want) {
				t.Fatalf("protected positions %v, want %v", got, want)
			}
			tail := cw.slots[n-1]
			if c := cw.buf.cur; c.cur.Slot() != tail || c.pos != n-1 {
				t.Fatalf("final cursor %+v, want the tail (slot %d) at position %d", c, tail, n-1)
			}
			if got := prot.s.Get(); got != tail {
				t.Fatalf("prot shields slot %d after Finish, want the tail (slot %d)", got, tail)
			}

			log = nil
			cw.valid = func(c *chainCursor) bool { return c.pos != 32 && c.pos != 48 }
			if last, ok := cw.walk(); !ok || last != n-1 {
				t.Fatalf("walk with postponed checkpoints = (%d,%v)", last, ok)
			}
			if got, want := checkpoints(log), []int64{16, 64, 80, 96, n - 1}; !reflect.DeepEqual(got, want) {
				t.Fatalf("protected positions with 32 and 48 unresumable %v, want %v", got, want)
			}

			log = nil
			cw.valid = func(*chainCursor) bool { return false }
			if last, ok := cw.walk(); !ok || last != n-1 {
				t.Fatalf("walk whose cursor never validates = (%d,%v): postponed checkpoints must not be fatal", last, ok)
			}
			if got, want := checkpoints(log), []int64{n - 1}; !reflect.DeepEqual(got, want) {
				t.Fatalf("protected positions with nothing resumable %v, want %v", got, want)
			}

			cw.valid, cw.failAt = nil, 40
			if last, ok := cw.walk(); ok {
				t.Fatalf("walk given up at %d = (%d,true), want not ok", cw.failAt, last)
			}
			if b := cw.h.brcu; !strings.Contains(b.Describe(), "phase=Out") {
				t.Fatalf("Fail left the handle in a critical section: %s", b.Describe())
			}
		})
	}
}

// TestWalkFirstCheckpointIsLazy pins the two halves of Enter's transition:
// a rollback before the first complete checkpoint starts over — init runs
// again, valid is not consulted, nothing was protected — and a rollback
// after it resumes from the checkpoint, revalidated once, without init.
func TestWalkFirstCheckpointIsLazy(t *testing.T) {
	const n, period = 100, 16
	cw, d := newChainWalk(t, BackendBRCU, n, Config{BackupPeriod: period})
	var log []int64
	cw.prot = &posProtector{testProtector{cw.h.NewShield()}, &log}
	cw.backup = &posProtector{testProtector{cw.h.NewShield()}, &log}

	type books struct{ inits, valids, protects int }
	var at books // at the forced rollback
	stage := 0
	cw.onStep = func(w *Walk[chainCursor], pos int64) {
		now := books{cw.inits, cw.valids, len(log)}
		switch stage {
		case 0: // first attempt, short of the checkpoint at 16
			if pos == 5 {
				at, stage = now, 1
				cw.h.brcu.SelfNeutralize()
			}
		case 1: // the next poll failed: first step of the second attempt
			if want := (books{at.inits + 1, at.valids, 0}); pos != 0 || now != want {
				t.Errorf("after a rollback before the first checkpoint: pos %d, %+v; want a restart at 0 with %+v", pos, now, want)
			}
			stage = 2
		case 2: // past the checkpoint at 16
			if pos == 20 {
				at, stage = now, 3
				cw.h.brcu.SelfNeutralize()
			}
		case 3: // first step of the third attempt
			if want := (books{at.inits, at.valids + 1, at.protects}); pos != 16 || now != want {
				t.Errorf("after a rollback past the first checkpoint: pos %d, %+v; want a resume at 16 with %+v", pos, now, want)
			}
			stage = 4
		}
	}
	if last, ok := cw.walk(); !ok || last != n-1 {
		t.Fatalf("walk = (%d,%v), want (%d,true)", last, ok, n-1)
	}
	if stage != 4 {
		t.Fatalf("walk ended in stage %d: a forced rollback did not happen", stage)
	}
	if rb := d.Stats().Rollbacks.Load(); rb != 2 {
		t.Fatalf("rollbacks = %d, want the 2 forced", rb)
	}
}

// hookProtector protects like testProtector, then runs hook on the cursor
// it just protected.
type hookProtector struct {
	testProtector
	hook func(c *chainCursor)
}

func (p *hookProtector) Protect(c *chainCursor) {
	p.testProtector.Protect(c)
	p.hook(c)
}

// TestCheckpointRevalidatesAfterReannounce: a cursor marked between a
// checkpoint's valid and its re-announce keeps a frozen link to a successor
// that may be retired at the walker's old epoch. From the re-announce on the
// section no longer holds that successor's grace period back — one more
// unforced advance and an HP scan free it, with no shield on it — so the
// checkpoint must validate the cursor again after Refresh and end the walk,
// uncounted as a rollback, instead of stepping onto the successor. No
// signal takes part: the walker never lags.
func TestCheckpointRevalidatesAfterReannounce(t *testing.T) {
	const n, period = 100, 16
	cw, d := newChainWalk(t, BackendBRCU, n, Config{BackupPeriod: period, MaxLocalTasks: 1, ScanThreshold: 1})
	other := d.Register()
	defer other.Unregister()
	cache := cw.pool.NewCache()
	retire := func(slot uint64) {
		cw.pool.Hdr(slot).Retire()
		other.Retire(slot, cw.pool)
	}
	succ := cw.slots[period+1]

	marked, advanced := false, false
	cw.valid = func(c *chainCursor) bool { return !marked || c.pos != period }
	hook := func(c *chainCursor) {
		if c.pos != period || marked {
			return
		}
		// Inside the checkpoint, after its valid and before its Refresh:
		// the cursor is marked and its successor retired at the walker's
		// epoch. The retire's advance passes (the walker is current), and
		// the successor's batch waits for the next one.
		marked = true
		e := d.brcu.Epoch()
		retire(succ)
		if d.brcu.Epoch() != e+1 {
			t.Fatalf("the successor's retire did not advance the epoch (%d → %d)", e, d.brcu.Epoch())
		}
	}
	// After the re-announce: one more unforced advance moves the
	// successor to the HP step, and the scan frees it.
	advance := func() {
		advanced = true
		spare, _ := cw.pool.Alloc(cache)
		retire(spare)
		other.HP.Reclaim()
	}
	cw.prot = &hookProtector{testProtector{cw.h.NewShield()}, hook}
	cw.backup = &hookProtector{testProtector{cw.h.NewShield()}, hook}
	cw.onStep = func(_ *Walk[chainCursor], pos int64) {
		if marked && !advanced {
			advance()
		}
		// Errorf, not Fatalf: the walk must still leave its section.
		if slot := cw.slots[pos]; cw.pool.Hdr(slot).State() == alloc.StateFree {
			t.Errorf("the walk stepped onto position %d, slot %d, whose header reads free", pos, slot)
		}
	}

	if last, ok := cw.walk(); ok {
		t.Fatalf("walk = (%d,true), want it ended at the checkpoint whose cursor was marked", last)
	}
	if !marked {
		t.Fatal("the hook never ran: no checkpoint at position", period)
	}
	if !advanced {
		advance()
	}
	if cw.pool.Hdr(succ).State() != alloc.StateFree {
		t.Fatal("the successor survived the second advance and the scan: the test does not reach the hazard")
	}
	s := d.Stats().Snapshot()
	if s.Signals != 0 || s.Rollbacks != 0 {
		t.Fatalf("signals = %d, rollbacks = %d; want 0 and 0 (the failed revalidation ends the walk, it is no rollback)", s.Signals, s.Rollbacks)
	}
}

// TestConcludeCommitsItsReads: a first attempt's Conclude poll is what
// makes the reads before it safe to return. Between the tail's key read and
// that poll, another handle unlinks and retires the tail, and its barrier
// frees it — which it can only do after neutralizing the reader, whose
// section would otherwise hold the tail's grace period back. The read must
// roll back, once, and return the new tail, never the key it read from the
// now free slot.
func TestConcludeCommitsItsReads(t *testing.T) {
	const n = 8
	cw, d := newChainWalk(t, BackendBRCU, n, Config{MaxLocalTasks: 1, ScanThreshold: 1})
	other := d.Register()
	defer other.Unregister()
	tail := cw.slots[n-1]
	cw.onConclude = func() {
		cw.onConclude = nil
		cw.pool.At(cw.slots[n-2]).next.Store(atomicx.Nil)
		cw.pool.Hdr(tail).Retire()
		other.Retire(tail, cw.pool)
		other.Barrier()
		// Errorf, not Fatalf: the read must still leave its section.
		if cw.pool.Hdr(tail).State() != alloc.StateFree {
			t.Errorf("the tail survived the barrier: the test does not reach the hazard")
		}
	}
	if last, ok := cw.read(); !ok || last != n-2 {
		t.Fatalf("read = (%d,%v), want the new tail (%d,true): the key read from the freed tail was returned", last, ok, n-2)
	}
	if s := d.Stats().Snapshot(); s.Signals == 0 || s.Rollbacks != 1 {
		t.Fatalf("signals = %d, rollbacks = %d; want the reader signalled and rolled back once", s.Signals, s.Rollbacks)
	}
	if cw.inits != 1 {
		t.Fatalf("init ran %d times, want once: the walk restarts the read after the failed poll", cw.inits)
	}
}

// TestConcludeProtectsNothing: a read that concludes in its first attempt
// publishes no shield, under both schemes: a two-node read and one that
// takes the whole budget (BackupPeriod−1 steps) make no Protect call at
// all.
func TestConcludeProtectsNothing(t *testing.T) {
	const period = 16
	for _, backend := range []Backend{BackendRCU, BackendBRCU} {
		name := map[Backend]string{BackendRCU: "HP-RCU", BackendBRCU: "HP-BRCU"}[backend]
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{2, period - 1} {
				cw, _ := newChainWalk(t, backend, n, Config{BackupPeriod: period})
				var log []int64
				record := func(c *chainCursor) { log = append(log, c.pos) }
				cw.prot = &hookProtector{testProtector{cw.h.NewShield()}, record}
				cw.backup = &hookProtector{testProtector{cw.h.NewShield()}, record}
				if last, ok := cw.read(); !ok || last != int64(n-1) {
					t.Fatalf("%d-node read = (%d,%v), want (%d,true)", n, last, ok, n-1)
				}
				if log != nil || cw.inits != 0 || cw.visited != n {
					t.Fatalf("%d-node read: protected %v, init ran %d times, %d steps; want no walk: nothing protected, no init, %d steps", n, log, cw.inits, cw.visited, n)
				}
			}
		})
	}
}

// TestFirstAttemptHandsOff pins the two ways a first attempt leaves its
// section without concluding. A spent budget hands the live section and
// cursor to the walk, which runs every step exactly once — no rollback, no
// init — and checkpoints exactly where a walk run from the start does. A
// failed poll is the walk's rollback before its first checkpoint: counted
// once, init once, and the read starts over.
func TestFirstAttemptHandsOff(t *testing.T) {
	const n, period = 100, 16
	for _, backend := range []Backend{BackendRCU, BackendBRCU} {
		name := map[Backend]string{BackendRCU: "HP-RCU", BackendBRCU: "HP-BRCU"}[backend]
		t.Run(name, func(t *testing.T) {
			protected := func(run func(*chainWalk) (int64, bool)) (log []int64, cw *chainWalk, d *Domain) {
				cw, d = newChainWalk(t, backend, n, Config{BackupPeriod: period})
				cw.prot = &posProtector{testProtector{cw.h.NewShield()}, &log}
				cw.backup = &posProtector{testProtector{cw.h.NewShield()}, &log}
				if last, ok := run(cw); !ok || last != n-1 {
					t.Fatalf("run = (%d,%v), want (%d,true)", last, ok, n-1)
				}
				return log, cw, d
			}
			want, _, _ := protected((*chainWalk).walk)
			got, cw, d := protected((*chainWalk).read)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("a read handed off by its budget protected %v, a walk from the start %v", got, want)
			}
			if rb := d.Stats().Rollbacks.Load(); cw.visited != n || cw.inits != 0 || rb != 0 {
				t.Fatalf("budget hand-off: %d steps, %d inits, %d rollbacks; want each of the %d steps once, no init, no rollback", cw.visited, cw.inits, rb, n)
			}

			_, cw, d = protected(func(cw *chainWalk) (int64, bool) {
				cw.onStep = func(w *Walk[chainCursor], pos int64) {
					if w == nil && pos == 5 {
						cw.h.brcu.SelfNeutralize()
					}
				}
				return cw.read()
			})
			// Positions 0..5 in the attempt (the poll before 6 fails), then
			// the whole chain again from init.
			if rb := d.Stats().Rollbacks.Load(); cw.visited != 6+n || cw.inits != 1 || rb != 1 {
				t.Fatalf("failed poll: %d steps, %d inits, %d rollbacks; want %d, 1, 1", cw.visited, cw.inits, rb, 6+n)
			}
		})
	}
}

// TestFindShieldsBeforeConclude: a find's first attempt hands its caller a
// position to CAS outside the section, so it must shield that position
// before Conclude's poll commits it. Between the tail's shield and that
// poll, another handle unlinks and retires the tail, and its barrier
// signals the finder to push the tail into the HP step: the shield must
// already hold it there, the poll must fail, and the find must roll back
// once, run init once and return the new tail. A find that concludes
// shields its destination in prot and nothing else.
func TestFindShieldsBeforeConclude(t *testing.T) {
	const n = 8
	cw, d := newChainWalk(t, BackendBRCU, n, Config{MaxLocalTasks: 1, ScanThreshold: 1})
	var log []int64
	logged := &posProtector{testProtector{cw.h.NewShield()}, &log}
	cw.prot = logged
	cw.backup = &posProtector{testProtector{cw.h.NewShield()}, &log}
	if last, ok := cw.find(); !ok || last != n-1 {
		t.Fatalf("find = (%d,%v), want (%d,true)", last, ok, n-1)
	}
	if tail := cw.slots[n-1]; !reflect.DeepEqual(log, []int64{n - 1}) || logged.s.Get() != tail || cw.inits != 0 {
		t.Fatalf("a find that concludes protected %v (prot shields slot %d) and ran init %d times; want only the tail (slot %d) in prot, no init",
			log, logged.s.Get(), cw.inits, tail)
	}

	// A fresh chain: the find above left its tail shielded.
	cw, d = newChainWalk(t, BackendBRCU, n, Config{MaxLocalTasks: 1, ScanThreshold: 1})
	prot := &testProtector{cw.h.NewShield()}
	cw.prot, cw.backup = prot, &testProtector{cw.h.NewShield()}
	other := d.Register()
	defer other.Unregister()
	tail := cw.slots[n-1]
	cw.onConclude = func() {
		cw.onConclude = nil
		cw.pool.At(cw.slots[n-2]).next.Store(atomicx.Nil)
		cw.pool.Hdr(tail).Retire()
		other.Retire(tail, cw.pool)
		other.Barrier()
		// Errorf, not Fatalf: the find must still leave its section.
		if cw.pool.Hdr(tail).State() == alloc.StateFree {
			t.Errorf("the barrier freed the tail the find had shielded: the shield was not published before the committing poll")
		}
	}
	if last, ok := cw.find(); !ok || last != n-2 {
		t.Fatalf("find = (%d,%v), want the new tail (%d,true): a position the section no longer covered was committed", last, ok, n-2)
	}
	if s := d.Stats().Snapshot(); s.Signals == 0 || s.Rollbacks != 1 || cw.inits != 1 {
		t.Fatalf("signals = %d, rollbacks = %d, inits = %d; want the finder signalled, rolled back once and restarted once", s.Signals, s.Rollbacks, cw.inits)
	}
	if got := prot.s.Get(); got != cw.slots[n-2] {
		t.Fatalf("prot shields slot %d after the walk, want the new tail (slot %d)", got, cw.slots[n-2])
	}
}

// TestFindHandsOff pins the three ways a find's first attempt leaves its
// section without concluding, against TestFirstAttemptHandsOff's walk from
// the start. A spent budget and a marked position both hand the live
// section to the walk: it protects exactly the positions the walk from the
// start protects, every position is stepped past once, and there is no
// rollback or init; the marked position is excised once, by the walk. A
// failed poll is one rollback and one init.
func TestFindHandsOff(t *testing.T) {
	const n, period = 100, 16
	for _, backend := range []Backend{BackendRCU, BackendBRCU} {
		name := map[Backend]string{BackendRCU: "HP-RCU", BackendBRCU: "HP-BRCU"}[backend]
		t.Run(name, func(t *testing.T) {
			protected := func(mark int64, run func(*chainWalk) (int64, bool)) (log []int64, cw *chainWalk, d *Domain) {
				cw, d = newChainWalk(t, backend, n, Config{BackupPeriod: period})
				cw.prot = &posProtector{testProtector{cw.h.NewShield()}, &log}
				cw.backup = &posProtector{testProtector{cw.h.NewShield()}, &log}
				if mark >= 0 {
					cw.marked = map[int64]bool{mark: true}
				}
				if last, ok := run(cw); !ok || last != n-1 {
					t.Fatalf("run = (%d,%v), want (%d,true)", last, ok, n-1)
				}
				return log, cw, d
			}
			want, _, _ := protected(-1, (*chainWalk).walk)
			for _, mark := range []int64{-1, 0, 5, period - 2} {
				if got, _, _ := protected(mark, (*chainWalk).walk); !reflect.DeepEqual(got, want) {
					t.Fatalf("a walk from the start past a marked position %d protected %v, unmarked %v", mark, got, want)
				}
				got, cw, d := protected(mark, (*chainWalk).find)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("a find handed off (marked position %d) protected %v, a walk from the start %v", mark, got, want)
				}
				wantExcised := 0
				if mark >= 0 {
					wantExcised = 1
				}
				if rb := d.Stats().Rollbacks.Load(); cw.visited != n || cw.inits != 0 || rb != 0 || cw.excised != wantExcised {
					t.Fatalf("hand-off at marked position %d: %d steps, %d inits, %d rollbacks, %d excisions; want each of the %d steps once, no init, no rollback, %d excisions",
						mark, cw.visited, cw.inits, rb, cw.excised, n, wantExcised)
				}
			}

			_, cw, d := protected(-1, func(cw *chainWalk) (int64, bool) {
				cw.onStep = func(w *Walk[chainCursor], pos int64) {
					if w == nil && pos == 5 {
						cw.h.brcu.SelfNeutralize()
					}
				}
				return cw.find()
			})
			if rb := d.Stats().Rollbacks.Load(); cw.visited != 6+n || cw.inits != 1 || rb != 1 {
				t.Fatalf("failed poll: %d steps, %d inits, %d rollbacks; want %d, 1, 1", cw.visited, cw.inits, rb, 6+n)
			}
		})
	}
}
