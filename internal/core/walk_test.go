package core

// Tests of the traversal API from a loop of the test's own, shaped like
// hlist's: what the step hooks carry, where the countdown puts
// checkpoints, hooked or not, what Conclude commits — a read's values, a
// find's shields — and how Walk takes the steps the loop cannot: a
// rollback, a checkpoint, a marked position.

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/smrgo/hpbrcu/internal/alloc"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/fault"
)

// chainWalk is one handle's traversal of a chain: it owns the per-node
// loop and reaches the protocol only through Try, Step, Walk, Shield and
// Conclude.
type chainWalk struct {
	h            *Handle
	pool         *alloc.Pool[node]
	slots        []uint64 // the chain's, by position
	buf          CursorBuf[chainCursor]
	prot, backup Protector[chainCursor]

	valid   func(c *chainCursor) bool // nil: always resumable
	onStep  func(a *Attempt, pos int64)
	failAt  int64 // a find loses its helping CAS at this position (fix reports false); 0: never
	visited int
	inits   int // calls of init
	valids  int // calls of valid, from a resume and from a checkpoint

	// onConclude, if set, runs between the tail's read (and, in find, its
	// shield) and Conclude's poll.
	onConclude func()

	// marked are the positions a find must not step past: it hands them to
	// Walk with a fix that excises the position in a masked region (it
	// unmarks it) before the loop visits it.
	marked  map[int64]bool
	excised int
}

// read is a read-only traversal shaped like hlist's contains: it commits
// its reads with Conclude and shields nothing.
func (cw *chainWalk) read() (last int64, ok bool) { return cw.run(false) }

// find is a write's find shaped like hlist's search: it shields the tail
// before Conclude's poll commits it, and hands marked positions to Walk.
func (cw *chainWalk) find() (last int64, ok bool) { return cw.run(true) }

// run is the loop of read and find: the tail's key, or not ok when the
// traversal ended early (a lost CAS, or a checkpoint that no longer
// validates).
func (cw *chainWalk) run(find bool) (last int64, ok bool) {
	init := func() chainCursor {
		cw.inits++
		return chainCursor{cur: atomicx.MakeRef(cw.slots[0], 0)}
	}
	valid := func(c *chainCursor) bool {
		cw.valids++
		return cw.valid == nil || cw.valid(c)
	}
	fix := func(c *chainCursor) bool {
		if cw.failAt > 0 && c.pos == cw.failAt {
			return false
		}
		pos := c.pos
		ran, _ := cw.h.Mask(func() {
			delete(cw.marked, pos)
			cw.excised++
		})
		return ran
	}
	cw.buf.Init(cw.h, cw.prot, cw.backup) // a test may have swapped the protectors
	a := cw.buf.Try()
	c := chainCursor{cur: atomicx.MakeRef(cw.slots[0], 0)}
	for {
		if !a.Step() {
			if c, ok = cw.buf.Walk(&a, c, init, valid, nil); !ok {
				return 0, false
			}
		}
		if find && (cw.marked[c.pos] || cw.failAt > 0 && c.pos == cw.failAt) {
			if c, ok = cw.buf.Walk(&a, c, init, valid, fix); !ok {
				return 0, false
			}
			continue
		}
		cw.visited++
		if cw.onStep != nil {
			cw.onStep(&a, c.pos)
		}
		nd := cw.pool.At(c.cur.Slot())
		nx := nd.next.Load()
		if nx.IsNil() {
			last := nd.key
			if find {
				cw.buf.Shield(c)
			}
			if cw.onConclude != nil {
				cw.onConclude()
			}
			if a.Conclude() {
				return last, true
			}
			continue
		}
		c.cur, c.pos = nx, c.pos+1
	}
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
// Period 1 and finds the tail of a 1 000-node chain: all of them must fire
// from Walk's hooked steps, the forced rollbacks must resume to the right
// answer, a contained panic must leave the handle usable, and a plan armed
// in the middle of a section must be picked up by the next one.
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

	if last, ok := cw.find(); !ok || last != n-1 {
		t.Fatalf("find under forced rollbacks = (%d,%v), want (%d,true)", last, ok, n-1)
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
		cw.find()
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
	if last, ok := cw.find(); !ok || last != n-1 {
		t.Fatalf("find after contained panic = (%d,%v), want (%d,true)", last, ok, n-1)
	}

	// Armed mid-section: the running section keeps its unhooked countdown,
	// the next one runs the hooks.
	plans[fault.SitePanic] = fault.Plan{}
	plans[fault.SiteStepRollback] = fault.Plan{}
	inj = fault.New(fault.Config{Seed: 1, Plans: plans})
	var sawOff, sawOn bool
	cw.onStep = func(a *Attempt, pos int64) {
		switch {
		case !fault.On && pos == 100:
			if cw.buf.hooks {
				t.Error("section hooked with nothing armed")
			}
			fault.Activate(inj)
			sawOff = inj.Arrivals(fault.SitePoll) == 0
		case fault.On && pos == 120 && !sawOn:
			// Past the checkpoint at 112, which Walk took unhooked.
			if cw.buf.hooks || inj.Arrivals(fault.SitePoll) != 0 {
				t.Error("running section picked the plan up mid-loop")
			}
			sawOn = true
			cw.h.brcu.SelfNeutralize() // end this attempt
		}
	}
	if last, ok := cw.find(); !ok || last != n-1 {
		t.Fatalf("find across Activate = (%d,%v), want (%d,true)", last, ok, n-1)
	}
	if !sawOff || !sawOn || inj.Arrivals(fault.SitePoll) == 0 {
		t.Fatalf("mid-traversal Activate: off=%v on=%v poll arrivals=%d, want the next section to reach the hooks",
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
// the next step, so a cursor that never validates still arrives. The same
// positions hold with a hook armed, when every step goes through Walk. It
// also pins the find's two ways out: Shield and Conclude deliver the final
// cursor in the cursor slot, protected in prot; a lost CAS leaves the
// section with the find not ok.
func TestWalkCheckpointCadence(t *testing.T) {
	const n, period = 100, 16
	for _, backend := range []Backend{BackendRCU, BackendBRCU} {
		name := map[Backend]string{BackendRCU: "HP-RCU", BackendBRCU: "HP-BRCU"}[backend]
		t.Run(name, func(t *testing.T) {
			for _, hooked := range []bool{false, true} {
				if hooked {
					defer func(p int) { atomicx.YieldPeriod = p }(atomicx.YieldPeriod)
					atomicx.YieldPeriod = 1 << 30 // arms the hooks, never yields
				}
				cadence(t, backend, hooked)
			}
		})
	}
}

func cadence(t *testing.T, backend Backend, hooked bool) {
	const n, period = 100, 16
	cw, _ := newChainWalk(t, backend, n, Config{BackupPeriod: period})
	var log []int64
	prot := &posProtector{testProtector{cw.h.NewShield()}, &log}
	cw.prot = prot
	cw.backup = &posProtector{testProtector{cw.h.NewShield()}, &log}
	cw.onStep = func(a *Attempt, _ int64) {
		if cw.buf.hooks != hooked {
			t.Fatalf("section hooked = %v, want %v", cw.buf.hooks, hooked)
		}
	}

	// The find protects every period-th position and the destination —
	// not the entry cursor, which a rollback rebuilds.
	if last, ok := cw.find(); !ok || last != n-1 {
		t.Fatalf("find = (%d,%v)", last, ok)
	}
	if want := []int64{16, 32, 48, 64, 80, 96, n - 1}; !reflect.DeepEqual(log, want) {
		t.Fatalf("hooked %v: protected positions %v, want %v", hooked, log, want)
	}
	tail := cw.slots[n-1]
	if c := cw.buf.cur; c.cur.Slot() != tail || c.pos != n-1 {
		t.Fatalf("final cursor %+v, want the tail (slot %d) at position %d", c, tail, n-1)
	}
	if got := prot.s.Get(); got != tail {
		t.Fatalf("prot shields slot %d after Conclude, want the tail (slot %d)", got, tail)
	}

	log = nil
	cw.valid = func(c *chainCursor) bool { return c.pos != 32 && c.pos != 48 }
	if last, ok := cw.find(); !ok || last != n-1 {
		t.Fatalf("find with postponed checkpoints = (%d,%v)", last, ok)
	}
	if want := []int64{16, 64, 80, 96, n - 1}; !reflect.DeepEqual(log, want) {
		t.Fatalf("hooked %v: protected positions with 32 and 48 unresumable %v, want %v", hooked, log, want)
	}

	log = nil
	cw.valid = func(*chainCursor) bool { return false }
	if last, ok := cw.find(); !ok || last != n-1 {
		t.Fatalf("find whose cursor never validates = (%d,%v): postponed checkpoints must not be fatal", last, ok)
	}
	if want := []int64{n - 1}; !reflect.DeepEqual(log, want) {
		t.Fatalf("hooked %v: protected positions with nothing resumable %v, want %v", hooked, log, want)
	}

	cw.valid, cw.failAt = nil, 40
	if last, ok := cw.find(); ok {
		t.Fatalf("find that lost its CAS at %d = (%d,true), want not ok", cw.failAt, last)
	}
	if b := cw.h.brcu; !strings.Contains(b.Describe(), "phase=Out") {
		t.Fatalf("a lost CAS left the handle in a critical section: %s", b.Describe())
	}
}

// TestWalkFirstCheckpointIsLazy pins the two halves of a rollback in Walk:
// before the first complete checkpoint it starts over — init runs again,
// valid is not consulted, nothing was protected — and after it, it resumes
// from the checkpoint, revalidated once, without init.
func TestWalkFirstCheckpointIsLazy(t *testing.T) {
	const n, period = 100, 16
	cw, d := newChainWalk(t, BackendBRCU, n, Config{BackupPeriod: period})
	var log []int64
	cw.prot = &posProtector{testProtector{cw.h.NewShield()}, &log}
	cw.backup = &posProtector{testProtector{cw.h.NewShield()}, &log}

	type books struct{ inits, valids, protects int }
	var at books // at the forced rollback
	stage := 0
	cw.onStep = func(_ *Attempt, pos int64) {
		now := books{cw.inits, cw.valids, len(log)}
		switch stage {
		case 0: // first section, short of the checkpoint at 16
			if pos == 5 {
				at, stage = now, 1
				cw.h.brcu.SelfNeutralize()
			}
		case 1: // the next poll failed: first step of the second section
			if want := (books{at.inits + 1, at.valids, 0}); pos != 0 || now != want {
				t.Errorf("after a rollback before the first checkpoint: pos %d, %+v; want a restart at 0 with %+v", pos, now, want)
			}
			stage = 2
		case 2: // past the checkpoint at 16
			if pos == 20 {
				at, stage = now, 3
				cw.h.brcu.SelfNeutralize()
			}
		case 3: // first step of the third section
			if want := (books{at.inits, at.valids + 1, at.protects}); pos != 16 || now != want {
				t.Errorf("after a rollback past the first checkpoint: pos %d, %+v; want a resume at 16 with %+v", pos, now, want)
			}
			stage = 4
		}
	}
	if last, ok := cw.find(); !ok || last != n-1 {
		t.Fatalf("find = (%d,%v), want (%d,true)", last, ok, n-1)
	}
	if stage != 4 {
		t.Fatalf("find ended in stage %d: a forced rollback did not happen", stage)
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
	cw.onStep = func(_ *Attempt, pos int64) {
		if marked && !advanced {
			advance()
		}
		// Errorf, not Fatalf: the walk must still leave its section.
		if slot := cw.slots[pos]; cw.pool.Hdr(slot).State() == alloc.StateFree {
			t.Errorf("the walk stepped onto position %d, slot %d, whose header reads free", pos, slot)
		}
	}

	if last, ok := cw.find(); ok {
		t.Fatalf("find = (%d,true), want it ended at the checkpoint whose cursor was marked", last)
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

// TestConcludeCommitsItsReads: Conclude's poll is what makes the reads
// before it safe to return. Between the tail's key read and that poll,
// another handle unlinks and retires the tail, and its barrier frees it —
// which it can only do after neutralizing the reader, whose section would
// otherwise hold the tail's grace period back. The read must roll back,
// once, and return the new tail, never the key it read from the now free
// slot.
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
		t.Fatalf("init ran %d times, want once: Walk restarts the read after the failed poll", cw.inits)
	}
}

// TestConcludeProtectsNothing: a read that concludes before its first
// checkpoint publishes no shield, under both schemes and with or without a
// hook armed: a two-node read and one of BackupPeriod−1 steps make no
// Protect call at all.
func TestConcludeProtectsNothing(t *testing.T) {
	const period = 16
	for _, backend := range []Backend{BackendRCU, BackendBRCU} {
		name := map[Backend]string{BackendRCU: "HP-RCU", BackendBRCU: "HP-BRCU"}[backend]
		t.Run(name, func(t *testing.T) {
			defer func(p int) { atomicx.YieldPeriod = p }(atomicx.YieldPeriod)
			for _, yield := range []int{0, 1 << 30} {
				atomicx.YieldPeriod = yield // 1<<30 arms the hooks and never yields
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
						t.Fatalf("%d-node read (yield period %d): protected %v, init ran %d times, %d steps; want nothing protected, no init, %d steps", n, yield, log, cw.inits, cw.visited, n)
					}
				}
			}
		})
	}
}

// TestFirstAttemptHandsOff pins the two ways a read's first section hands
// a step to Walk. A spent countdown: Walk checkpoints in the live section,
// exactly where a find does, and the read runs every step exactly once — no
// rollback, no init. A failed poll: Walk counts one rollback, runs init
// once, and the read starts over.
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
			found, _, _ := protected((*chainWalk).find)
			want := found[:len(found)-1] // the find's checkpoints, without its destination's shield
			got, cw, d := protected((*chainWalk).read)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("a read checkpointed at %v, a find at %v", got, want)
			}
			if rb := d.Stats().Rollbacks.Load(); cw.visited != n || cw.inits != 0 || rb != 0 {
				t.Fatalf("spent countdowns: %d steps, %d inits, %d rollbacks; want each of the %d steps once, no init, no rollback", cw.visited, cw.inits, rb, n)
			}

			_, cw, d = protected(func(cw *chainWalk) (int64, bool) {
				cw.onStep = func(_ *Attempt, pos int64) {
					if pos == 5 && cw.inits == 0 {
						cw.h.brcu.SelfNeutralize()
					}
				}
				return cw.read()
			})
			// Positions 0..5 in the first section (the poll before 6 fails),
			// then the whole chain again from init.
			if rb := d.Stats().Rollbacks.Load(); cw.visited != 6+n || cw.inits != 1 || rb != 1 {
				t.Fatalf("failed poll: %d steps, %d inits, %d rollbacks; want %d, 1, 1", cw.visited, cw.inits, rb, 6+n)
			}
		})
	}
}

// TestFindShieldsBeforeConclude: a find hands its caller a position to CAS
// outside the section, so it must shield that position before Conclude's
// poll commits it. Between the tail's shield and that poll, another handle
// unlinks and retires the tail, and its barrier signals the finder to push
// the tail into the HP step: the shield must already hold it there, the
// poll must fail, and the find must roll back once, run init once and
// return the new tail. A find that concludes shields its destination in
// prot and nothing else.
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
		t.Fatalf("prot shields slot %d after the find, want the new tail (slot %d)", got, cw.slots[n-2])
	}
}

// TestFindHandsOff pins what a find's marked position costs: Walk excises
// it in place, in the live section, and the step after the excision is the
// one it interrupted. So a find past a marked position protects exactly the
// positions a find past none protects, every position is stepped past
// once, there is no rollback or init, and the position is excised once. A
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
			want, _, _ := protected(-1, (*chainWalk).find)
			for _, mark := range []int64{0, 5, period - 2, period, n - 1} {
				got, cw, d := protected(mark, (*chainWalk).find)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("a find past a marked position %d protected %v, one past none %v", mark, got, want)
				}
				if rb := d.Stats().Rollbacks.Load(); cw.visited != n || cw.inits != 0 || rb != 0 || cw.excised != 1 {
					t.Fatalf("marked position %d: %d steps, %d inits, %d rollbacks, %d excisions; want each of the %d steps once, no init, no rollback, 1 excision",
						mark, cw.visited, cw.inits, rb, cw.excised, n)
				}
			}

			_, cw, d := protected(-1, func(cw *chainWalk) (int64, bool) {
				cw.onStep = func(_ *Attempt, pos int64) {
					if pos == 5 && cw.inits == 0 {
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
