package chaos

import (
	"testing"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/bench"
	"github.com/smrgo/hpbrcu/internal/obs"
)

// gridStructures are the structures the two tier-1 grids run: the two
// lists of the `smrbench chaos` sweep, and the two descents — rollbacks,
// mask aborts and advance storms inside a multi-level walk, the recover
// barrier clearing a skip-list handle's 84 shields — which that sweep
// leaves to this package.
var gridStructures = []bench.Structure{bench.HList, bench.HMList, bench.SkipList, bench.NMTree}

// TestRunSurvivesAcceptanceGrid is a scaled-down version of the
// `smrbench chaos` acceptance sweep: HP-RCU and HP-BRCU on every structure
// of gridStructures must survive every schedule with zero invariant
// violations.
func TestRunSurvivesAcceptanceGrid(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, scheme := range []hpbrcu.Scheme{hpbrcu.HPRCU, hpbrcu.HPBRCU} {
		for _, st := range gridStructures {
			var fired uint64
			for _, sched := range Schedules {
				for _, seed := range seeds {
					res := Run(Scenario{
						Structure: st, Scheme: scheme, Seed: seed,
						Schedule: sched, Workers: 3, Ops: 400, KeyRange: 64,
					})
					if !res.Survived() {
						t.Fatalf("%s/%s/%s seed %d: %v", scheme, st, sched.Name, seed, res.Violations)
					}
					fired += res.Fired
				}
			}
			// Some schedules fire sites that change nothing under a
			// scheme (an advance storm under HP-RCU, which never
			// signals); require only that the corpus as a whole
			// exercised the fault layer.
			if fired == 0 {
				t.Errorf("%s/%s: no schedule in the corpus ever fired", scheme, st)
			}
		}
	}
}

// TestRunSurvivesPanicSchedules: with injected panics composed into the
// corpus, every run must still survive — the containment layer converts
// each throw into a latched handle error, an operation that latches one
// did not apply (the skip list and the tree finish an operation whose later
// traversal panicked rather than report it failed), and the recovery accounting
// matches the injection count one-for-one (Run asserts it).
func TestRunSurvivesPanicSchedules(t *testing.T) {
	seeds := []uint64{1, 2}
	scheds := WithPanic(Schedules)
	if testing.Short() {
		seeds = seeds[:1]
		scheds = scheds[:2]
	}
	for _, scheme := range []hpbrcu.Scheme{hpbrcu.HPRCU, hpbrcu.HPBRCU} {
		for _, st := range gridStructures {
			var recovered int64
			for _, sched := range scheds {
				for _, seed := range seeds {
					res := Run(Scenario{
						Structure: st, Scheme: scheme, Seed: seed,
						Schedule: sched, Workers: 3, Ops: 400, KeyRange: 64,
					})
					if !res.Survived() {
						t.Fatalf("%s/%s/%s seed %d: %v", scheme, st, sched.Name, seed, res.Violations)
					}
					recovered += res.Stats.PanicsRecovered
				}
			}
			if recovered == 0 {
				t.Errorf("%s/%s: panic corpus never fired a containment", scheme, st)
			}
		}
	}
}

// TestRunLeakSchedulesAdopt: with goroutine-death faults composed into
// the corpus, every handle a killed worker dropped is adopted once the
// collector has run, and the books balance (Run asserts both); the
// schedules must actually kill workers for the gate to mean anything.
func TestRunLeakSchedulesAdopt(t *testing.T) {
	scheds := WithLeak(Schedules)
	if testing.Short() {
		scheds = scheds[:2]
	}
	for _, scheme := range []hpbrcu.Scheme{hpbrcu.HPRCU, hpbrcu.HPBRCU} {
		var leaked, reaped int64
		for _, sched := range scheds {
			res := Run(Scenario{
				Structure: bench.HList, Scheme: scheme, Seed: 3,
				Schedule: sched, Workers: 4, Ops: 3000, KeyRange: 64,
			})
			if !res.Survived() {
				t.Fatalf("%s/%s: %v", scheme, sched.Name, res.Violations)
			}
			leaked += int64(res.Leaked)
			reaped += res.Stats.ReapedHandles
		}
		if leaked == 0 {
			t.Errorf("%s: the leak corpus never killed a worker", scheme)
		}
		if reaped < leaked {
			t.Errorf("%s: reaped %d of %d dropped handles", scheme, reaped, leaked)
		}
	}
}

// TestRunFacadePoolLeaksNothing: every checkout of a facade scenario comes
// back through the facade's deferred checkin, so no pooled handle is ever
// dropped for adoption to recover, and the books balance through Close.
func TestRunFacadePoolLeaksNothing(t *testing.T) {
	res := Run(Scenario{
		Structure: bench.HList, Scheme: hpbrcu.HPBRCU, Seed: 11,
		Schedule: Schedules[0], Workers: 4, Ops: 1500, KeyRange: 64,
		Facade: true,
	})
	if !res.Survived() {
		t.Fatal(res.Violations)
	}
	if res.Stats.PoolCheckouts == 0 {
		t.Fatal("facade run recorded zero pool checkouts")
	}
	if res.Stats.Unreclaimed != 0 {
		t.Fatalf("unreclaimed=%d after Close", res.Stats.Unreclaimed)
	}
	if res.Stats.ReapedHandles != 0 {
		t.Fatalf("reaped=%d: a pooled handle was adopted", res.Stats.ReapedHandles)
	}
}

// TestRunFacadeCleanSchedule: the facade mode also has to survive a
// hostile schedule with no composed leaks at all — every operation goes
// through checkout/checkin and the books balance through Close.
func TestRunFacadeCleanSchedule(t *testing.T) {
	res := Run(Scenario{
		Structure: bench.HMList, Scheme: hpbrcu.HPBRCU, Seed: 5,
		Schedule: Schedules[0], Workers: 3, Ops: 500, KeyRange: 64,
		Facade: true,
	})
	if !res.Survived() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Stats.PoolCheckouts == 0 {
		t.Fatal("facade run recorded zero pool checkouts")
	}
}

// TestRunBoundReported: an HP-BRCU run reports a positive observed bound
// and a peak under it — and the bound is the scenario's, not the
// scheduler's: workers too short to overlap by chance (on a plain build a
// fast one used to finish before a late one had registered, and the §5
// bound came out for fewer handles than the scenario has) still report the
// same bound run after run.
func TestRunBoundReported(t *testing.T) {
	var bounds [2]int64
	for i := range bounds {
		res := Run(Scenario{
			Structure: bench.HList, Scheme: hpbrcu.HPBRCU, Seed: 7,
			Schedule: Schedules[0], Workers: 4, Ops: 40, KeyRange: 32,
		})
		if !res.Survived() {
			t.Fatalf("violations: %v", res.Violations)
		}
		if res.Bound <= 0 {
			t.Fatalf("observed bound = %d, want > 0", res.Bound)
		}
		if res.Stats.PeakUnreclaimed > res.Bound {
			t.Fatalf("peak %d over bound %d (and Run did not flag it)", res.Stats.PeakUnreclaimed, res.Bound)
		}
		bounds[i] = res.Bound
	}
	if bounds[0] != bounds[1] {
		t.Fatalf("two runs of one scenario report bounds %d and %d: the bound was evaluated with the handles that happened to overlap", bounds[0], bounds[1])
	}
}

// TestRunCarriesTraceTail: every chaos run records an obs event trace
// and hands the merged tail back on the Result, so a violation report
// can show what the reclamation core was doing. The harness must also
// restore the previously active collector (here: none).
func TestRunCarriesTraceTail(t *testing.T) {
	res := Run(Scenario{
		Structure: bench.HList, Scheme: hpbrcu.HPBRCU, Seed: 3,
		Schedule: Schedules[0], Workers: 2, Ops: 300, KeyRange: 32,
	})
	if !res.Survived() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.TraceTail) == 0 {
		t.Fatal("chaos run produced no trace tail")
	}
	if obs.On || obs.Active() != nil {
		t.Fatal("chaos run left the obs gate open")
	}
}

// TestRunUnsupportedCombination: an impossible pairing is reported, not
// panicked on.
func TestRunUnsupportedCombination(t *testing.T) {
	res := Run(Scenario{Structure: bench.HMList, Scheme: hpbrcu.NBR, Seed: 1, Schedule: Schedules[0]})
	if res.Survived() {
		t.Fatal("unsupported combination reported as survived")
	}
}
