package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/bench"
	"github.com/smrgo/hpbrcu/internal/chaos"
)

var (
	chaosSeeds  = flag.Int("seeds", 8, "chaos: seeds per (scheme, structure, schedule) cell")
	chaosLeak   = flag.Bool("leak", false, "chaos: compose goroutine-death faults into every schedule and gate on the adoption of every dropped handle after a garbage collection")
	chaosPanic  = flag.Bool("panic", false, "chaos: compose injected panics into every schedule; maps run under PanicRecover and the sweep gates on containment accounting")
	chaosFacade = flag.Bool("facade", false, "chaos: drive the handle-free facade through a small handle pool (HP-BRCU); the sweep gates on safety, the §5 bound and balanced books after Close")
)

// runChaos sweeps the fault-injection schedule corpus over the expedited
// schemes and both list shapes and reports survivals and invariant
// violations. Any violation makes the process exit nonzero, so the sweep
// doubles as a CI gate.
func runChaos() {
	if *chaosSeeds < 1 {
		fmt.Fprintf(os.Stderr, "chaos: -seeds %d makes a vacuous sweep (need >= 1)\n", *chaosSeeds)
		os.Exit(2)
	}

	// The chaos harness targets the expedited schemes (the others have no
	// fault sites to speak of); honor -schemes but clamp to that set. The
	// facade mode clamps further to HP-BRCU, the scheme of the production
	// posture.
	capable := map[hpbrcu.Scheme]bool{hpbrcu.HPRCU: true, hpbrcu.HPBRCU: true}
	if *chaosFacade {
		capable = map[hpbrcu.Scheme]bool{hpbrcu.HPBRCU: true}
	}
	var sel []hpbrcu.Scheme
	for _, s := range schemeFilter() {
		if capable[s] {
			sel = append(sel, s)
		}
	}
	if len(sel) == 0 {
		fmt.Fprintln(os.Stderr, "chaos: no expedited scheme selected (need HP-RCU and/or HP-BRCU)")
		os.Exit(2)
	}
	schedules := chaos.Schedules
	if *chaosLeak {
		schedules = chaos.WithLeak(schedules)
	}
	if *chaosPanic {
		schedules = chaos.WithPanic(schedules)
	}
	fmt.Printf("Chaos sweep: %d seeds × %d schedules", *chaosSeeds, len(schedules))
	if *chaosLeak {
		fmt.Print(", goroutine-death faults + adoption")
	}
	if *chaosPanic {
		fmt.Print(", injected panics + containment")
	}
	if *chaosFacade {
		fmt.Print(", facade ops through a pooled handle")
	}
	fmt.Println()

	header := row{"scheme", "structure", "schedule", "runs", "survived", "faults fired", "forced advances"}
	if *chaosLeak {
		header = append(header, "leaked", "reaped")
	}
	if *chaosPanic {
		header = append(header, "panics")
	}
	if *chaosFacade {
		header = append(header, "checkouts", "exhausted")
	}
	var rows []row
	var failures []string
	for _, scheme := range sel {
		// The two lists only: the skip list's and the tree's descents run the
		// same corpus in tier-1 (internal/chaos's two grids), which is their
		// gate — doubling this list would double CI's chaos job.
		for _, st := range []bench.Structure{bench.HList, bench.HMList} {
			for _, sched := range schedules {
				var fired, forced, leaked, reaped, panics uint64
				var checkouts, exhausted uint64
				survived := 0
				for seed := 1; seed <= *chaosSeeds; seed++ {
					res := chaos.Run(chaos.Scenario{
						Structure: st, Scheme: scheme, Seed: uint64(seed),
						Schedule: sched,
						Facade:   *chaosFacade,
					})
					fired += res.Fired
					forced += uint64(res.Stats.ForcedAdvances)
					leaked += res.Leaked
					reaped += uint64(res.Stats.ReapedHandles)
					panics += uint64(res.Stats.PanicsRecovered)
					checkouts += uint64(res.Stats.PoolCheckouts)
					exhausted += uint64(res.Stats.PoolExhausted)
					if res.Survived() {
						survived++
					} else {
						for _, v := range res.Violations {
							failures = append(failures, fmt.Sprintf("%s/%s/%s seed %d: %s",
								scheme, st, sched.Name, seed, v))
						}
						// The harness records an event trace per handle;
						// the merged tail shows what the reclamation core
						// was doing when the invariant broke.
						if len(res.TraceTail) > 0 {
							failures = append(failures, "  trace tail:")
							for _, l := range res.TraceTail {
								failures = append(failures, "    "+l)
							}
						}
					}
				}
				r := row{
					scheme.String(), string(st), sched.Name,
					strconv.Itoa(*chaosSeeds),
					fmt.Sprintf("%d/%d", survived, *chaosSeeds),
					strconv.FormatUint(fired, 10),
					strconv.FormatUint(forced, 10),
				}
				if *chaosLeak {
					r = append(r, strconv.FormatUint(leaked, 10), strconv.FormatUint(reaped, 10))
				}
				if *chaosPanic {
					r = append(r, strconv.FormatUint(panics, 10))
				}
				if *chaosFacade {
					r = append(r, strconv.FormatUint(checkouts, 10), strconv.FormatUint(exhausted, 10))
				}
				rows = append(rows, r)
			}
		}
	}
	emit(header, rows)

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d invariant violation(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	fmt.Println("all runs survived: zero invariant violations")
}
