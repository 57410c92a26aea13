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
	chaosSeeds       = flag.Int("seeds", 8, "chaos: seeds per (scheme, structure, schedule) cell")
	chaosLeak        = flag.Bool("leak", false, "chaos: compose goroutine-death faults into every schedule; HP-BRCU runs the orphan reaper and gates on reap convergence")
	chaosPanic       = flag.Bool("panic", false, "chaos: compose injected panics into every schedule; maps run under PanicRecover and the sweep gates on containment accounting")
	chaosPool        = flag.Bool("poolleak", false, "chaos: drive the handle-free facade and compose checkout-leak faults into every schedule; HP-BRCU runs the orphan reaper and gates on the pool leak sweep reclaiming every leaked checkout")
	chaosWedge       = flag.Bool("shardwedge", false, "chaos: run the shard-wedge isolation sweep instead of the schedule corpus — wedge shard 0's janitor under leaking load, gate on the wedged shard reaping nothing while the healthy ones reap and every shard keeps reclaiming on a sharded map, and on global reap-service loss on the unsharded control")
	chaosWedgeShards = flag.Int("wedgeshards", 4, "chaos: shard count for the sharded half of -shardwedge")
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
	if *chaosWedge {
		runShardWedgeSweep()
		return
	}

	// The chaos harness targets the expedited schemes (the others have no
	// fault sites to speak of); honor -schemes but clamp to that set. The
	// pool-leak mode gates on reaper-backed reclamation, so it clamps
	// further to HP-BRCU.
	capable := map[hpbrcu.Scheme]bool{hpbrcu.HPRCU: true, hpbrcu.HPBRCU: true}
	if *chaosPool {
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
	if *chaosPool {
		schedules = chaos.WithPoolLeak(schedules)
	}
	fmt.Printf("Chaos sweep: %d seeds × %d schedules", *chaosSeeds, len(schedules))
	if *chaosLeak {
		fmt.Print(", goroutine-death faults + orphan reaper")
	}
	if *chaosPanic {
		fmt.Print(", injected panics + containment")
	}
	if *chaosPool {
		fmt.Print(", facade ops + checkout-leak faults + pool leak sweep")
	}
	fmt.Println()

	header := row{"scheme", "structure", "schedule", "runs", "survived", "faults fired", "forced advances"}
	if *chaosLeak {
		header = append(header, "leaked", "reaped")
	}
	if *chaosPanic {
		header = append(header, "panics")
	}
	if *chaosPool {
		header = append(header, "checkout leaks", "reclaimed")
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
				var checkoutLeaks, reclaimed uint64
				survived := 0
				for seed := 1; seed <= *chaosSeeds; seed++ {
					res := chaos.Run(chaos.Scenario{
						Structure: st, Scheme: scheme, Seed: uint64(seed),
						Schedule: sched,
						Reaper:   *chaosLeak || *chaosPool,
						Facade:   *chaosPool,
					})
					fired += res.Fired
					forced += uint64(res.Stats.ForcedAdvances)
					leaked += res.Leaked
					reaped += uint64(res.Stats.ReapedHandles)
					panics += uint64(res.Stats.PanicsRecovered)
					checkoutLeaks += res.CheckoutLeaks
					reclaimed += uint64(res.Stats.PoolLeaksReclaimed)
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
				if *chaosPool {
					r = append(r, strconv.FormatUint(checkoutLeaks, 10), strconv.FormatUint(reclaimed, 10))
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

// runShardWedgeSweep is the -shardwedge mode: for each seed, one sharded
// run (fault isolation: the wedged shard reaps nothing while the healthy
// shards reap, and every shard keeps reclaiming) and one unsharded
// control (the same wedge degrades the whole map: leaks fired during the
// outage stay unreaped until the janitor returns). Any violation exits
// nonzero, so the sweep doubles as a CI gate. The -min columns are the
// smallest over seeds; "-" marks a column the control does not measure.
func runShardWedgeSweep() {
	if *chaosWedgeShards < 2 {
		fmt.Fprintf(os.Stderr, "chaos: -wedgeshards %d cannot demonstrate isolation (need >= 2)\n", *chaosWedgeShards)
		os.Exit(2)
	}
	fmt.Printf("Shard-wedge sweep: %d seeds × {sharded(%d), unsharded control}, HP-BRCU HashMap, janitors + leaks on\n",
		*chaosSeeds, *chaosWedgeShards)

	header := row{"mode", "shards", "runs", "survived", "faults fired", "wedged reaped",
		"healthy reaped min", "wedged advΔ min", "healthy advΔ min", "leaked", "wedge leaks", "reaped"}
	minOf := func(cur *int64, v int64) {
		if v >= 0 && (*cur < 0 || v < *cur) {
			*cur = v
		}
	}
	cell := func(v int64) string {
		if v < 0 {
			return "-"
		}
		return strconv.FormatInt(v, 10)
	}
	var rows []row
	var failures []string
	for _, shards := range []int{*chaosWedgeShards, 1} {
		mode := "sharded"
		if shards == 1 {
			mode = "control"
		}
		var fired uint64
		var wedgedReaped, leaked, wedgeLeaks, reaped int64
		reapedMin, wedgedAdvMin, healthyAdvMin := int64(-1), int64(-1), int64(-1)
		survived := 0
		for seed := 1; seed <= *chaosSeeds; seed++ {
			res := chaos.RunShardWedge(chaos.ShardWedgeScenario{
				Shards: shards, Seed: uint64(seed),
			})
			fired += res.Fired
			wedgedReaped += res.WedgedReaped
			leaked += res.Leaked
			wedgeLeaks += res.WedgeLeaks
			reaped += res.Reaped
			minOf(&reapedMin, res.HealthyReapedMin)
			minOf(&wedgedAdvMin, res.WedgedAdvanceMin)
			minOf(&healthyAdvMin, res.HealthyAdvanceMin)
			if res.Survived() {
				survived++
			} else {
				for _, v := range res.Violations {
					failures = append(failures, fmt.Sprintf("%s seed %d: %s", mode, seed, v))
				}
			}
		}
		rows = append(rows, row{
			mode, strconv.Itoa(shards),
			strconv.Itoa(*chaosSeeds),
			fmt.Sprintf("%d/%d", survived, *chaosSeeds),
			strconv.FormatUint(fired, 10),
			strconv.FormatInt(wedgedReaped, 10),
			cell(reapedMin), cell(wedgedAdvMin), cell(healthyAdvMin),
			strconv.FormatInt(leaked, 10),
			strconv.FormatInt(wedgeLeaks, 10),
			strconv.FormatInt(reaped, 10),
		})
	}
	emit(header, rows)

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d invariant violation(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	fmt.Println("all runs survived: both-ways shard isolation held")
}
