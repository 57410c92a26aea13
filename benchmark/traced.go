package main

import (
	"fmt"
	"sort"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// The traced pass of one workload: an untraced reference repeat, the
// same repeat with spans recorded, and the paper's scheme comparison on
// the same harness. Everything reported here is per-layer; end-to-end
// metrics never come from this file.

// refRepeats fresh instances make the untraced reference of a traced pass.
const refRepeats = 3

// comparators are the schemes HP-BRCU is measured against (§6).
var comparators = []struct {
	key    string
	scheme hpbrcu.Scheme
}{
	{"ebr", hpbrcu.RCU},
	{"hp", hpbrcu.HP},
	{"nbr", hpbrcu.NBR},
}

// meanScanSteps is the mean traversal length of a long_scan Get.
func meanScanSteps(sched *schedule) float64 {
	var steps int64
	for _, op := range sched.ops[0] {
		steps += scanSteps(int64(op >> 2))
	}
	return float64(steps) / float64(len(sched.ops[0]))
}

// predictedNS is the ledger's prediction of one worker's time per
// operation on workload, built from the rows that workload crosses.
func predictedNS(workload string, led *ledger, sched *schedule) float64 {
	v := led.vals
	// On a half-full map half the Inserts find the key present and half
	// the Removes find it absent; those cost a lookup. The other half are
	// priced as halves of a successful Insert/Remove pair.
	write := 0.5*v["facade.get_ns"] + 0.5*v["facade.insert_remove_ns"]/2
	switch workload {
	case wlPointReadMostly:
		return 0.90*v["facade.get_ns"] + 0.10*write
	case wlWriteChurn:
		return write
	case wlLongScan:
		return meanScanSteps(sched) * v["core.step_ns.contended"]
	default:
		return v["server.inproc_req_ns"] + v["server.self_us"]*1e3
	}
}

// runTracedWorkload produces workload's per-workload ledger rows.
func runTracedWorkload(spec *benchSpec, workload string, seed int64, d time.Duration, led *ledger, tl *traceLog) (result, error) {
	sched := newSchedule(workload, seed)
	bufs := newLatBufs()
	warm := time.Duration(float64(d) * warmFrac)

	// The untraced reference is refRepeats fresh instances sharing d, for
	// the same reason a run is 7: one instance is ±15% on its own.
	refs, err := probedRepeats(workload, hpbrcu.HPBRCU, sched, refRepeats, warm/refRepeats, d/refRepeats, bufs)
	if err != nil {
		return result{}, fmt.Errorf("reference: %w", err)
	}
	var (
		attempted, failed int64
		sum               hpbrcu.StatsSnapshot
		peak, bound       int64 = 0, -1
		allocs, gcCPU     float64
	)
	for _, r := range refs {
		attempted += r.attempted
		failed += r.failed
		sum.EpochAdvances += r.during.EpochAdvances
		sum.ForcedAdvances += r.during.ForcedAdvances
		sum.Signals += r.during.Signals
		sum.BackpressureThrottles += r.during.BackpressureThrottles
		sum.BackpressureRejects += r.during.BackpressureRejects
		sum.ReapedHandles += r.during.ReapedHandles
		// Worst peak against the tightest bound, so a violation in one
		// repeat is never averaged away.
		peak = max(peak, r.peak)
		if bound < 0 || r.bound < bound {
			bound = r.bound
		}
		allocs += r.allocsPerOp / refRepeats
		gcCPU += r.gcCPUFrac / refRepeats
	}
	median := func(f func(repeat) float64) float64 { return medianOf(column(refs, f)) }
	refOps := median(func(r repeat) float64 { return r.opsPerS })

	tr := newTracer()
	traced, err := runRepeat(workload, hpbrcu.HPBRCU, sched, warm, d, tr, bufs)
	if err != nil {
		return result{}, fmt.Errorf("%s traced repeat: %w", workload, err)
	}
	tl.absorb(workload, tr)
	attempted += traced.attempted
	failed += traced.failed

	vals := map[string]float64{
		"brcu.epoch_advances":    float64(sum.EpochAdvances),
		"brcu.forced_advances":   float64(sum.ForcedAdvances),
		"brcu.signals":           float64(sum.Signals),
		"alloc.go_allocs_per_op": allocs,
		"alloc.gc_cpu_frac":      gcCPU,
		"reap.throttles":         float64(sum.BackpressureThrottles),
		"reap.rejects":           float64(sum.BackpressureRejects),
		"reap.reaped_handles":    float64(sum.ReapedHandles),
		"reap.peak_unreclaimed":  float64(peak),
		"reap.bound":             float64(bound),
		"trace.overhead_frac":    traced.opsPerS/refOps - 1,
		"e2e.raw_ops_per_s":      refOps,
		"e2e.host_speed":         median(func(r repeat) float64 { return r.hostSpeed }),
		"e2e.p50_us":             median(func(r repeat) float64 { return r.p50US }),
		"e2e.p90_us":             median(func(r repeat) float64 { return r.p90US }),
		"e2e.p99_us":             median(func(r repeat) float64 { return r.p99US }),
	}
	for _, c := range comparators {
		r, err := runRepeat(workload, c.scheme, sched, warm, d/2, nil, bufs)
		if err != nil {
			return result{}, fmt.Errorf("%s under %s: %w", workload, c.scheme, err)
		}
		vals["schemes."+c.key+".ops_per_s"] = r.opsPerS
		attempted += r.attempted
		failed += r.failed
	}
	vals["schemes.hpbrcu_vs_ebr"] = refOps / vals["schemes.ebr.ops_per_s"]
	vals["schemes.hpbrcu_vs_hp"] = refOps / vals["schemes.hp.ops_per_s"]

	// One worker's measured time per op against what the ledger rows add
	// up to. long_scan has a single reader; the others split ops over
	// both workers.
	perWorker := float64(workers)
	if workload == wlLongScan {
		perWorker = 1
	}
	measuredNS := perWorker / refOps * 1e9
	predicted := predictedNS(workload, led, sched)
	vals["ledger.residual_frac"] = (measuredNS - predicted) / measuredNS

	fmt.Printf("\n== %s: per-workload ledger rows (%d reference repeats sharing %v, 1 traced repeat of %v, schemes at %v) ==\n", workload, refRepeats, d, d, d/2)
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g\n", n, vals[n])
	}
	fmt.Printf("ratios: hpbrcu %.6g op/s over ebr %.6g, hp %.6g, nbr %.6g; traced %.6g op/s over untraced %.6g\n",
		refOps, vals["schemes.ebr.ops_per_s"], vals["schemes.hp.ops_per_s"], vals["schemes.nbr.ops_per_s"], traced.opsPerS, refOps)
	fmt.Printf("residual: measured %.1f ns/op per worker, ledger predicts %.1f ns\n", measuredNS, predicted)

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range spec.PerLayer {
		v, ok := vals[m.Name]
		if !ok {
			v, ok = led.vals[m.Name]
		}
		if !ok {
			return res, fmt.Errorf("per-layer metric %q is declared in BENCHMARK.json but was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// runPerLayer is one driver-style traced run: the ledger, then the
// workload's own rows.
func runPerLayer(spec *benchSpec, workload string, seed int64, seconds float64, tl *traceLog) (result, error) {
	_, measure := splitSeconds(seconds, repeatsPerRun)
	led, err := runLedger(seed, measure, tl)
	if err != nil {
		return result{}, err
	}
	return runTracedWorkload(spec, workload, seed, measure, led, tl)
}
