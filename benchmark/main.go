// Command benchmark is the repository's claim instrument: four long-run
// workloads, seven end-to-end metrics measured with tracing off, and an
// outside-in layer ledger measured in a separate traced pass. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run . -seed 42                       every workload, then the ledger
//	go run . -seed 42 -check                two untraced sets, compared against the bounds
//	go run . -workload long_scan -seed 7 -seconds 18 -trace 0   one driver-style run
//
// Every invocation ends by printing one JSON object on the last line of
// standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/atomicx"
	"github.com/smrgo/hpbrcu/internal/fault"
	"github.com/smrgo/hpbrcu/internal/obs"
)

const (
	// repeatsPerRun fresh-instance repeats make one reported value (their
	// median): HP-BRCU throughput varies ±15% between map instances, so a
	// single long run does not repeat.
	repeatsPerRun = 7
	// warmFrac of a repeat's measured time is spent warming up first.
	warmFrac = 0.125
)

// metricValue is one reported number in the contract's output shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed on the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// checkEnvironment asserts the fixed conditions: the benchmark measures
// the program as users run it, not the internal/bench yield harness.
func checkEnvironment() error {
	switch {
	case obs.On:
		return fmt.Errorf("obs.On must be false")
	case fault.On:
		return fmt.Errorf("fault.On must be false")
	case atomicx.YieldPeriod != 0:
		return fmt.Errorf("atomicx.YieldPeriod must be 0, is %d", atomicx.YieldPeriod)
	}
	runtime.GOMAXPROCS(workers)
	if runtime.NumCPU() < workers {
		fmt.Fprintf(os.Stderr, "warning: %d CPU(s) for %d workers: numbers from this host are time-sliced, not parallel\n", runtime.NumCPU(), workers)
	}
	return nil
}

func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// splitSeconds divides a run's measured seconds into its repeats.
func splitSeconds(seconds float64, repeats int) (warm, measure time.Duration) {
	measure = time.Duration(seconds / float64(repeats) * float64(time.Second))
	return time.Duration(float64(measure) * warmFrac), measure
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload ("+fmt.Sprint(workloadNames)+"); empty runs all four and the ledger")
		seed     = flag.Int64("seed", 42, "seed of every op schedule")
		seconds  = flag.Float64("seconds", 28, "measured seconds per workload, split over 7 fresh-instance repeats")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics (tracing off), 1 the per-layer metrics (traced pass)")
		traceOut = flag.String("trace-out", "", "write the spans of the traced passes to this JSON file")
		check    = flag.Bool("check", false, "run the untraced benchmark twice and fail if any end-to-end metric differs by more than its bound")
		specPath = flag.String("spec", "", "path of BENCHMARK.json (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := checkEnvironment(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: fixed conditions violated: %v\n", err)
		os.Exit(2)
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("# env %v seed=%d seconds=%g repeats=%d\n", environment(), *seed, *seconds, repeatsPerRun)

	var tl *traceLog
	if *traceOut != "" {
		tl = &traceLog{}
	}
	var res result
	switch {
	case *check:
		res, err = runCheck(spec, *seed, *seconds)
	case *workload == "":
		res, err = runAll(spec, *seed, *seconds, tl)
	case *trace == 0:
		res, err = runEndToEnd(spec, *workload, *seed, *seconds, repeatsPerRun)
	default:
		res, err = runPerLayer(spec, *workload, *seed, *seconds, tl)
	}
	if err != nil {
		// A stalled worker may still be spinning; exiting is the only
		// way to stop it.
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: %v\n", err)
		os.Exit(1)
	}
	if tl != nil {
		if err := tl.write(*traceOut, environment()); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# trace: %d spans (%d dropped) written to %s\n", len(tl.spans), tl.dropped, *traceOut)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll is the one-command report: every workload untraced, then the
// ledger and each workload's traced pass.
func runAll(spec *benchSpec, seed int64, seconds float64, tl *traceLog) (result, error) {
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	fold := func(prefix string, r result) {
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for name, v := range r.Metrics {
			all.Metrics[prefix+"/"+name] = v
		}
	}
	for _, wl := range workloadNames {
		r, err := runEndToEnd(spec, wl, seed, seconds, repeatsPerRun)
		if err != nil {
			return all, err
		}
		fold(wl, r)
	}
	_, measure := splitSeconds(seconds, repeatsPerRun)
	led, err := runLedger(seed, measure, tl)
	if err != nil {
		return all, err
	}
	for _, wl := range workloadNames {
		r, err := runTracedWorkload(spec, wl, seed, measure, led, tl)
		if err != nil {
			return all, err
		}
		fold(wl, r)
	}
	return all, nil
}

// endToEnd holds one untraced run: the repeats and the metric summaries
// derived from them.
type endToEnd struct {
	workload string
	repeats  []repeat
	sums     map[string]summary
}

func (e *endToEnd) totals() (attempted, failed int64) {
	for _, r := range e.repeats {
		attempted += r.attempted
		failed += r.failed
	}
	return attempted, failed
}

// probedRepeats runs n fresh-instance repeats of workload under scheme
// sc with a host-probe slice before the first and after each; a
// repeat's hostSpeed comes from the two slices around it.
func probedRepeats(workload string, sc hpbrcu.Scheme, sched *schedule, n int, warm, measure time.Duration, bufs *latBufs) ([]repeat, error) {
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	slice := time.Duration(float64(measure) * probeShare)
	before, err := probe.run(slice)
	if err != nil {
		return nil, err
	}
	reps := make([]repeat, 0, n)
	for i := 0; i < n; i++ {
		r, err := runRepeat(workload, sc, sched, warm, measure, nil, bufs)
		if err != nil {
			return nil, fmt.Errorf("%s repeat %d: %w", workload, i+1, err)
		}
		after, err := probe.run(slice)
		if err != nil {
			return nil, err
		}
		r.hostSpeed = probeNominalNS / ((before + after) / 2)
		before = after
		reps = append(reps, r)
	}
	return reps, nil
}

// column extracts one number per repeat.
func column(reps []repeat, f func(r repeat) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// measureEndToEnd runs workload's untraced repeats, each on a fresh
// HP-BRCU instance in the production posture.
func measureEndToEnd(workload string, seed int64, seconds float64, repeats int, bufs *latBufs) (*endToEnd, error) {
	warm, measure := splitSeconds(seconds, repeats)
	reps, err := probedRepeats(workload, hpbrcu.HPBRCU, newSchedule(workload, seed), repeats, warm, measure, bufs)
	if err != nil {
		return nil, err
	}
	e := &endToEnd{workload: workload, repeats: reps}
	col := func(f func(r repeat) float64) []float64 { return column(reps, f) }
	var (
		lat    int64
		setups []float64
	)
	for _, r := range reps {
		lat += r.latSamples
		for _, s := range r.setupS {
			setups = append(setups, s*r.hostScale())
		}
	}
	attempted, failed := e.totals()
	okFrac := 1 - float64(failed)/float64(attempted)
	e.sums = map[string]summary{
		// Every timing is reported at the probe's nominal host speed
		// (probe.go): times × hostScale, rates ÷ hostScale.
		"setup_s":          summarize(setups, int64(len(setups))),
		"ops_per_s":        summarize(col(func(r repeat) float64 { return r.opsPerS / r.hostScale() }), attempted),
		"writer_ops_per_s": summarize(col(func(r repeat) float64 { return r.writerOpsPerS / r.hostScale() }), attempted),
		"p90_over_typical": summarize(col(func(r repeat) float64 { return r.p90US * 1e3 / r.typicalNS }), lat),
		"p99_over_typical": summarize(col(func(r repeat) float64 { return r.p99US * 1e3 / r.typicalNS }), lat),
		"ok_frac":          summarize([]float64{okFrac}, attempted),
		// Informational: as the wall clock saw them, before scaling.
		"raw_ops_per_s": summarize(col(func(r repeat) float64 { return r.opsPerS }), attempted),
		"host_speed":    summarize(col(func(r repeat) float64 { return r.hostSpeed }), int64(repeats)),
		"p50_us":        summarize(col(func(r repeat) float64 { return r.p50US }), lat),
		"p90_us":        summarize(col(func(r repeat) float64 { return r.p90US }), lat),
		"p99_us":        summarize(col(func(r repeat) float64 { return r.p99US }), lat),
	}
	// The observed bound jumps with the number of handles the pool happened
	// to mint (3 858 at four, 6 171 at five), so a median of per-repeat
	// fractions flips between two levels; their mean moves smoothly.
	fracs := col(func(r repeat) float64 { return float64(r.peak) / float64(r.bound) })
	peakFrac := summarize(fracs, int64(repeats))
	peakFrac.Value = 0
	for _, f := range fracs {
		peakFrac.Value += f / float64(len(fracs))
	}
	e.sums["peak_unreclaimed_frac"] = peakFrac
	return e, nil
}

// runEndToEnd is one driver-style run with tracing off.
func runEndToEnd(spec *benchSpec, workload string, seed int64, seconds float64, repeats int) (result, error) {
	e, err := measureEndToEnd(workload, seed, seconds, repeats, newLatBufs())
	if err != nil {
		return result{}, err
	}
	printEndToEnd(spec, e)
	return e.result(spec), nil
}

func (e *endToEnd) result(spec *benchSpec) result {
	attempted, failed := e.totals()
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range spec.EndToEnd {
		res.Metrics[m.Name] = metricValue{Value: e.sums[m.Name].Value, Unit: m.Unit}
	}
	return res
}

func printEndToEnd(spec *benchSpec, e *endToEnd) {
	fmt.Printf("\n== %s: end to end, tracing off, median of %d fresh-instance repeats ==\n", e.workload, len(e.repeats))
	fmt.Printf("%-24s %-6s %14s %14s %14s %12s\n", "metric", "unit", "value", "q1", "q3", "samples")
	for _, m := range spec.EndToEnd {
		s := e.sums[m.Name]
		fmt.Printf("%-24s %-6s %14.6g %14.6g %14.6g %12d\n", m.Name, m.Unit, s.Value, s.Q1, s.Q3, s.SamplesTotal)
	}
	for _, info := range []struct{ name, unit string }{{"raw_ops_per_s", "1/s"}, {"host_speed", "ratio"}, {"p50_us", "us"}, {"p90_us", "us"}, {"p99_us", "us"}} {
		s := e.sums[info.name]
		fmt.Printf("%-24s %-6s %14.6g %14.6g %14.6g %12d  (not gated)\n", info.name, info.unit, s.Value, s.Q1, s.Q3, s.SamplesTotal)
	}
	for i, r := range e.repeats {
		fmt.Printf("repeat %2d: raw_ops_per_s=%.6g raw_writer_ops_per_s=%.6g host_speed=%.4f typical_us=%.6g p50_us=%.6g p90_us=%.6g p99_us=%.6g peak=%d bound=%d raw_setup_s=%.3g\n",
			i+1, r.opsPerS, r.writerOpsPerS, r.hostSpeed, r.typicalNS/1e3, r.p50US, r.p90US, r.p99US, r.peak, r.bound, r.setupS)
	}
}
