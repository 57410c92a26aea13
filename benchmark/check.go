package main

import (
	"fmt"
	"math"
)

// worsening is how far b is worse than a as a share of a, signed so that
// an improvement is negative.
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runCheck measures every workload twice back to back with the same
// code and fails if any end-to-end metric's second median is worse than
// the first by more than its bound — the benchmark's own noise floor
// must sit inside the bounds it asks later changes to meet.
func runCheck(spec *benchSpec, seed int64, seconds float64) (result, error) {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	bufs := newLatBufs()
	violations := 0
	for _, wl := range workloadNames {
		var sets [2]*endToEnd
		for i := range sets {
			e, err := measureEndToEnd(wl, seed, seconds, repeatsPerRun, bufs)
			if err != nil {
				return res, err
			}
			sets[i] = e
			attempted, failed := e.totals()
			res.Attempted += attempted
			res.Failed += failed
		}
		fmt.Printf("\n== %s: two sets of %d repeats, same code ==\n", wl, repeatsPerRun)
		fmt.Printf("%-24s %-6s %12s %12s %12s %12s %12s %12s %9s %7s\n",
			"metric", "unit", "median A", "q1 A", "q3 A", "median B", "q1 B", "q3 B", "B vs A", "bound")
		for _, m := range spec.EndToEnd {
			a, b := sets[0].sums[m.Name], sets[1].sums[m.Name]
			// Either set may be the worse one: the check is symmetric.
			diff := math.Max(worsening(m, a.Value, b.Value), worsening(m, b.Value, a.Value))
			verdict := ""
			if diff > m.Bound {
				verdict = "  EXCEEDS"
				violations++
			}
			fmt.Printf("%-24s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %8.2f%% %6.1f%%%s\n",
				m.Name, m.Unit, a.Value, a.Q1, a.Q3, b.Value, b.Q1, b.Q3, 100*worsening(m, a.Value, b.Value), 100*m.Bound, verdict)
			res.Metrics[wl+"/"+m.Name] = metricValue{Value: b.Value, Unit: m.Unit}
		}
	}
	res.Correct = res.Failed == 0
	if violations > 0 {
		return res, fmt.Errorf("check: %d end-to-end metric × workload pairs differ by more than their bound between two sets of the same code", violations)
	}
	return res, nil
}
