package bench

// Machine-readable benchmark reports: the BENCH_*.json schema written by
// `smrbench grid`, and the baseline comparator behind `grid -trajectory`.
// The committed BENCH_*.json files are the repo's performance trajectory —
// every hot-path change must show its before/after here (see DESIGN.md
// §11), and the CI bench-smoke job re-runs the grid against the committed
// files so they cannot silently rot.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// ReportSchema versions the BENCH_*.json layout; Compare refuses files
// from any other schema instead of misreading them. Schema 2 is the grid
// runner's layout (per-point ops_stats, file-level repeats/warmup); the
// pre-grid single-run schema 1 is no longer read — every committed
// baseline is schema 2.
const ReportSchema = 2

// DefaultBenchSeed seeds the pipeline workloads unless -seed overrides it.
// Fixed so that two runs of the same binary draw identical operation
// schedules (see ScheduleFingerprint) and differences are the code's.
const DefaultBenchSeed = 42

// Environment records where a report was measured. Throughput is only
// comparable within one environment; the CI comparator widens its
// tolerance past 1 to skip throughput checks entirely across machines.
type Environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentEnvironment captures the running process's environment.
func CurrentEnvironment() Environment {
	return Environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// BenchPoint is one (workload, scheme) measurement.
type BenchPoint struct {
	// Workload names the point within its experiment (e.g. "keys=2^10").
	Workload string `json:"workload"`
	// Scheme is the reclamation scheme's display name (hpbrcu.Scheme).
	Scheme string `json:"scheme"`
	// OpsPerSec is the experiment's headline throughput: reads/s for the
	// long-scan workloads, total ops/s for mixed ones, writer ops/s for
	// the stall experiment.
	OpsPerSec float64 `json:"ops_per_sec"`
	// PeakUnreclaimed is the paper's memory metric: the peak number of
	// retired-but-unreclaimed nodes over the run.
	PeakUnreclaimed int64 `json:"peak_unreclaimed"`
	// P99CSNanos is the 99th-percentile critical-section length from the
	// internal/stats histograms (0 for schemes without instrumented
	// critical sections).
	P99CSNanos int64 `json:"p99_cs_ns"`
	// Bound is the §5 garbage bound 2GN+GN²+H evaluated from observed
	// peaks, or -1 when the scheme is unbounded or the experiment does
	// not evaluate it. Compare fails any point with
	// PeakUnreclaimed > Bound ≥ 0 regardless of tolerance.
	Bound int64 `json:"bound"`
	// P99Nanos / P999Nanos are end-to-end request-latency tails in
	// nanoseconds, measured open-loop from each request's scheduled
	// arrival time. Only the server experiment populates them (0 =
	// not measured): the in-process pipelines have no request boundary
	// to time.
	P99Nanos  int64 `json:"p99_ns,omitempty"`
	P999Nanos int64 `json:"p999_ns,omitempty"`
	// Ops aggregates throughput across grid repeats; nil in a single
	// pipeline run that has not been aggregated yet. When set, OpsPerSec
	// equals Ops.Mean.
	Ops *PointStats `json:"ops_stats,omitempty"`
	// AllocsPerOp and GCCPUFrac are the GC-pressure columns: heap objects
	// allocated per operation and the fraction of window CPU time spent in
	// the garbage collector (see gcsample.go). Deliberately not omitempty —
	// a measured zero (the arena fast path) must stay visible, and the CI
	// -require-gc gate asserts their presence by key.
	AllocsPerOp float64 `json:"allocs_per_op"`
	GCCPUFrac   float64 `json:"gc_cpu_frac"`
}

// PointStats is the per-point throughput aggregate the grid runner
// computes over its repeats. Std is the population standard deviation —
// the trajectory diff treats ±2·Std as the point's noise band.
type PointStats struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// BenchFile is one experiment's report — the unit BENCH_*.json stores.
type BenchFile struct {
	Experiment string `json:"experiment"` // an ExperimentNames entry
	Schema     int    `json:"schema"`
	Seed       uint64 `json:"seed"`
	DurationMS int64  `json:"duration_ms"`
	// Repeats and Warmup record the grid aggregation that produced the
	// file: Repeats measured runs per point (0 or 1 = single-run file)
	// after Warmup discarded runs.
	Repeats     int          `json:"repeats,omitempty"`
	Warmup      int          `json:"warmup,omitempty"`
	Environment Environment  `json:"environment"`
	Points      []BenchPoint `json:"points"`
}

// WriteReport writes the report as indented JSON with a stable point
// order, so regenerated files diff cleanly.
func WriteReport(path string, f *BenchFile) error {
	pts := make([]BenchPoint, len(f.Points))
	copy(pts, f.Points)
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].Workload != pts[j].Workload {
			return pts[i].Workload < pts[j].Workload
		}
		return pts[i].Scheme < pts[j].Scheme
	})
	out := *f
	out.Points = pts
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport parses a BENCH_*.json file.
func ReadReport(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Compare checks current against baseline and returns one problem per
// violation (empty means the gate passes):
//
//   - a schema other than ReportSchema on either side, or an experiment
//     mismatch;
//   - a baseline point missing from current (coverage must not shrink);
//   - current throughput below baseline·(1-tolerance) — skipped entirely
//     when tolerance ≥ 1, the cross-machine mode CI uses, since absolute
//     ops/s are meaningless between hosts;
//   - any current point whose PeakUnreclaimed exceeds its §5 bound —
//     always checked, at every tolerance: the bound is the paper's
//     robustness claim, not a performance preference.
//
// warnings carries non-fatal findings: points present in current but
// absent from baseline. A renamed workload shows up as a missing-point
// problem AND a new-point warning — without the warning the rename's
// new half would pass silently and the coverage loss would look like a
// deleted point rather than a rename.
func Compare(baseline, current *BenchFile, tolerance float64) (problems, warnings []string) {
	if baseline.Schema != ReportSchema {
		problems = append(problems, fmt.Sprintf("baseline schema %d, want %d (regenerate the baseline)", baseline.Schema, ReportSchema))
		return problems, nil
	}
	if current.Schema != ReportSchema {
		problems = append(problems, fmt.Sprintf("current schema %d, want %d", current.Schema, ReportSchema))
		return problems, nil
	}
	if baseline.Experiment != current.Experiment {
		problems = append(problems, fmt.Sprintf("experiment mismatch: baseline %q vs current %q", baseline.Experiment, current.Experiment))
		return problems, nil
	}

	type key struct{ workload, scheme string }
	idx := make(map[key]BenchPoint, len(current.Points))
	for _, p := range current.Points {
		idx[key{p.Workload, p.Scheme}] = p
	}
	baseIdx := make(map[key]bool, len(baseline.Points))
	for _, b := range baseline.Points {
		baseIdx[key{b.Workload, b.Scheme}] = true
		cur, ok := idx[key{b.Workload, b.Scheme}]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: point %s/%s present in baseline but missing from current run",
				baseline.Experiment, b.Workload, b.Scheme))
			continue
		}
		if tolerance < 1 && b.OpsPerSec > 0 {
			floor := b.OpsPerSec * (1 - tolerance)
			if cur.OpsPerSec < floor {
				problems = append(problems, fmt.Sprintf("%s: %s/%s throughput regressed %.0f → %.0f ops/s (>%.0f%% drop)",
					baseline.Experiment, b.Workload, b.Scheme, b.OpsPerSec, cur.OpsPerSec, tolerance*100))
			}
		}
	}
	for _, p := range current.Points {
		if !baseIdx[key{p.Workload, p.Scheme}] {
			warnings = append(warnings, fmt.Sprintf("%s: point %s/%s is new (not in baseline) — a rename, or coverage the baseline predates; regenerate the baseline to adopt it",
				current.Experiment, p.Workload, p.Scheme))
		}
		if p.Bound >= 0 && p.PeakUnreclaimed > p.Bound {
			problems = append(problems, fmt.Sprintf("%s: %s/%s violates the §5 memory bound: peak %d > bound %d",
				current.Experiment, p.Workload, p.Scheme, p.PeakUnreclaimed, p.Bound))
		}
	}
	return problems, warnings
}
