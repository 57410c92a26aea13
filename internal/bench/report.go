package bench

// Machine-readable reports: the BENCH_<name>.json schema the run loop
// produces, the validate step that judges a fresh run before anything is
// written or diffed, and the baseline comparator behind
// `smrbench grid -trajectory`. The committed BENCH_*.json files are the
// repo's cross-scheme trajectory; TestBaselinesDescribeThisProgram keeps
// them point-for-point in step with the registry.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// ReportSchema versions the BENCH_*.json layout; Compare refuses files
// from any other schema instead of misreading them. Schema 3 carries only
// the columns each experiment declares (under "values", named by the
// file's "columns") — schema 2's fixed columns, with their -1 bounds and
// constant zeros, are no longer read.
const ReportSchema = 3

// DefaultBenchSeed seeds every workload unless -seed overrides it. Fixed
// so that two runs of the same binary draw identical operation schedules
// (see ScheduleFingerprint) and differences are the code's.
const DefaultBenchSeed = 42

// Environment records where a report was measured. Throughput is only
// comparable within one environment: the comparator refuses a throughput
// gate across two, and a baseline must come from at least two cores.
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

// BenchPoint is one (workload, scheme) point, aggregated over the run's
// repeats.
type BenchPoint struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	// OpsPerSec is the headline throughput — the mean of Ops.
	OpsPerSec float64    `json:"ops_per_sec"`
	Ops       PointStats `json:"ops_stats"`
	// Values holds the experiment's declared columns by name. A column a
	// point has no value for (the bound of an unbounded scheme) is absent,
	// not a sentinel.
	Values map[string]float64 `json:"values,omitempty"`
}

// PointStats is a mean/spread aggregate over a point's repeats. Std is
// the population standard deviation — the repeats are the whole population
// of the run, not a sample of a larger one; the trajectory diff treats
// ±2·Std as the point's noise band.
type PointStats struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// BenchFile is one experiment's report — the unit BENCH_<name>.json
// stores and every table is rendered from.
type BenchFile struct {
	Experiment string `json:"experiment"`
	Schema     int    `json:"schema"`
	Seed       uint64 `json:"seed"`
	DurationMS int64  `json:"duration_ms"`
	// Repeats measured runs per point after Warmup discarded ones.
	Repeats     int         `json:"repeats"`
	Warmup      int         `json:"warmup"`
	Environment Environment `json:"environment"`
	// Columns names the declared columns, in table order.
	Columns []string     `json:"columns"`
	Points  []BenchPoint `json:"points"`
}

// sortPoints puts points in the stable (workload, scheme) order every
// rendering of a file uses, so regenerated files diff cleanly.
func sortPoints(pts []BenchPoint) {
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].Workload != pts[j].Workload {
			return pts[i].Workload < pts[j].Workload
		}
		return pts[i].Scheme < pts[j].Scheme
	})
}

// WriteReport writes the report as indented JSON.
func WriteReport(path string, f *BenchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
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

// Validate is the step between running an experiment and reporting it:
// it returns one problem per reason the run cannot be what it claims to
// be (empty means valid).
//
//   - a declared column that is zero (or absent) on every point: the
//     column cannot show anything on this workload, or its sampler is dead;
//   - a negative value: a sampler's window arithmetic broke;
//   - a point whose peak_unreclaimed exceeds its §5 bound — the paper's
//     robustness claim, checked at every tolerance.
func Validate(f *BenchFile) []string {
	if len(f.Points) == 0 {
		return []string{fmt.Sprintf("%s: no points measured", f.Experiment)}
	}
	var problems []string
	for _, col := range f.Columns {
		live := false
		for _, p := range f.Points {
			if p.Values[col] != 0 {
				live = true
				break
			}
		}
		if !live {
			problems = append(problems, fmt.Sprintf("%s: declared column %q is zero on every point", f.Experiment, col))
		}
	}
	for _, p := range f.Points {
		for col, v := range p.Values {
			if v < 0 {
				problems = append(problems, fmt.Sprintf("%s: %s/%s has negative %s (%g)", f.Experiment, p.Workload, p.Scheme, col, v))
			}
		}
		peak := p.Values[colPeak.Name]
		if bound, ok := p.Values[colBound.Name]; ok && peak > bound {
			problems = append(problems, fmt.Sprintf("%s: %s/%s violates the §5 memory bound: peak %.0f > bound %.0f",
				f.Experiment, p.Workload, p.Scheme, peak, bound))
		}
	}
	sort.Strings(problems)
	return problems
}

// BaselineProblems reports why f may not be committed as a baseline: a
// stale schema, or a run on fewer than two cores — where the harness arms
// its step-granular yields and every scheme is time-sliced against its
// own writers, which is not the program the baselines describe.
func BaselineProblems(f *BenchFile) []string {
	var problems []string
	if f.Schema != ReportSchema {
		problems = append(problems, fmt.Sprintf("%s: schema %d, want %d", f.Experiment, f.Schema, ReportSchema))
	}
	if f.Environment.GOMAXPROCS < 2 {
		problems = append(problems, fmt.Sprintf("%s: measured at GOMAXPROCS=%d; a baseline needs at least 2", f.Experiment, f.Environment.GOMAXPROCS))
	}
	return problems
}

// Compare checks a fresh run against its baseline and returns one problem
// per violation (empty means the gate passes):
//
//   - everything Validate finds in current;
//   - a schema other than ReportSchema on either side, or an experiment
//     mismatch;
//   - a baseline point missing from current (coverage must not shrink);
//   - with tolerance < 1, the same-machine mode: an environment that
//     differs from the baseline's (absolute ops/s mean nothing between
//     hosts), or throughput below baseline·(1-tolerance). tolerance ≥ 1 is
//     the cross-machine mode CI uses and skips both.
//
// warnings carries non-fatal findings: points present in current but
// absent from baseline. A renamed workload shows up as a missing-point
// problem AND a new-point warning — without the warning the rename's new
// half would pass silently and the coverage loss would look like a
// deleted point rather than a rename.
func Compare(baseline, current *BenchFile, tolerance float64) (problems, warnings []string) {
	switch {
	case baseline.Schema != ReportSchema:
		return []string{fmt.Sprintf("baseline schema %d, want %d (regenerate the baseline)", baseline.Schema, ReportSchema)}, nil
	case current.Schema != ReportSchema:
		return []string{fmt.Sprintf("current schema %d, want %d", current.Schema, ReportSchema)}, nil
	case baseline.Experiment != current.Experiment:
		return []string{fmt.Sprintf("experiment mismatch: baseline %q vs current %q", baseline.Experiment, current.Experiment)}, nil
	}
	problems = Validate(current)
	if tolerance < 1 && baseline.Environment != current.Environment {
		problems = append(problems, fmt.Sprintf("%s: baseline environment %+v differs from this one %+v; throughput is not comparable (use -tolerance >= 1 across machines)",
			current.Experiment, baseline.Environment, current.Environment))
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
		if tolerance < 1 && cur.OpsPerSec < b.OpsPerSec*(1-tolerance) {
			problems = append(problems, fmt.Sprintf("%s: %s/%s throughput regressed %.0f → %.0f ops/s (>%.0f%% drop)",
				baseline.Experiment, b.Workload, b.Scheme, b.OpsPerSec, cur.OpsPerSec, tolerance*100))
		}
	}
	for _, p := range current.Points {
		if !baseIdx[key{p.Workload, p.Scheme}] {
			warnings = append(warnings, fmt.Sprintf("%s: point %s/%s is new (not in baseline) — a rename, or coverage the baseline predates; regenerate the baseline to adopt it",
				current.Experiment, p.Workload, p.Scheme))
		}
	}
	return problems, warnings
}
