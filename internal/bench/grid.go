package bench

// The one run loop, and the grid that is a list of its runs: Run executes
// an experiment's declared points — Warmup discarded passes, then Repeats
// measured ones — and aggregates each point's repeats into a BenchFile.
// `smrbench <name>` prints that file as a table; `smrbench grid` runs the
// entries experiments.json names, validates each file, and either writes
// BENCH_<name>.json or diffs against the committed one (Trajectory:
// improved / regressed / unchanged, with the point's own measured noise,
// ±2σ, deciding what counts as movement). See DESIGN.md §13.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// GridSchema versions the experiments.json layout. Schema 2 names
// experiments and fixes the run counts; the sweeps schema 1 could
// override live in the registry (experiments.go) alone.
const GridSchema = 2

// GridSpec is the committed experiments.json: which registry entries the
// grid baselines, and how each point is run. Every field is required —
// there is no default to fall back to but the command line.
type GridSpec struct {
	Schema int `json:"schema"`
	// Repeats measured passes per point after Warmup discarded ones.
	Repeats int `json:"repeats"`
	Warmup  int `json:"warmup"`
	// DurationMS is the measurement time per point and pass.
	DurationMS int64 `json:"duration_ms"`
	// Seed is the workload seed.
	Seed uint64 `json:"seed"`
	// Experiments are registry names; each is written to (and gated
	// against) BENCH_<name>.json.
	Experiments []string `json:"experiments"`
}

// ParseGrid parses and validates an experiments.json document. Unknown
// keys are errors: a schema-1 sweep override silently ignored would leave
// its author believing it took effect.
func ParseGrid(data []byte) (*GridSpec, error) {
	var s GridSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	if s.Schema != GridSchema {
		return nil, fmt.Errorf("grid: schema %d, want %d", s.Schema, GridSchema)
	}
	if len(s.Experiments) == 0 {
		return nil, fmt.Errorf("grid: no experiments declared")
	}
	if s.Repeats < 1 || s.Warmup < 0 || s.DurationMS < 1 || s.Seed == 0 {
		return nil, fmt.Errorf("grid: need repeats >= 1, warmup >= 0, duration_ms >= 1 and a nonzero seed (got %d, %d, %d, %d)",
			s.Repeats, s.Warmup, s.DurationMS, s.Seed)
	}
	seen := make(map[string]bool)
	for _, name := range s.Experiments {
		if _, ok := Lookup(name); !ok {
			return nil, fmt.Errorf("grid: unknown experiment %q (want %s)", name, strings.Join(ExperimentNames(), ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("grid: duplicate experiment %q", name)
		}
		seen[name] = true
	}
	return &s, nil
}

// LoadGrid reads and validates the experiments.json at path.
func LoadGrid(path string) (*GridSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseGrid(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// RunOptions is how the run loop measures each point.
type RunOptions struct {
	Repeats  int // measured passes per point (>= 1)
	Warmup   int // discarded passes before them
	Duration time.Duration
	Seed     uint64
	// Logf, when set, receives one progress line per pass.
	Logf func(format string, args ...any)
}

// RunOptions returns the spec's run counts.
func (s *GridSpec) RunOptions() RunOptions {
	return RunOptions{
		Repeats: s.Repeats, Warmup: s.Warmup,
		Duration: time.Duration(s.DurationMS) * time.Millisecond, Seed: s.Seed,
	}
}

// Run is the run loop: it measures every point of e under sw once per
// pass — a pass visits all points before any is repeated, so a repeat
// never reuses an instance and slow drift spreads over all points instead
// of biasing the last — and aggregates the measured passes.
func (e *Experiment) Run(sw Sweep, o RunOptions) *BenchFile {
	if o.Repeats < 1 {
		o.Repeats = 1 // a point needs one measured pass to have a mean
	}
	cols, points := e.plan(sw)
	samples := make([][]Measurement, len(points))
	for pass := 0; pass < o.Warmup+o.Repeats; pass++ {
		t0 := time.Now()
		for i, p := range points {
			m := p.Run(o.Duration, o.Seed)
			if pass >= o.Warmup {
				samples[i] = append(samples[i], m)
			}
		}
		if o.Logf != nil {
			kind, n, of := "warmup", pass+1, o.Warmup
			if pass >= o.Warmup {
				kind, n, of = "repeat", pass-o.Warmup+1, o.Repeats
			}
			o.Logf("%s: %s %d/%d (%d points) in %v", e.Name, kind, n, of, len(points), time.Since(t0).Truncate(time.Millisecond))
		}
	}
	f := &BenchFile{
		Experiment:  e.Name,
		Schema:      ReportSchema,
		Seed:        o.Seed,
		DurationMS:  o.Duration.Milliseconds(),
		Repeats:     o.Repeats,
		Warmup:      o.Warmup,
		Environment: CurrentEnvironment(),
	}
	for _, c := range cols {
		f.Columns = append(f.Columns, c.Name)
	}
	for i, p := range points {
		f.Points = append(f.Points, aggregate(p.Workload, p.Scheme.String(), cols, samples[i]))
	}
	sortPoints(f.Points)
	return f
}

// aggregate folds one point's measured passes: throughput into its
// mean/std/min/max, each declared column by the column's own rule.
func aggregate(workload, scheme string, cols []Column, ms []Measurement) BenchPoint {
	ops := make([]float64, len(ms))
	for i, m := range ms {
		ops[i] = m.Throughput()
	}
	p := BenchPoint{Workload: workload, Scheme: scheme, Ops: summarize(ops)}
	p.OpsPerSec = p.Ops.Mean
	for _, c := range cols {
		var vs []float64
		for _, m := range ms {
			if v, ok := c.of(m); ok {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			continue
		}
		if p.Values == nil {
			p.Values = make(map[string]float64, len(cols))
		}
		p.Values[c.Name] = c.agg(summarize(vs))
	}
	return p
}

// summarize computes the mean/population-std/min/max of xs (len ≥ 1).
func summarize(xs []float64) PointStats {
	st := PointStats{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		st.Mean += x
		st.Min = math.Min(st.Min, x)
		st.Max = math.Max(st.Max, x)
	}
	st.Mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - st.Mean
		ss += d * d
	}
	st.Std = math.Sqrt(ss / float64(len(xs)))
	return st
}

// TrajectoryVerdict classifies one point's movement between a baseline
// and a fresh grid run.
type TrajectoryVerdict string

// The trajectory verdicts. Missing is the only one Compare also fails
// on; Regressed fails the gate only in same-machine mode (tolerance<1).
const (
	TrajImproved  TrajectoryVerdict = "improved"
	TrajRegressed TrajectoryVerdict = "regressed"
	TrajUnchanged TrajectoryVerdict = "unchanged"
	TrajNew       TrajectoryVerdict = "new"
	TrajMissing   TrajectoryVerdict = "missing"
)

// TrajectoryPoint is one row of the per-point delta report.
type TrajectoryPoint struct {
	Workload string
	Scheme   string
	Verdict  TrajectoryVerdict
	BaseOps  float64
	CurOps   float64
	// DeltaPct is (cur-base)/base·100 (0 when base is 0 or absent).
	DeltaPct float64
	// Noise is the movement threshold in ops/s the verdict used: the
	// larger of 2·std on either side, floored at floor·base.
	Noise float64
}

// Trajectory diffs a fresh grid run against a baseline, std-aware: a
// point only counts as moved when |cur-base| exceeds twice the larger
// of the two sides' standard deviations, and never for less than
// floor·base (relative floor, e.g. 0.05) — so run-to-run noise is
// reported as "unchanged", not as movement. Points present on only one
// side come back as TrajNew / TrajMissing. Rows are sorted by (workload,
// scheme).
func Trajectory(baseline, current *BenchFile, floor float64) []TrajectoryPoint {
	if floor <= 0 {
		floor = 0.05
	}
	type key struct{ workload, scheme string }
	baseIdx := make(map[key]BenchPoint, len(baseline.Points))
	for _, p := range baseline.Points {
		baseIdx[key{p.Workload, p.Scheme}] = p
	}
	curIdx := make(map[key]BenchPoint, len(current.Points))
	for _, p := range current.Points {
		curIdx[key{p.Workload, p.Scheme}] = p
	}
	var out []TrajectoryPoint
	for k, c := range curIdx {
		tp := TrajectoryPoint{Workload: k.workload, Scheme: k.scheme, CurOps: c.OpsPerSec}
		b, ok := baseIdx[k]
		if !ok {
			tp.Verdict = TrajNew
			out = append(out, tp)
			continue
		}
		tp.BaseOps = b.OpsPerSec
		if b.OpsPerSec > 0 {
			tp.DeltaPct = (c.OpsPerSec - b.OpsPerSec) / b.OpsPerSec * 100
		}
		noise := math.Max(floor*b.OpsPerSec, 2*math.Max(c.Ops.Std, b.Ops.Std))
		tp.Noise = noise
		delta := c.OpsPerSec - b.OpsPerSec
		switch {
		case math.Abs(delta) <= noise:
			tp.Verdict = TrajUnchanged
		case delta > 0:
			tp.Verdict = TrajImproved
		default:
			tp.Verdict = TrajRegressed
		}
		out = append(out, tp)
	}
	for k, b := range baseIdx {
		if _, ok := curIdx[k]; !ok {
			out = append(out, TrajectoryPoint{
				Workload: k.workload, Scheme: k.scheme,
				Verdict: TrajMissing, BaseOps: b.OpsPerSec,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Scheme < out[j].Scheme
	})
	return out
}
