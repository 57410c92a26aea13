package bench

// The declarative experiment-grid runner behind `smrbench grid`: a
// committed experiments.json describes the grid (which experiments,
// how many measured repeats after how many warmup runs, per-experiment
// sweep overrides), this engine executes every point N times and
// aggregates the repeats into schema-2 BenchFiles (mean/std/min/max
// throughput per point), and the Trajectory diff classifies each point
// against a committed baseline as improved / regressed / unchanged with
// the point's own measured noise (±2σ) deciding what counts as
// movement. CSV and markdown emitters turn one grid run into the table
// EXPERIMENTS.md quotes. See DESIGN.md §13.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// GridSchema versions the experiments.json layout.
const GridSchema = 1

// GridSpec is the committed experiments.json: the declarative
// description of the repo's benchmark grid.
type GridSpec struct {
	Schema int `json:"schema"`
	// Repeats is the number of measured runs aggregated per point
	// (default 3); Warmup runs are executed first and discarded
	// (default 1). Both can be overridden per experiment and again by
	// GridOptions (the CLI flags).
	Repeats int `json:"repeats,omitempty"`
	Warmup  int `json:"warmup,omitempty"`
	// DurationMS is the default measurement time per point in
	// milliseconds (default 300).
	DurationMS int64 `json:"duration_ms,omitempty"`
	// Seed is the workload seed (DefaultBenchSeed when zero).
	Seed        uint64           `json:"seed,omitempty"`
	Experiments []GridExperiment `json:"experiments"`
}

// GridExperiment is one experiment entry of the grid, naming a pipeline
// (an ExperimentNames entry) plus optional sweep overrides. Zero-valued
// knobs keep the pipeline's committed defaults, so the minimal entry
// {"name": "fig1"} reproduces the baseline sweep.
type GridExperiment struct {
	Name string `json:"name"`
	// Repeats / Warmup override the spec-level counts for this
	// experiment only (0 = inherit).
	Repeats int `json:"repeats,omitempty"`
	Warmup  int `json:"warmup,omitempty"` // -1 = explicitly none
	// Schemes restricts the scheme sweep by display name (hpbrcu.Scheme
	// strings, case-insensitive); empty runs all schemes.
	Schemes []string `json:"schemes,omitempty"`
	// KeyRangeExps overrides fig1's key-range exponents (each in [1,30],
	// the same validity window as smrbench's -ranges flag).
	KeyRangeExps []int `json:"key_range_exps,omitempty"`
	// Threads overrides fig5's pinned thread count.
	Threads int `json:"threads,omitempty"`
	// PoolSizes overrides the pool experiment's ceiling sweep.
	PoolSizes []int `json:"pool_sizes,omitempty"`
	// Writers and KeyRange override table2's writer count and key range.
	Writers  int   `json:"writers,omitempty"`
	KeyRange int64 `json:"key_range,omitempty"`
	// Rates overrides the server experiment's offered-load sweep
	// (requests/second per point); Conns its generator connections.
	Rates []int `json:"rates,omitempty"`
	Conns int   `json:"conns,omitempty"`
	// Shards is the shard-count sweep of the fig1 and server
	// experiments (each in [1,64]; default [1]). Counts above 1 run
	// HP-BRCU only and get "/shards=N"-suffixed workload names, so a
	// sweep containing 1 keeps every baseline point name intact.
	Shards []int `json:"shards,omitempty"`
	// Allocs is the allocator sweep of the fig1 and fig5 experiments
	// ("pool", "arena"; default ["pool"]). Arena points get
	// "/alloc=arena"-suffixed workload names so a sweep containing
	// "pool" keeps every baseline point name intact. See DESIGN.md §16.
	Allocs []string `json:"allocs,omitempty"`
}

// ParseGrid parses and validates an experiments.json document.
func ParseGrid(data []byte) (*GridSpec, error) {
	var s GridSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
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

func (s *GridSpec) validate() error {
	if s.Schema != GridSchema {
		return fmt.Errorf("grid: schema %d, want %d", s.Schema, GridSchema)
	}
	if len(s.Experiments) == 0 {
		return fmt.Errorf("grid: no experiments declared")
	}
	if s.Repeats < 0 || s.Warmup < 0 {
		return fmt.Errorf("grid: negative repeats/warmup")
	}
	if s.DurationMS < 0 {
		return fmt.Errorf("grid: negative duration_ms")
	}
	seen := make(map[string]bool)
	for i := range s.Experiments {
		e := &s.Experiments[i]
		if _, ok := RunnerFor(e.Name); !ok {
			return fmt.Errorf("grid: experiments[%d]: unknown experiment %q (want %s)",
				i, e.Name, strings.Join(ExperimentNames(), ", "))
		}
		if seen[e.Name] {
			return fmt.Errorf("grid: duplicate experiment %q (one entry per experiment; sweeps go inside it)", e.Name)
		}
		seen[e.Name] = true
		if e.Repeats < 0 || e.Warmup < -1 {
			return fmt.Errorf("grid: %s: negative repeats/warmup", e.Name)
		}
		for _, x := range e.KeyRangeExps {
			if x < 1 || x > 30 {
				return fmt.Errorf("grid: %s: key-range exponent %d out of [1,30]", e.Name, x)
			}
		}
		for _, p := range e.PoolSizes {
			if p < 1 {
				return fmt.Errorf("grid: %s: pool size %d < 1", e.Name, p)
			}
		}
		if e.Threads < 0 || e.Writers < 0 || e.KeyRange < 0 || e.Conns < 0 {
			return fmt.Errorf("grid: %s: negative threads/writers/key_range/conns", e.Name)
		}
		for _, r := range e.Rates {
			if r < 1 {
				return fmt.Errorf("grid: %s: rate %d < 1", e.Name, r)
			}
		}
		for _, n := range e.Shards {
			if n < 1 || n > 64 {
				return fmt.Errorf("grid: %s: shard count %d out of [1,64]", e.Name, n)
			}
		}
		if _, err := ParseAllocNames(e.Allocs); err != nil {
			return fmt.Errorf("grid: %s: %w", e.Name, err)
		}
		if _, err := parseSchemeNames(e.Schemes); err != nil {
			return fmt.Errorf("grid: %s: %w", e.Name, err)
		}
	}
	return nil
}

// ParseAllocNames resolves allocator names ("pool"/"arena",
// case-insensitive) to hpbrcu.Allocator values; nil input means the
// default pool-only sweep and returns nil. Shared with smrbench's
// -alloc flag so the CLI and experiments.json accept the same spelling.
func ParseAllocNames(names []string) ([]hpbrcu.Allocator, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]hpbrcu.Allocator, 0, len(names))
	for _, n := range names {
		switch strings.ToLower(n) {
		case "pool":
			out = append(out, hpbrcu.AllocatorPool)
		case "arena":
			out = append(out, hpbrcu.AllocatorArena)
		default:
			return nil, fmt.Errorf("unknown allocator %q (want pool or arena)", n)
		}
	}
	return out, nil
}

// parseSchemeNames resolves scheme display names (case-insensitive)
// against hpbrcu.Schemes; nil input means "all" and returns nil.
func parseSchemeNames(names []string) ([]hpbrcu.Scheme, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]hpbrcu.Scheme, 0, len(names))
	for _, n := range names {
		found := false
		for _, s := range hpbrcu.Schemes {
			if strings.EqualFold(n, s.String()) {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown scheme %q", n)
		}
	}
	return out, nil
}

// GridOptions are the CLI-level overrides RunGrid applies on top of the
// spec; zero values defer to the spec (Warmup uses -1 as "no override"
// because 0 warmup runs is a meaningful choice).
type GridOptions struct {
	Repeats  int
	Warmup   int // -1 = inherit the spec's
	Duration time.Duration
	Seed     uint64
	// Schemes filters every experiment's scheme sweep on top of any
	// per-experiment restriction.
	Schemes []hpbrcu.Scheme
	// Allocators, when non-empty, replaces every experiment's allocator
	// sweep (the `smrbench grid -alloc` flag).
	Allocators []hpbrcu.Allocator
	// Logf, when set, receives one progress line per pipeline run.
	Logf func(format string, args ...any)
}

// effective resolves the per-experiment repeat/warmup/duration/seed
// after spec defaults, experiment overrides and CLI overrides.
func (s *GridSpec) effective(e *GridExperiment, opts GridOptions) (repeats, warmup int, dur time.Duration, seed uint64) {
	repeats = 3
	if s.Repeats > 0 {
		repeats = s.Repeats
	}
	if e.Repeats > 0 {
		repeats = e.Repeats
	}
	if opts.Repeats > 0 {
		repeats = opts.Repeats
	}
	warmup = 1
	if s.Warmup > 0 {
		warmup = s.Warmup
	}
	switch {
	case e.Warmup > 0:
		warmup = e.Warmup
	case e.Warmup == -1:
		warmup = 0
	}
	if opts.Warmup >= 0 {
		warmup = opts.Warmup
	}
	dur = 300 * time.Millisecond
	if s.DurationMS > 0 {
		dur = time.Duration(s.DurationMS) * time.Millisecond
	}
	if opts.Duration > 0 {
		dur = opts.Duration
	}
	seed = uint64(DefaultBenchSeed)
	if s.Seed != 0 {
		seed = s.Seed
	}
	if opts.Seed != 0 {
		seed = opts.Seed
	}
	return repeats, warmup, dur, seed
}

// RunGrid executes the whole declarative grid: per experiment, Warmup
// discarded runs then Repeats measured runs of the pipeline, aggregated
// by AggregateRuns into one schema-2 BenchFile. Files come back in the
// spec's experiment order.
func RunGrid(spec *GridSpec, opts GridOptions) ([]*BenchFile, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var files []*BenchFile
	for i := range spec.Experiments {
		e := &spec.Experiments[i]
		runner, _ := RunnerFor(e.Name)
		repeats, warmup, dur, seed := spec.effective(e, opts)
		schemes, err := parseSchemeNames(e.Schemes)
		if err != nil {
			return nil, err // unreachable after validate; kept for safety
		}
		schemes = intersectSchemes(schemes, opts.Schemes)
		allocs, err := ParseAllocNames(e.Allocs)
		if err != nil {
			return nil, err // unreachable after validate; kept for safety
		}
		if len(opts.Allocators) > 0 {
			allocs = opts.Allocators
		}
		cfg := PipelineConfig{
			Seed: seed, Duration: dur, Schemes: schemes,
			KeyRangeExps: e.KeyRangeExps, Threads: e.Threads,
			PoolSizes: e.PoolSizes, Writers: e.Writers, KeyRange: e.KeyRange,
			Rates: e.Rates, Conns: e.Conns, Shards: e.Shards,
			Allocators: allocs,
		}
		for w := 0; w < warmup; w++ {
			t0 := time.Now()
			runner(cfg)
			logf("grid: %s: warmup %d/%d in %v", e.Name, w+1, warmup, time.Since(t0).Truncate(time.Millisecond))
		}
		runs := make([]*BenchFile, 0, repeats)
		for r := 0; r < repeats; r++ {
			t0 := time.Now()
			runs = append(runs, runner(cfg))
			logf("grid: %s: repeat %d/%d in %v", e.Name, r+1, repeats, time.Since(t0).Truncate(time.Millisecond))
		}
		agg, err := AggregateRuns(runs)
		if err != nil {
			return nil, fmt.Errorf("grid: %s: %w", e.Name, err)
		}
		agg.Warmup = warmup
		files = append(files, agg)
	}
	return files, nil
}

// intersectSchemes returns the schemes in base also present in filter;
// a nil side means "no restriction".
func intersectSchemes(base, filter []hpbrcu.Scheme) []hpbrcu.Scheme {
	if filter == nil {
		return base
	}
	if base == nil {
		return filter
	}
	var out []hpbrcu.Scheme
	for _, b := range base {
		for _, f := range filter {
			if b == f {
				out = append(out, b)
				break
			}
		}
	}
	return out
}

// AggregateRuns merges repeated runs of one experiment into a single
// schema-2 BenchFile. Per (workload, scheme) point:
//
//   - OpsPerSec becomes the mean across repeats, with the full
//     mean/std/min/max aggregate in Ops (std is the population standard
//     deviation — the repeats are the whole population of this grid
//     run, not a sample of a larger one);
//   - PeakUnreclaimed and P99CSNanos take the maximum (the §5 gate and
//     the tail are worst-case claims, so aggregation must not average a
//     violation away);
//   - Bound takes the minimum non-negative bound across repeats, so the
//     max-peak/min-bound pairing is the most conservative combination
//     any single run could have produced — a violation in one repeat
//     can never be masked by a friendlier repeat's bound.
//
// The header (experiment, seed, duration, environment) is taken from
// the first run; all runs must agree on experiment and schema.
func AggregateRuns(runs []*BenchFile) (*BenchFile, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("no runs to aggregate")
	}
	first := runs[0]
	type key struct{ workload, scheme string }
	var order []key
	samples := make(map[key][]BenchPoint)
	for _, r := range runs {
		if r.Experiment != first.Experiment {
			return nil, fmt.Errorf("aggregating mixed experiments %q and %q", first.Experiment, r.Experiment)
		}
		if r.Schema != first.Schema {
			return nil, fmt.Errorf("aggregating mixed schemas %d and %d", first.Schema, r.Schema)
		}
		for _, p := range r.Points {
			k := key{p.Workload, p.Scheme}
			if _, seen := samples[k]; !seen {
				order = append(order, k)
			}
			samples[k] = append(samples[k], p)
		}
	}
	out := &BenchFile{
		Experiment:  first.Experiment,
		Schema:      ReportSchema,
		Seed:        first.Seed,
		DurationMS:  first.DurationMS,
		Repeats:     len(runs),
		Environment: first.Environment,
	}
	for _, k := range order {
		pts := samples[k]
		ops := make([]float64, len(pts))
		agg := BenchPoint{Workload: k.workload, Scheme: k.scheme, Bound: -1}
		for i, p := range pts {
			ops[i] = p.OpsPerSec
			// The GC-pressure columns average across repeats: they are
			// central-tendency metrics, not worst-case claims like the
			// peak/bound pair below.
			agg.AllocsPerOp += p.AllocsPerOp / float64(len(pts))
			agg.GCCPUFrac += p.GCCPUFrac / float64(len(pts))
			if p.PeakUnreclaimed > agg.PeakUnreclaimed {
				agg.PeakUnreclaimed = p.PeakUnreclaimed
			}
			if p.P99CSNanos > agg.P99CSNanos {
				agg.P99CSNanos = p.P99CSNanos
			}
			if p.P99Nanos > agg.P99Nanos {
				agg.P99Nanos = p.P99Nanos
			}
			if p.P999Nanos > agg.P999Nanos {
				agg.P999Nanos = p.P999Nanos
			}
			if p.Bound >= 0 && (agg.Bound < 0 || p.Bound < agg.Bound) {
				agg.Bound = p.Bound
			}
		}
		st := summarize(ops)
		agg.OpsPerSec = st.Mean
		agg.Ops = &st
		out.Points = append(out.Points, agg)
	}
	return out, nil
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
// reported as "unchanged", not as movement. A point without ops_stats
// carries no std and falls back to the relative floor alone. Points present on only
// one side come back as TrajNew / TrajMissing. Rows are sorted by
// (workload, scheme).
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
		noise := floor * b.OpsPerSec
		if c.Ops != nil && 2*c.Ops.Std > noise {
			noise = 2 * c.Ops.Std
		}
		if b.Ops != nil && 2*b.Ops.Std > noise {
			noise = 2 * b.Ops.Std
		}
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

// sortedPoints returns f's points in the stable (workload, scheme)
// order WriteReport also uses, so every emitter agrees on row order.
func sortedPoints(f *BenchFile) []BenchPoint {
	pts := make([]BenchPoint, len(f.Points))
	copy(pts, f.Points)
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].Workload != pts[j].Workload {
			return pts[i].Workload < pts[j].Workload
		}
		return pts[i].Scheme < pts[j].Scheme
	})
	return pts
}

// GridCSV renders aggregated grid files as one flat CSV (header row +
// one row per point across all experiments).
func GridCSV(files []*BenchFile) string {
	var b strings.Builder
	b.WriteString("experiment,workload,scheme,ops_per_sec_mean,ops_per_sec_std,ops_per_sec_min,ops_per_sec_max,peak_unreclaimed,p99_cs_ns,bound,p99_ns,p999_ns,allocs_per_op,gc_cpu_frac,repeats\n")
	for _, f := range files {
		for _, p := range sortedPoints(f) {
			st := p.Ops
			if st == nil {
				st = &PointStats{Mean: p.OpsPerSec, Min: p.OpsPerSec, Max: p.OpsPerSec}
			}
			fmt.Fprintf(&b, "%s,%s,%s,%.1f,%.1f,%.1f,%.1f,%d,%d,%d,%d,%d,%.4f,%.4f,%d\n",
				f.Experiment, p.Workload, p.Scheme,
				st.Mean, st.Std, st.Min, st.Max,
				p.PeakUnreclaimed, p.P99CSNanos, p.Bound, p.P99Nanos, p.P999Nanos,
				p.AllocsPerOp, p.GCCPUFrac, f.Repeats)
		}
	}
	return b.String()
}

// GridMarkdown renders aggregated grid files as one markdown table per
// experiment — the format EXPERIMENTS.md's grid section quotes
// verbatim.
func GridMarkdown(files []*BenchFile) string {
	var b strings.Builder
	for i, f := range files {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "### %s (repeats=%d, warmup=%d, %d ms/point, seed %d)\n\n",
			f.Experiment, f.Repeats, f.Warmup, f.DurationMS, f.Seed)
		b.WriteString("| workload | scheme | ops/s (mean) | ±std | min | max | peak | p99 CS ns | bound | p99 ns | p999 ns | allocs/op | GC CPU % |\n")
		b.WriteString("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
		for _, p := range sortedPoints(f) {
			st := p.Ops
			if st == nil {
				st = &PointStats{Mean: p.OpsPerSec, Min: p.OpsPerSec, Max: p.OpsPerSec}
			}
			bound := "—"
			if p.Bound >= 0 {
				bound = fmt.Sprintf("%d", p.Bound)
			}
			lat := func(n int64) string {
				if n <= 0 {
					return "—"
				}
				return fmt.Sprintf("%d", n)
			}
			fmt.Fprintf(&b, "| %s | %s | %.0f | %.0f | %.0f | %.0f | %d | %d | %s | %s | %s | %.3f | %.2f |\n",
				p.Workload, p.Scheme, st.Mean, st.Std, st.Min, st.Max,
				p.PeakUnreclaimed, p.P99CSNanos, bound, lat(p.P99Nanos), lat(p.P999Nanos),
				p.AllocsPerOp, p.GCCPUFrac*100)
		}
	}
	return b.String()
}

// TrajectoryMarkdown renders a per-experiment trajectory diff as a
// markdown table (experiment name in the heading, one row per point).
func TrajectoryMarkdown(experiment string, rows []TrajectoryPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### trajectory: %s\n\n", experiment)
	b.WriteString("| workload | scheme | baseline ops/s | current ops/s | Δ% | noise band | verdict |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %.0f | %.0f | %+.1f%% | ±%.0f | %s |\n",
			r.Workload, r.Scheme, r.BaseOps, r.CurOps, r.DeltaPct, r.Noise, r.Verdict)
	}
	return b.String()
}
