package bench

import (
	"math"
	"strings"
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/obs"
)

// fakeRun builds a single-run BenchFile with the given per-(workload,
// scheme) numbers, in the shape the pipelines emit.
func fakeRun(points ...BenchPoint) *BenchFile {
	return &BenchFile{
		Experiment: "fig1", Schema: ReportSchema, Seed: DefaultBenchSeed,
		DurationMS: 10, Environment: CurrentEnvironment(), Points: points,
	}
}

// TestAggregateRuns pins the grid's repeat-aggregation math against
// hand-computed values: mean/population-std/min/max over throughput,
// max over peaks and tails, min over non-negative bounds.
func TestAggregateRuns(t *testing.T) {
	runs := []*BenchFile{
		fakeRun(
			BenchPoint{Workload: "w", Scheme: "A", OpsPerSec: 100, PeakUnreclaimed: 10, P99CSNanos: 500, Bound: 90, P99Nanos: 900, P999Nanos: 1500},
			BenchPoint{Workload: "w", Scheme: "B", OpsPerSec: 50, PeakUnreclaimed: 3, Bound: -1},
		),
		fakeRun(
			BenchPoint{Workload: "w", Scheme: "A", OpsPerSec: 200, PeakUnreclaimed: 40, P99CSNanos: 200, Bound: 80, P99Nanos: 1100, P999Nanos: 1200},
			BenchPoint{Workload: "w", Scheme: "B", OpsPerSec: 70, PeakUnreclaimed: 1, Bound: -1},
		),
		fakeRun(
			BenchPoint{Workload: "w", Scheme: "A", OpsPerSec: 300, PeakUnreclaimed: 20, P99CSNanos: 300, Bound: 100},
			BenchPoint{Workload: "w", Scheme: "B", OpsPerSec: 60, PeakUnreclaimed: 2, Bound: -1},
		),
	}
	agg, err := AggregateRuns(runs)
	if err != nil {
		t.Fatalf("AggregateRuns: %v", err)
	}
	if agg.Schema != ReportSchema || agg.Repeats != 3 || len(agg.Points) != 2 {
		t.Fatalf("malformed aggregate header: %+v", agg)
	}
	var a, b *BenchPoint
	for i := range agg.Points {
		switch agg.Points[i].Scheme {
		case "A":
			a = &agg.Points[i]
		case "B":
			b = &agg.Points[i]
		}
	}
	if a == nil || b == nil {
		t.Fatalf("points lost in aggregation: %+v", agg.Points)
	}
	// Scheme A: ops {100,200,300} → mean 200, population std sqrt(20000/3)·…
	// = sqrt(((100)²+0+(100)²)/3) = sqrt(6666.67) ≈ 81.6497.
	if a.OpsPerSec != 200 || a.Ops == nil || a.Ops.Mean != 200 {
		t.Fatalf("A mean: %+v", a)
	}
	if want := math.Sqrt(20000.0 / 3.0); math.Abs(a.Ops.Std-want) > 1e-9 {
		t.Fatalf("A std %v, want %v", a.Ops.Std, want)
	}
	if a.Ops.Min != 100 || a.Ops.Max != 300 {
		t.Fatalf("A min/max: %+v", a.Ops)
	}
	// Worst-case aggregation: peak = max, p99 = max, bound = min ≥ 0 —
	// the max-peak/min-bound pairing can only be stricter than any
	// single repeat's own pairing.
	if a.PeakUnreclaimed != 40 || a.P99CSNanos != 500 || a.Bound != 80 {
		t.Fatalf("A worst-case fields: %+v", a)
	}
	if a.P99Nanos != 1100 || a.P999Nanos != 1500 {
		t.Fatalf("A latency tails must aggregate as max: %+v", a)
	}
	if b.OpsPerSec != 60 || b.PeakUnreclaimed != 3 || b.Bound != -1 {
		t.Fatalf("B: %+v", b)
	}

	if _, err := AggregateRuns(nil); err == nil {
		t.Fatal("empty aggregation must error")
	}
	bad := fakeRun()
	bad.Experiment = "fig5"
	if _, err := AggregateRuns([]*BenchFile{fakeRun(), bad}); err == nil {
		t.Fatal("mixed-experiment aggregation must error")
	}
}

// trajPoint builds a schema-2 point with an explicit std.
func trajPoint(workload, scheme string, ops, std float64) BenchPoint {
	return BenchPoint{
		Workload: workload, Scheme: scheme, OpsPerSec: ops, Bound: -1,
		Ops: &PointStats{Mean: ops, Std: std, Min: ops - std, Max: ops + std},
	}
}

// TestTrajectory is the accept/reject table of the std-aware delta
// classifier: movement within ±2σ (or the relative floor) is
// "unchanged", beyond it "improved"/"regressed", and one-sided points
// come back as new/missing.
func TestTrajectory(t *testing.T) {
	mk := func(points ...BenchPoint) *BenchFile {
		f := fakeRun(points...)
		f.Repeats = 3
		return f
	}
	cases := []struct {
		name    string
		base    BenchPoint
		cur     BenchPoint
		verdict TrajectoryVerdict
	}{
		{"big gain improves", trajPoint("w", "A", 1000, 10), trajPoint("w", "A", 1500, 10), TrajImproved},
		{"big drop regresses", trajPoint("w", "A", 1000, 10), trajPoint("w", "A", 600, 10), TrajRegressed},
		{"within 2·base-std unchanged", trajPoint("w", "A", 1000, 100), trajPoint("w", "A", 1180, 1), TrajUnchanged},
		{"within 2·cur-std unchanged", trajPoint("w", "A", 1000, 1), trajPoint("w", "A", 1180, 100), TrajUnchanged},
		{"beyond both stds moves", trajPoint("w", "A", 1000, 20), trajPoint("w", "A", 1180, 20), TrajImproved},
		{"tiny delta under the floor unchanged even at std 0",
			trajPoint("w", "A", 1000, 0), trajPoint("w", "A", 1030, 0), TrajUnchanged},
		{"drop just past the floor with tight stds regresses",
			trajPoint("w", "A", 1000, 0), trajPoint("w", "A", 940, 0), TrajRegressed},
		{"no ops_stats on either side falls back to the floor",
			BenchPoint{Workload: "w", Scheme: "A", OpsPerSec: 1000, Bound: -1},
			BenchPoint{Workload: "w", Scheme: "A", OpsPerSec: 1010, Bound: -1}, TrajUnchanged},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := Trajectory(mk(tc.base), mk(tc.cur), 0.05)
			if len(rows) != 1 {
				t.Fatalf("got %d rows, want 1", len(rows))
			}
			if rows[0].Verdict != tc.verdict {
				t.Fatalf("verdict %s, want %s (row %+v)", rows[0].Verdict, tc.verdict, rows[0])
			}
		})
	}

	t.Run("new and missing points", func(t *testing.T) {
		base := mk(trajPoint("w", "A", 1000, 10), trajPoint("w", "Old", 500, 5))
		cur := mk(trajPoint("w", "A", 1001, 10), trajPoint("w", "New", 700, 5))
		rows := Trajectory(base, cur, 0.05)
		verdicts := map[string]TrajectoryVerdict{}
		for _, r := range rows {
			verdicts[r.Scheme] = r.Verdict
		}
		if verdicts["A"] != TrajUnchanged || verdicts["New"] != TrajNew || verdicts["Old"] != TrajMissing {
			t.Fatalf("verdicts: %+v", verdicts)
		}
		md := TrajectoryMarkdown("fig1", rows)
		for _, want := range []string{"| Δ% |", "unchanged", "new", "missing"} {
			if !strings.Contains(md, want) {
				t.Fatalf("trajectory markdown missing %q:\n%s", want, md)
			}
		}
	})
}

// TestGridValidation drives ParseGrid through the rejection table: each
// malformed experiments.json must fail with a message naming the
// offense.
func TestGridValidation(t *testing.T) {
	cases := []struct {
		name    string
		json    string
		wantErr string // "" = must parse
	}{
		{"minimal valid spec", `{"schema":1,"experiments":[{"name":"fig1"}]}`, ""},
		{"full valid spec", `{"schema":1,"repeats":3,"warmup":1,"duration_ms":300,"experiments":[
			{"name":"fig1","key_range_exps":[8,9]},
			{"name":"fig5","threads":4},
			{"name":"table2","writers":2,"key_range":256},
			{"name":"pool","pool_sizes":[4,16],"schemes":["HP-BRCU","nr"]}]}`, ""},
		{"not json", `{`, "grid:"},
		{"wrong schema", `{"schema":7,"experiments":[{"name":"fig1"}]}`, "schema 7, want 1"},
		{"no experiments", `{"schema":1,"experiments":[]}`, "no experiments"},
		{"unknown experiment", `{"schema":1,"experiments":[{"name":"fig9"}]}`, `unknown experiment "fig9"`},
		{"unknown experiment names the valid set", `{"schema":1,"experiments":[{"name":"fig9"}]}`, "fig1, fig5, table2, pool"},
		{"duplicate experiment", `{"schema":1,"experiments":[{"name":"fig1"},{"name":"fig1"}]}`, "duplicate experiment"},
		{"negative repeats", `{"schema":1,"repeats":-1,"experiments":[{"name":"fig1"}]}`, "negative repeats"},
		{"exponent too large", `{"schema":1,"experiments":[{"name":"fig1","key_range_exps":[31]}]}`, "out of [1,30]"},
		{"exponent too small", `{"schema":1,"experiments":[{"name":"fig1","key_range_exps":[0]}]}`, "out of [1,30]"},
		{"zero pool size", `{"schema":1,"experiments":[{"name":"pool","pool_sizes":[0]}]}`, "pool size 0"},
		{"unknown scheme", `{"schema":1,"experiments":[{"name":"fig1","schemes":["EBR9"]}]}`, `unknown scheme "EBR9"`},
		{"negative writers", `{"schema":1,"experiments":[{"name":"table2","writers":-2}]}`, "negative threads/writers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseGrid([]byte(tc.json))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// TestExperimentRegistry pins the single-source-of-truth property the
// stale-message bugfix rests on: the ordered name list and the runner
// map cover exactly the same experiments, and pool is among them.
func TestExperimentRegistry(t *testing.T) {
	names := ExperimentNames()
	if len(names) != len(experimentRunners) {
		t.Fatalf("order lists %d experiments, registry has %d", len(names), len(experimentRunners))
	}
	have := make(map[string]bool)
	for _, n := range names {
		if _, ok := RunnerFor(n); !ok {
			t.Fatalf("ordered experiment %q has no runner", n)
		}
		have[n] = true
	}
	for _, want := range []string{"pool", "server"} {
		if !have[want] {
			t.Fatalf("%s experiment missing from the registry", want)
		}
	}
}

// TestGridEmitters checks the CSV/markdown renderings carry the
// aggregate columns and one row per point.
func TestGridEmitters(t *testing.T) {
	agg, err := AggregateRuns([]*BenchFile{
		fakeRun(BenchPoint{Workload: "w", Scheme: "A", OpsPerSec: 100, PeakUnreclaimed: 5, Bound: 50}),
		fakeRun(BenchPoint{Workload: "w", Scheme: "A", OpsPerSec: 300, PeakUnreclaimed: 7, Bound: 50}),
	})
	if err != nil {
		t.Fatalf("AggregateRuns: %v", err)
	}
	agg.Warmup = 1
	csv := GridCSV([]*BenchFile{agg})
	if !strings.HasPrefix(csv, "experiment,workload,scheme,ops_per_sec_mean,") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "fig1,w,A,200.0,100.0,100.0,300.0,7,0,50,0,0,0.0000,0.0000,2") {
		t.Fatalf("csv row missing aggregates:\n%s", csv)
	}
	md := GridMarkdown([]*BenchFile{agg})
	for _, want := range []string{"### fig1 (repeats=2, warmup=1", "| ops/s (mean) |", "| allocs/op |", "| w | A | 200 | 100 | 100 | 300 | 7 | 0 | 50 | — | — | 0.000 | 0.00 |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestRunGridSmoke runs a miniature declarative grid end to end: two
// repeats of a two-scheme table2 are aggregated into a schema-2 file
// whose self-comparison and self-trajectory both pass.
func TestRunGridSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("workload smoke")
	}
	spec, err := ParseGrid([]byte(`{"schema":1,"repeats":2,"warmup":1,
		"experiments":[{"name":"table2","schemes":["NR","HP-BRCU"]}]}`))
	if err != nil {
		t.Fatalf("ParseGrid: %v", err)
	}
	files, err := RunGrid(spec, GridOptions{Duration: 10 * time.Millisecond, Warmup: -1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	if len(files) != 1 {
		t.Fatalf("got %d files, want 1", len(files))
	}
	f := files[0]
	if f.Experiment != "table2" || f.Schema != ReportSchema || f.Repeats != 2 || f.Warmup != 1 {
		t.Fatalf("malformed grid file header: %+v", f)
	}
	if len(f.Points) != 2 {
		t.Fatalf("got %d points, want 2 (NR, HP-BRCU)", len(f.Points))
	}
	for _, p := range f.Points {
		if p.Ops == nil {
			t.Fatalf("point %s/%s has no aggregate stats", p.Workload, p.Scheme)
		}
		if p.Ops.Min > p.Ops.Mean || p.Ops.Mean > p.Ops.Max {
			t.Fatalf("point %s/%s aggregate out of order: %+v", p.Workload, p.Scheme, p.Ops)
		}
		if p.Scheme == hpbrcu.HPBRCU.String() {
			if p.Bound < 0 {
				t.Fatal("HP-BRCU grid point carries no §5 bound")
			}
			if p.PeakUnreclaimed > p.Bound {
				t.Fatalf("fresh grid run violates its own bound: peak %d > %d", p.PeakUnreclaimed, p.Bound)
			}
		}
	}
	if p, _ := Compare(f, f, 0.15); len(p) != 0 {
		t.Fatalf("self-comparison failed: %v", p)
	}
	for _, r := range Trajectory(f, f, 0.05) {
		if r.Verdict != TrajUnchanged {
			t.Fatalf("self-trajectory moved: %+v", r)
		}
	}
}

// TestBenchPoolRecordsCSP99 pins the BenchPool reporting fix: the pool
// pipeline used to drop the transient workload's critical-section tail
// (every other experiment records P99CSNanos; BENCH_pool.json silently
// carried 0). With the obs layer on, the HP-BRCU pool point must carry
// a nonzero p99.
func TestBenchPoolRecordsCSP99(t *testing.T) {
	if testing.Short() {
		t.Skip("workload smoke")
	}
	if !obs.On {
		obs.Activate(obs.NewCollector(obs.DefaultRingSize))
		defer obs.Deactivate()
	}
	f := BenchPool(PipelineConfig{
		Duration:  20 * time.Millisecond,
		Schemes:   []hpbrcu.Scheme{hpbrcu.HPBRCU},
		PoolSizes: []int{16},
	})
	if len(f.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(f.Points))
	}
	if f.Points[0].P99CSNanos == 0 {
		t.Fatal("pool point dropped the critical-section p99 (P99CSNanos == 0 with obs active)")
	}
}
