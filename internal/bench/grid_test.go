package bench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// run fabricates one pass's Measurement with the given throughput (ops
// over one second) and books.
func run(ops, peak, bound int64) Measurement {
	return Measurement{Ops: ops, Elapsed: time.Second, PeakUnreclaimed: peak, Bound: bound}
}

// TestAggregateRuns pins the run loop's repeat-aggregation math against
// hand-computed values: mean/population-std/min/max over throughput, max
// over peaks, min over the bounds a point has, mean over the GC columns,
// and no cell at all where no repeat has a value.
func TestAggregateRuns(t *testing.T) {
	cols := []Column{colPeak, colBound, colAllocs}
	as := []Measurement{run(100, 10, 90), run(200, 40, 80), run(300, 20, 100)}
	as[0].AllocsPerOp, as[1].AllocsPerOp, as[2].AllocsPerOp = 1, 2, 6
	a := aggregate("w", "A", cols, as)
	b := aggregate("w", "B", cols, []Measurement{run(50, 3, -1), run(70, 1, -1), run(60, 2, -1)})

	// Scheme A: ops {100,200,300} → mean 200, population std
	// sqrt(((100)²+0+(100)²)/3) = sqrt(6666.67) ≈ 81.6497.
	if a.OpsPerSec != 200 || a.Ops.Mean != 200 {
		t.Fatalf("A mean: %+v", a)
	}
	if want := math.Sqrt(20000.0 / 3.0); math.Abs(a.Ops.Std-want) > 1e-9 {
		t.Fatalf("A std %v, want %v", a.Ops.Std, want)
	}
	if a.Ops.Min != 100 || a.Ops.Max != 300 {
		t.Fatalf("A min/max: %+v", a.Ops)
	}
	// Worst-case aggregation: peak = max, bound = min — the
	// max-peak/min-bound pairing can only be stricter than any single
	// repeat's own pairing.
	if a.Values["peak_unreclaimed"] != 40 || a.Values["bound"] != 80 {
		t.Fatalf("A worst-case fields: %+v", a.Values)
	}
	if a.Values["allocs_per_op"] != 3 {
		t.Fatalf("A allocs/op must aggregate as a mean: %+v", a.Values)
	}
	if b.OpsPerSec != 60 || b.Values["peak_unreclaimed"] != 3 {
		t.Fatalf("B: %+v", b)
	}
	if _, has := b.Values["bound"]; has {
		t.Fatalf("B has no §5 bound and must carry no bound cell: %+v", b.Values)
	}
}

// trajPoint builds a point with an explicit std.
func trajPoint(workload, scheme string, ops, std float64) BenchPoint {
	return BenchPoint{
		Workload: workload, Scheme: scheme, OpsPerSec: ops,
		Ops: PointStats{Mean: ops, Std: std, Min: ops - std, Max: ops + std},
	}
}

// TestTrajectory is the accept/reject table of the std-aware delta
// classifier: movement within ±2σ (or the relative floor) is
// "unchanged", beyond it "improved"/"regressed", and one-sided points
// come back as new/missing.
func TestTrajectory(t *testing.T) {
	mk := func(points ...BenchPoint) *BenchFile {
		f := sampleFile()
		f.Points = points
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
			BenchPoint{Workload: "w", Scheme: "A", OpsPerSec: 1000},
			BenchPoint{Workload: "w", Scheme: "A", OpsPerSec: 1010}, TrajUnchanged},
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
		var md bytes.Buffer
		TrajectoryTable("fig1", rows).Render(&md, Markdown)
		for _, want := range []string{"| delta % |", "unchanged", "new", "missing"} {
			if !strings.Contains(md.String(), want) {
				t.Fatalf("trajectory markdown missing %q:\n%s", want, md.String())
			}
		}
	})
}

// TestGridValidation drives ParseGrid through the rejection table: each
// malformed experiments.json must fail with a message naming the
// offense.
func TestGridValidation(t *testing.T) {
	spec := func(experiments string) string {
		return `{"schema":2,"repeats":3,"warmup":1,"duration_ms":300,"seed":42,"experiments":[` + experiments + `]}`
	}
	cases := []struct {
		name    string
		json    string
		wantErr string // "" = must parse
	}{
		{"minimal valid spec", `{"schema":2,"repeats":1,"warmup":0,"duration_ms":1,"seed":1,"experiments":["fig1"]}`, ""},
		{"full valid spec", spec(`"fig1","fig5","fig6","fig7","table2","ablation","appendixB"`), ""},
		{"not json", `{`, "grid:"},
		{"wrong schema", `{"schema":7,"experiments":["fig1"]}`, "schema 7, want 2"},
		{"no experiments", spec(``), "no experiments"},
		{"unknown experiment", spec(`"fig9"`), `unknown experiment "fig9"`},
		{"unknown experiment names the valid set", spec(`"fig9"`), "fig1, fig5, fig6, fig7, table2"},
		{"duplicate experiment", spec(`"fig1","fig1"`), "duplicate experiment"},
		{"negative repeats", `{"schema":2,"repeats":-1,"warmup":1,"duration_ms":300,"seed":42,"experiments":["fig1"]}`, "need repeats >= 1"},
		{"run counts are required", `{"schema":2,"experiments":["fig1"]}`, "need repeats >= 1"},
		{"a sweep key is an error, not ignored", `{"schema":2,"repeats":3,"warmup":1,"duration_ms":300,"seed":42,"threads":8,"experiments":["fig5"]}`, `unknown field "threads"`},
		{"a schema-1 experiment entry is an error", spec(`{"name":"fig1","key_range_exps":[8,9]}`), "grid:"},
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

// pointKeys enumerates an experiment's (workload, scheme) keys without
// running anything, sorted.
func pointKeys(e *Experiment) []string {
	var keys []string
	for _, p := range e.Points(Sweep{}) {
		keys = append(keys, p.Workload+" | "+p.Scheme.String())
	}
	sort.Strings(keys)
	return keys
}

// TestExperimentRegistry pins the single-source-of-truth property: every
// figure is one registry entry, names are unique and resolve, and every
// entry enumerates distinct points (a duplicate key would silently merge
// two points in every report).
func TestExperimentRegistry(t *testing.T) {
	want := []string{"fig1", "fig5", "fig6", "fig7", "table2", "ablation", "appendixB"}
	if got := ExperimentNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("registry lists %v, want %v", got, want)
	}
	for _, name := range want {
		e, ok := Lookup(name)
		if !ok || e.Name != name {
			t.Fatalf("registered experiment %q does not resolve", name)
		}
		keys := pointKeys(e)
		if len(keys) == 0 {
			t.Fatalf("%s declares no points", name)
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] == keys[i-1] {
				t.Fatalf("%s declares point %q twice", name, keys[i])
			}
		}
		if cols, _ := e.plan(Sweep{}); name != "fig5" && len(cols) == 0 {
			t.Fatalf("%s declares no columns", name)
		}
	}
	if _, ok := Lookup("pool"); ok {
		t.Fatal("the superseded pool experiment is still registered")
	}
}

// TestGridEmitters checks the one renderer: every format carries the
// aggregate and declared columns and one row per point, and a cell the
// point has no value for is "-" rather than a sentinel.
func TestGridEmitters(t *testing.T) {
	cols := []Column{colPeak, colBound, colAllocs}
	f := sampleFile()
	f.Experiment, f.Repeats, f.Warmup, f.Columns = "table2", 2, 1, []string{"peak_unreclaimed", "bound", "allocs_per_op"}
	f.Points = []BenchPoint{
		aggregate("w", "A", cols, []Measurement{run(100, 5, 50), run(300, 7, 50)}),
		aggregate("w", "B", cols, []Measurement{run(10, 1, -1), run(30, 2, -1)}),
	}
	render := func(format Format) string {
		var b bytes.Buffer
		f.Table("Table 2").Render(&b, format)
		return b.String()
	}
	csv := render(CSV)
	for _, want := range []string{
		"workload,scheme,ops_per_sec,std,min,max,peak_unreclaimed,bound,allocs_per_op\n",
		"w,A,200,100,100,300,7,50,0.000\n",
		"w,B,20,10,10,30,2,-,0.000\n",
	} {
		if !strings.Contains(csv, want) {
			t.Fatalf("csv missing %q:\n%s", want, csv)
		}
	}
	md := render(Markdown)
	for _, want := range []string{"### Table 2\n", "repeats=2, warmup=1, 300 ms/point, seed 42, GOMAXPROCS=2",
		"| workload | scheme | ops_per_sec | std |", "|---|---|---:|", "| w | A | 200 | 100 | 100 | 300 | 7 | 50 | 0.000 |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	text := render(Text)
	if !strings.Contains(text, "  workload  scheme  ops_per_sec  std  min  max  peak_unreclaimed  bound  allocs_per_op\n"+
		"  w         A               200  100  100  300                 7     50          0.000\n"+
		"  w         B                20   10   10   30                 2      -          0.000\n") {
		t.Fatalf("text table not aligned as expected:\n%s", text)
	}
	f.Repeats = 1
	if csv := render(CSV); !strings.HasPrefix(csv, "workload,scheme,ops_per_sec,peak_unreclaimed,") {
		t.Fatalf("a single-repeat table must not print a spread:\n%s", csv)
	}
}

// TestRunGridSmoke runs a miniature grid end to end: experiments.json
// names table2, the run loop measures two schemes twice after a warmup
// pass, and the resulting file is valid and passes its own comparison
// and trajectory.
func TestRunGridSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("workload smoke")
	}
	spec, err := ParseGrid([]byte(`{"schema":2,"repeats":2,"warmup":1,"duration_ms":10,"seed":42,"experiments":["table2"]}`))
	if err != nil {
		t.Fatalf("ParseGrid: %v", err)
	}
	opts := spec.RunOptions()
	opts.Logf = t.Logf
	e, _ := Lookup(spec.Experiments[0])
	f := e.Run(Sweep{Schemes: []hpbrcu.Scheme{hpbrcu.NR, hpbrcu.HPBRCU}}, opts)
	if f.Experiment != "table2" || f.Schema != ReportSchema || f.Repeats != 2 || f.Warmup != 1 || f.DurationMS != 10 {
		t.Fatalf("malformed grid file header: %+v", f)
	}
	if len(f.Points) != 2 {
		t.Fatalf("got %d points, want 2 (NR, HP-BRCU)", len(f.Points))
	}
	for _, p := range f.Points {
		if p.Ops.Min > p.Ops.Mean || p.Ops.Mean > p.Ops.Max || p.Ops.Mean <= 0 {
			t.Fatalf("point %s/%s aggregate out of order: %+v", p.Workload, p.Scheme, p.Ops)
		}
		if _, has := p.Values["bound"]; has != (p.Scheme == hpbrcu.HPBRCU.String()) {
			t.Fatalf("%s: bound cell present = %v", p.Scheme, has)
		}
	}
	if problems := Validate(f); len(problems) != 0 {
		t.Fatalf("fresh grid run is invalid: %v", problems)
	}
	if p, w := Compare(f, f, 0.15); len(p) != 0 || len(w) != 0 {
		t.Fatalf("self-comparison failed: %v (warnings %v)", p, w)
	}
	for _, r := range Trajectory(f, f, 0.05) {
		if r.Verdict != TrajUnchanged {
			t.Fatalf("self-trajectory moved: %+v", r)
		}
	}
}

// TestEveryExperimentRuns runs the first and the last point of every
// registered experiment for 10 ms, so an entry only the console reaches
// (fig6, ablation, appendixB) cannot rot unnoticed.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("workload smoke")
	}
	for _, e := range Experiments {
		pts := e.Points(Sweep{})
		for _, p := range []Point{pts[0], pts[len(pts)-1]} {
			if m := p.Run(10*time.Millisecond, DefaultBenchSeed); m.Ops == 0 || m.Throughput() <= 0 {
				t.Errorf("%s: %s/%s measured nothing: %+v", e.Name, p.Workload, p.Scheme, m)
			}
		}
	}
}

// TestConsoleAndJSONAgree: the table `smrbench <name>` prints and the
// BENCH_<name>.json the grid writes are renderings of the same points —
// one run, rendered both ways, yields the same keys and the same ops/s.
func TestConsoleAndJSONAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("workload smoke")
	}
	e, _ := Lookup("fig5")
	f := e.Run(Sweep{Schemes: []hpbrcu.Scheme{hpbrcu.RCU, hpbrcu.HPBRCU}},
		RunOptions{Repeats: 2, Duration: 10 * time.Millisecond, Seed: DefaultBenchSeed})

	path := filepath.Join(t.TempDir(), "BENCH_fig5.json")
	if err := WriteReport(path, f); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	stored, err := ReadReport(path)
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	var console bytes.Buffer
	f.Table(e.Title).Render(&console, CSV)
	lines := strings.Split(strings.TrimSpace(console.String()), "\n")[1:]
	if len(lines) != len(stored.Points) || len(lines) != 4 {
		t.Fatalf("console has %d rows, file %d points, want 4 each", len(lines), len(stored.Points))
	}
	for i, p := range stored.Points {
		var b bytes.Buffer
		(&BenchFile{Points: []BenchPoint{p}, Repeats: 1}).Table("").Render(&b, CSV)
		want := strings.Split(strings.TrimSpace(b.String()), "\n")[1] // "workload,scheme,ops"
		if !strings.HasPrefix(lines[i], want+",") {
			t.Fatalf("row %d: console %q, file says %q", i, lines[i], want)
		}
	}
}

// TestBaselinesDescribeThisProgram keeps the committed numbers honest:
// every entry of experiments.json has a BENCH_<name>.json of the current
// schema, measured on at least two cores, whose (workload, scheme) keys
// are exactly the points the registry declares for that entry — so a
// renamed, added or deleted point cannot leave a stale baseline behind —
// and no BENCH_*.json exists without an entry.
func TestBaselinesDescribeThisProgram(t *testing.T) {
	root := filepath.Join("..", "..")
	spec, err := LoadGrid(filepath.Join(root, "experiments.json"))
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for _, name := range spec.Experiments {
		listed["BENCH_"+name+".json"] = true
		f, err := ReadReport(filepath.Join(root, "BENCH_"+name+".json"))
		if err != nil {
			t.Errorf("%s is listed in experiments.json but has no readable baseline: %v", name, err)
			continue
		}
		if f.Experiment != name {
			t.Errorf("BENCH_%s.json holds experiment %q", name, f.Experiment)
		}
		for _, p := range append(BaselineProblems(f), Validate(f)...) {
			t.Errorf("BENCH_%s.json: %s", name, p)
		}
		e, _ := Lookup(name)
		var have []string
		for _, p := range f.Points {
			have = append(have, p.Workload+" | "+p.Scheme)
		}
		sort.Strings(have)
		if want := pointKeys(e); strings.Join(have, "\n") != strings.Join(want, "\n") {
			t.Errorf("BENCH_%s.json's points are not the registry's (regenerate with `smrbench grid`):\nfile:\n  %s\nregistry:\n  %s",
				name, strings.Join(have, "\n  "), strings.Join(want, "\n  "))
		}
	}
	files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if !listed[filepath.Base(path)] {
			t.Errorf("%s has no entry in experiments.json", filepath.Base(path))
		}
	}
	if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err != nil {
		t.Errorf("looked for baselines in the wrong directory: %v", err)
	}
}
