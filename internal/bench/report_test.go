package bench

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// sampleFile is a hand-made table2-shaped report: three points, one of
// them bounded. Its environment is fixed (not the host's) so the tests
// mean the same under GOMAXPROCS=1.
func sampleFile() *BenchFile {
	pt := func(workload, scheme string, ops float64, values map[string]float64) BenchPoint {
		return BenchPoint{Workload: workload, Scheme: scheme, OpsPerSec: ops,
			Ops: PointStats{Mean: ops, Min: ops, Max: ops}, Values: values}
	}
	return &BenchFile{
		Experiment:  "fig1",
		Schema:      ReportSchema,
		Seed:        DefaultBenchSeed,
		DurationMS:  300,
		Repeats:     1,
		Environment: Environment{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2},
		Columns:     []string{"peak_unreclaimed", "bound"},
		Points: []BenchPoint{
			pt("keys=2^08", "HP-BRCU", 1000, map[string]float64{"peak_unreclaimed": 40}),
			pt("keys=2^08", "NR", 1500, map[string]float64{"peak_unreclaimed": 9000}),
			pt("keys=2^09", "HP-BRCU", 800, map[string]float64{"peak_unreclaimed": 55, "bound": 100}),
		},
	}
}

// TestReportRoundTrip checks that the BENCH_*.json schema survives a
// write/read cycle byte-for-value: what Compare sees later is exactly
// what the pipeline measured.
func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fig1.json")
	want := sampleFile()
	if err := WriteReport(path, want); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestCompare is the table-driven audit of the regression gate: which
// crafted deltas it must accept and which it must reject.
func TestCompare(t *testing.T) {
	mutate := func(f func(*BenchFile)) *BenchFile {
		c := sampleFile()
		f(c)
		return c
	}
	cases := []struct {
		name      string
		current   *BenchFile
		tolerance float64
		wantFail  string // substring of a problem message; "" = must pass
		wantWarn  string // substring of a warning message; "" = no warnings
	}{
		{"identical run passes", sampleFile(), 0.15, "", ""},
		{"small dip within tolerance passes", mutate(func(c *BenchFile) {
			c.Points[0].OpsPerSec = 900 // -10% < 15%
		}), 0.15, "", ""},
		{"regression beyond tolerance fails", mutate(func(c *BenchFile) {
			c.Points[0].OpsPerSec = 500 // -50%
		}), 0.15, "throughput regressed", ""},
		{"tolerance >= 1 skips throughput checks", mutate(func(c *BenchFile) {
			c.Points[0].OpsPerSec = 1 // collapse, but cross-machine mode
		}), 2, "", ""},
		{"missing point fails coverage", mutate(func(c *BenchFile) {
			c.Points = c.Points[:2]
		}), 0.15, "missing from current run", ""},
		{"extra point passes with a new-point warning", mutate(func(c *BenchFile) {
			c.Points = append(c.Points, BenchPoint{Workload: "keys=2^10", Scheme: "NR", OpsPerSec: 1})
		}), 0.15, "", "keys=2^10/NR is new"},
		{"renamed workload fails coverage AND warns", mutate(func(c *BenchFile) {
			c.Points[1].Workload = "keys=2^08-renamed" // old NR point gone, new name appears
		}), 0.15, "missing from current run", "keys=2^08-renamed/NR is new"},
		{"bound violation fails at any tolerance", mutate(func(c *BenchFile) {
			c.Points[2].Values["peak_unreclaimed"] = 101 // bound is 100
		}), 2, "violates the §5 memory bound", ""},
		{"peak equal to bound passes", mutate(func(c *BenchFile) {
			c.Points[2].Values["peak_unreclaimed"] = 100
		}), 0.15, "", ""},
		{"unbounded scheme never bound-fails", mutate(func(c *BenchFile) {
			c.Points[0].Values["peak_unreclaimed"] = 1 << 40 // no bound cell
		}), 0.15, "", ""},
		{"unknown schema fails", mutate(func(c *BenchFile) {
			c.Schema = ReportSchema + 1
		}), 0.15, "schema", ""},
		{"schema-1 current rejected", mutate(func(c *BenchFile) {
			c.Schema = 1
		}), 0.15, "current schema 1, want 3", ""},
		{"another environment fails the same-machine gate", mutate(func(c *BenchFile) {
			c.Environment.GOMAXPROCS = 8
		}), 0.15, "throughput is not comparable", ""},
		{"another environment passes the cross-machine gate", mutate(func(c *BenchFile) {
			c.Environment.GOMAXPROCS = 8
		}), 2, "", ""},
		{"an invalid current run fails whatever the baseline says", mutate(func(c *BenchFile) {
			c.Points[2].Values["bound"] = 0
			c.Points[2].Values["peak_unreclaimed"] = 0
		}), 2, `declared column "bound" is zero on every point`, ""},
		{"experiment mismatch fails", mutate(func(c *BenchFile) {
			c.Experiment = "fig5"
		}), 0.15, "experiment mismatch", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			problems, warnings := Compare(sampleFile(), tc.current, tc.tolerance)
			if tc.wantWarn == "" {
				if len(warnings) != 0 {
					t.Fatalf("want no warnings, got %v", warnings)
				}
			} else {
				found := false
				for _, w := range warnings {
					if strings.Contains(w, tc.wantWarn) {
						found = true
					}
				}
				if !found {
					t.Fatalf("want a warning containing %q, got %v", tc.wantWarn, warnings)
				}
			}
			if tc.wantFail == "" {
				if len(problems) != 0 {
					t.Fatalf("want pass, got problems: %v", problems)
				}
				return
			}
			found := false
			for _, p := range problems {
				if strings.Contains(p, tc.wantFail) {
					found = true
				}
			}
			if !found {
				t.Fatalf("want a problem containing %q, got %v", tc.wantFail, problems)
			}
		})
	}
}

// TestScheduleFingerprintDeterminism pins the property the fixed-seed
// pipeline rests on: equal seeds draw identical workload schedules, and
// the schedule actually depends on the seed, the worker and the mix.
func TestScheduleFingerprintDeterminism(t *testing.T) {
	base := MixedConfig{KeyRange: 1000, Mix: ReadIntensive, Seed: DefaultBenchSeed}
	cases := []struct {
		name string
		a, b MixedConfig
		ida  uint64
		idb  uint64
		same bool
	}{
		{"same seed, same worker", base, base, 0, 0, true},
		{"zero seed defaults to DefaultBenchSeed",
			base, MixedConfig{KeyRange: 1000, Mix: ReadIntensive}, 1, 1, true},
		{"different seeds diverge",
			base, MixedConfig{KeyRange: 1000, Mix: ReadIntensive, Seed: 43}, 0, 0, false},
		{"different workers diverge", base, base, 0, 1, false},
		{"different mixes diverge",
			base, MixedConfig{KeyRange: 1000, Mix: WriteOnly, Seed: DefaultBenchSeed}, 0, 0, false},
	}
	const n = 4096
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fa := ScheduleFingerprint(tc.a, tc.ida, n)
			fb := ScheduleFingerprint(tc.b, tc.idb, n)
			if (fa == fb) != tc.same {
				t.Fatalf("fingerprints %#x vs %#x, want same=%v", fa, fb, tc.same)
			}
		})
	}
}

// TestPipelineSmoke runs a miniature table2 end to end through the run
// loop: the report is well-formed, every requested scheme produced its
// point, and the HP-BRCU point carries a §5 bound its own peak respects —
// so a freshly generated file always passes its own gate.
func TestPipelineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("workload smoke")
	}
	e, _ := Lookup("table2")
	f := e.Run(Sweep{Schemes: []hpbrcu.Scheme{hpbrcu.NR, hpbrcu.HPBRCU}},
		RunOptions{Repeats: 1, Duration: 10 * time.Millisecond, Seed: DefaultBenchSeed})
	if f.Experiment != "table2" || f.Schema != ReportSchema || f.Seed != DefaultBenchSeed {
		t.Fatalf("malformed header: %+v", f)
	}
	if len(f.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(f.Points))
	}
	var hpb *BenchPoint
	for i := range f.Points {
		if f.Points[i].Scheme == hpbrcu.HPBRCU.String() {
			hpb = &f.Points[i]
		}
	}
	if hpb == nil {
		t.Fatal("no HP-BRCU point")
	}
	bound, ok := hpb.Values["bound"]
	if !ok || bound <= 0 {
		t.Fatal("HP-BRCU point carries no §5 bound")
	}
	problems, warnings := Compare(f, f, 0.15)
	if len(problems) != 0 || len(warnings) != 0 {
		t.Fatalf("self-comparison failed: %v (warnings %v)", problems, warnings)
	}
	if peak := hpb.Values["peak_unreclaimed"]; peak > bound {
		t.Fatalf("fresh run violates its own bound: peak %v > %v", peak, bound)
	}
}

// TestValidate is the table of the validate step: what a fresh run may
// not look like, whatever it is later compared against.
func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*BenchFile)
		want   string // "" = valid
	}{
		{"the sample is valid", func(*BenchFile) {}, ""},
		{"no points", func(f *BenchFile) { f.Points = nil }, "no points measured"},
		{"a declared column zero everywhere is dead", func(f *BenchFile) {
			for _, p := range f.Points {
				p.Values["peak_unreclaimed"] = 0
			}
		}, `declared column "peak_unreclaimed" is zero on every point`},
		{"a declared column absent everywhere is dead", func(f *BenchFile) {
			delete(f.Points[2].Values, "bound")
		}, `declared column "bound" is zero on every point`},
		{"a negative sample", func(f *BenchFile) {
			f.Columns = append(f.Columns, "gc_cpu_frac")
			f.Points[0].Values["gc_cpu_frac"] = -0.25
		}, "negative gc_cpu_frac"},
		{"peak over bound", func(f *BenchFile) { f.Points[2].Values["peak_unreclaimed"] = 101 }, "violates the §5 memory bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := sampleFile()
			tc.break_(f)
			problems := Validate(f)
			if tc.want == "" {
				if len(problems) != 0 {
					t.Fatalf("want valid, got %v", problems)
				}
				return
			}
			if !strings.Contains(strings.Join(problems, "\n"), tc.want) {
				t.Fatalf("want a problem containing %q, got %v", tc.want, problems)
			}
		})
	}
	one := sampleFile()
	one.Environment.GOMAXPROCS = 1
	if p := BaselineProblems(one); len(p) != 1 || !strings.Contains(p[0], "GOMAXPROCS=1") {
		t.Fatalf("a one-core run must not become a baseline: %v", p)
	}
	if p := BaselineProblems(sampleFile()); len(p) != 0 {
		t.Fatalf("the sample is a fine baseline: %v", p)
	}
}
