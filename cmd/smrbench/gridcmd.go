package main

// The `smrbench grid` subcommand: the declarative experiment-grid
// runner. It executes the grid committed in experiments.json — every
// experiment point measured -repeats times after warmup runs — and
// aggregates each point's throughput into a report
// (mean/std/min/max), emitting BENCH_*.json plus CSV and a markdown
// table suitable for pasting into EXPERIMENTS.md:
//
//	smrbench grid                      # run experiments.json, write BENCH_*.json + GRID.csv/GRID.md
//	smrbench grid -repeats 3 -out /tmp # more repeats, elsewhere
//	smrbench grid -trajectory          # compare vs committed baselines instead of overwriting
//
// -trajectory mode diffs the fresh grid against the committed
// baselines (BENCH_<experiment>.json in -baseline-dir) and prints a
// per-point delta report: improved / regressed / unchanged, with each
// point's own ±2σ noise band (std-aware, so run-to-run jitter is never
// reported as movement). The gate exits nonzero on any §5 memory-bound
// violation or shrunk point coverage at every tolerance, and
// additionally on regressed points when -tolerance < 1 (same-machine
// mode); tolerance ≥ 1 keeps the cross-machine semantics CI uses. See
// DESIGN.md §13.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/smrgo/hpbrcu/internal/bench"
	"github.com/smrgo/hpbrcu/internal/obs"
)

// experimentHint lists the registered experiment names for flag help and
// error messages, derived from the bench registry so it cannot go stale
// (a hardcoded predecessor said "want fig1, fig5 or table2" long after
// the pool experiment landed).
func experimentHint() string {
	return strings.Join(bench.ExperimentNames(), ", ")
}

func runGrid(args []string) {
	fs := flag.NewFlagSet("grid", flag.ExitOnError)
	config := fs.String("config", "experiments.json", "grid declaration to execute")
	repeats := fs.Int("repeats", 0, "measured runs per point (0 = the spec's, default 3)")
	warmup := fs.Int("warmup", -1, "discarded warmup runs per experiment (-1 = the spec's, default 1)")
	dur := fs.Duration("duration", 0, "measurement time per point (0 = the spec's)")
	seed := fs.Uint64("seed", 0, "workload seed (0 = the spec's)")
	outDir := fs.String("out", ".", "directory to write BENCH_<experiment>.json, GRID.csv and GRID.md into")
	schemeList := fs.String("schemes", "", "comma-separated scheme filter on top of the spec's")
	expList := fs.String("experiments", "", "comma-separated experiment filter: run only these entries of the spec (registered: "+experimentHint()+")")
	trajectory := fs.Bool("trajectory", false, "diff against committed baselines instead of overwriting them")
	baseDir := fs.String("baseline-dir", ".", "directory holding the baseline BENCH_*.json for -trajectory")
	tolerance := fs.Float64("tolerance", 0.15, "trajectory noise floor and throughput gate; >=1 = cross-machine mode (regressions informational, bounds and coverage still gate)")
	allocSel := fs.String("alloc", "", "allocator sweep override: pool, arena or both (empty = the spec's)")
	requireGC := fs.Bool("require-gc", false, "fail unless every emitted point carries non-negative GC-pressure columns (and some point measured real allocation)")
	fs.Parse(args)

	spec, err := bench.LoadGrid(*config)
	if err != nil {
		fatalArg(fmt.Errorf("grid: %w", err))
	}
	if *expList != "" {
		want := make(map[string]bool)
		for _, n := range strings.Split(*expList, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			found := false
			for _, e := range spec.Experiments {
				if e.Name == n {
					found = true
					break
				}
			}
			if !found {
				fatalArg(fmt.Errorf("grid: -experiments: %q is not in %s (registered experiments: %s)", n, *config, experimentHint()))
			}
			want[n] = true
		}
		var kept []bench.GridExperiment
		for _, e := range spec.Experiments {
			if want[e.Name] {
				kept = append(kept, e)
			}
		}
		spec.Experiments = kept
	}
	opts := bench.GridOptions{
		Repeats: *repeats, Warmup: *warmup, Duration: *dur, Seed: *seed,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	}
	if *schemeList != "" {
		sel, err := parseSchemes(*schemeList)
		if err != nil {
			fatalArg(err)
		}
		opts.Schemes = sel
	}
	if *allocSel != "" {
		sel, err := parseAllocs(*allocSel)
		if err != nil {
			fatalArg(err)
		}
		opts.Allocators = sel
	}

	// The critical-section histograms only record while the obs layer is
	// on, and the committed baselines are measured with it on, so the
	// overhead cancels out of every same-scheme comparison.
	if !obs.On {
		obs.Activate(obs.NewCollector(obs.DefaultRingSize))
	}

	t0 := time.Now()
	files, err := bench.RunGrid(spec, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grid: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "grid: %d experiments in %v\n", len(files), time.Since(t0).Truncate(time.Millisecond))

	// -require-gc is the CI guard for the GC-pressure columns: every point
	// must carry them (non-negative — a negative value means the sampler's
	// window arithmetic broke), and at least one point across the run must
	// have measured real allocation, so a silently dead runtime/metrics
	// sampler cannot pass as "all zeros".
	if *requireGC {
		sawAlloc := false
		for _, f := range files {
			for _, p := range f.Points {
				if p.AllocsPerOp < 0 || p.GCCPUFrac < 0 {
					fmt.Fprintf(os.Stderr, "grid: -require-gc: %s %s/%s has negative GC columns (allocs/op=%g, gc_cpu_frac=%g)\n",
						f.Experiment, p.Workload, p.Scheme, p.AllocsPerOp, p.GCCPUFrac)
					os.Exit(1)
				}
				if p.AllocsPerOp > 0 {
					sawAlloc = true
				}
			}
		}
		if !sawAlloc {
			fmt.Fprintln(os.Stderr, "grid: -require-gc: no point measured any allocation — the GC sampler looks dead")
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "grid: -require-gc: GC-pressure columns present on every point")
	}

	if !*trajectory {
		for _, f := range files {
			path := filepath.Join(*outDir, "BENCH_"+f.Experiment+".json")
			if err := bench.WriteReport(path, f); err != nil {
				fmt.Fprintf(os.Stderr, "grid: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("grid %s: wrote %s (%d points × %d repeats)\n", f.Experiment, path, len(f.Points), f.Repeats)
		}
		csvPath := filepath.Join(*outDir, "GRID.csv")
		if err := os.WriteFile(csvPath, []byte(bench.GridCSV(files)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "grid: %v\n", err)
			os.Exit(1)
		}
		mdPath := filepath.Join(*outDir, "GRID.md")
		if err := os.WriteFile(mdPath, []byte(bench.GridMarkdown(files)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "grid: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("grid: wrote %s and %s\n", csvPath, mdPath)
		return
	}

	// Trajectory mode: never overwrites; every experiment in the grid
	// must have a committed baseline to diff against.
	floor := *tolerance
	if floor >= 1 {
		floor = 0.05
	}
	failed := false
	for _, f := range files {
		path := filepath.Join(*baseDir, "BENCH_"+f.Experiment+".json")
		base, err := bench.ReadReport(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grid: %v\n", err)
			os.Exit(1)
		}
		problems, warnings := bench.Compare(base, f, *tolerance)
		rows := bench.Trajectory(base, f, floor)
		var improved, regressed, unchanged int
		for _, r := range rows {
			switch r.Verdict {
			case bench.TrajImproved:
				improved++
			case bench.TrajRegressed:
				regressed++
			case bench.TrajUnchanged:
				unchanged++
			}
		}
		fmt.Println(bench.TrajectoryMarkdown(f.Experiment, rows))
		for _, w := range warnings {
			fmt.Printf("  warning: %s\n", w)
		}
		if *tolerance < 1 && regressed > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d point(s) regressed beyond their noise band", f.Experiment, regressed))
		}
		if len(problems) == 0 {
			fmt.Printf("grid %s: OK (%d improved, %d unchanged, %d regressed; bounds hold, coverage intact)\n\n",
				f.Experiment, improved, unchanged, regressed)
			continue
		}
		failed = true
		fmt.Printf("grid %s: FAIL\n", f.Experiment)
		for _, p := range problems {
			fmt.Printf("  %s\n", p)
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}
