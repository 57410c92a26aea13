package main

// The `smrbench grid` subcommand: run → validate → report, over the
// registry entries experiments.json names.
//
//	smrbench grid                      # run experiments.json, write BENCH_<name>.json + GRID.md
//	smrbench grid -repeats 5 -out /tmp # more repeats, elsewhere
//	smrbench grid -trajectory          # compare vs committed baselines instead of overwriting
//
// Every file is validated before it is written or diffed (bench.Validate:
// dead columns, negative samples, §5 bounds), and a baseline is only
// written from a run on at least two cores. -trajectory diffs the fresh
// run against BENCH_<name>.json in -baseline-dir and prints a per-point
// delta report: improved / regressed / unchanged, with each point's own
// ±2σ noise band (std-aware, so run-to-run jitter is never reported as
// movement). The gate exits nonzero on any validation problem or shrunk
// point coverage at every tolerance; with -tolerance < 1 (same-machine
// mode) also on regressed points, and on a baseline measured in a
// different environment. See DESIGN.md §13.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/smrgo/hpbrcu/internal/bench"
)

var (
	gridConfig  = flag.String("config", "experiments.json", "grid: the list of experiments to run and their run counts")
	gridOut     = flag.String("out", ".", "grid: directory to write BENCH_<experiment>.json and GRID.md into")
	gridExps    = flag.String("experiments", "", "grid: comma-separated filter, run only these entries of -config (registered: "+experimentHint()+")")
	gridTraj    = flag.Bool("trajectory", false, "grid: diff against committed baselines instead of overwriting them")
	gridBaseDir = flag.String("baseline-dir", ".", "grid: directory holding the baseline BENCH_*.json for -trajectory")
	gridTol     = flag.Float64("tolerance", 0.15, "grid: trajectory noise floor and throughput gate; >=1 = cross-machine mode (regressions informational; validation and coverage still gate)")
)

// experimentHint lists the registered experiment names for flag help and
// error messages, derived from the bench registry so it cannot go stale.
func experimentHint() string {
	return strings.Join(bench.ExperimentNames(), ", ")
}

// gridFail prints the problems that stop a grid run and exits.
func gridFail(experiment string, problems []string) {
	fmt.Printf("grid %s: FAIL\n", experiment)
	for _, p := range problems {
		fmt.Printf("  %s\n", p)
	}
	os.Exit(1)
}

func runGrid() {
	spec, err := bench.LoadGrid(*gridConfig)
	if err != nil {
		fatalArg(fmt.Errorf("grid: %w", err))
	}
	names := spec.Experiments
	if *gridExps != "" {
		names = nil
		for _, n := range strings.Split(*gridExps, ",") {
			n = strings.TrimSpace(n)
			listed := false
			for _, have := range spec.Experiments {
				listed = listed || have == n
			}
			if !listed {
				fatalArg(fmt.Errorf("grid: -experiments: %q is not in %s (registered experiments: %s)", n, *gridConfig, experimentHint()))
			}
			names = append(names, n)
		}
	}
	opts := runOptions(spec)
	opts.Logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, "grid: "+format+"\n", a...) }
	sw := sweep()

	t0 := time.Now()
	var files []*bench.BenchFile
	titles := make(map[string]string)
	for _, n := range names {
		e, _ := bench.Lookup(n) // LoadGrid validated the names
		titles[n] = e.Title
		f := e.Run(sw, opts)
		f.Table(e.Title).Render(os.Stdout, format())
		fmt.Println()
		problems := bench.Validate(f)
		if !*gridTraj {
			problems = append(problems, bench.BaselineProblems(f)...)
		}
		if len(problems) > 0 {
			gridFail(n, problems)
		}
		files = append(files, f)
	}
	fmt.Fprintf(os.Stderr, "grid: %d experiments in %v, all valid\n", len(files), time.Since(t0).Truncate(time.Millisecond))

	if !*gridTraj {
		md, err := os.Create(filepath.Join(*gridOut, "GRID.md"))
		if err != nil {
			gridFail("GRID.md", []string{err.Error()})
		}
		for _, f := range files {
			path := filepath.Join(*gridOut, "BENCH_"+f.Experiment+".json")
			if err := bench.WriteReport(path, f); err != nil {
				gridFail(f.Experiment, []string{err.Error()})
			}
			fmt.Printf("grid %s: wrote %s (%d points × %d repeats)\n", f.Experiment, path, len(f.Points), f.Repeats)
			f.Table(titles[f.Experiment]).Render(md, bench.Markdown)
			fmt.Fprintln(md)
		}
		if err := md.Close(); err != nil {
			gridFail("GRID.md", []string{err.Error()})
		}
		fmt.Printf("grid: wrote %s\n", md.Name())
		return
	}

	// Trajectory mode: never overwrites; every experiment in the grid
	// must have a committed baseline to diff against.
	floor := *gridTol
	if floor >= 1 {
		floor = 0.05
	}
	failed := false
	for _, f := range files {
		base, err := bench.ReadReport(filepath.Join(*gridBaseDir, "BENCH_"+f.Experiment+".json"))
		if err != nil {
			gridFail(f.Experiment, []string{err.Error()})
		}
		problems, warnings := bench.Compare(base, f, *gridTol)
		rows := bench.Trajectory(base, f, floor)
		count := map[bench.TrajectoryVerdict]int{}
		for _, r := range rows {
			count[r.Verdict]++
		}
		bench.TrajectoryTable(f.Experiment, rows).Render(os.Stdout, format())
		for _, w := range warnings {
			fmt.Printf("  warning: %s\n", w)
		}
		if regressed := count[bench.TrajRegressed]; *gridTol < 1 && regressed > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d point(s) regressed beyond their noise band", f.Experiment, regressed))
		}
		if len(problems) == 0 {
			fmt.Printf("grid %s: OK (%d improved, %d unchanged, %d regressed; bounds hold, coverage intact)\n\n",
				f.Experiment, count[bench.TrajImproved], count[bench.TrajUnchanged], count[bench.TrajRegressed])
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
