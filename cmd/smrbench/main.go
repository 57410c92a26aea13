// Command smrbench regenerates the paper's tables and figures (§6 and the
// appendix) on the local machine.
//
// Usage:
//
//	smrbench [flags] <experiment>
//
// Experiments:
//
//	fig1       long-running reads vs operation length (Figure 1 teaser)
//	fig5       read-only throughput (Figure 5: HHSList, HashMap)
//	fig6       long-running reads vs key range (Figure 6 / appendix B.3)
//	fig7       write-heavy/mixed throughput + memory (Figure 7)
//	table2     robustness criteria incl. stalled-thread measurement (Table 2);
//	           -leak-rate kills a fraction of writers without Unregister;
//	           HP-RCU and HP-BRCU adopt their dropped handles
//	ablation   design-choice sweeps (BackupPeriod, ForceThreshold, BatchSize)
//	appendixB  the full grid: 4 mixes × 6 structures × 2 key ranges
//	table1     applicability matrix (Table 1, benchmark structures)
//	grid       the experiments experiments.json names, each through the same
//	           run loop at the file's repeats/warmup/duration/seed, validated,
//	           then written to BENCH_<name>.json (+ GRID.md); `grid
//	           -trajectory` instead prints a std-aware per-point delta report
//	           vs the committed baselines and gates on §5 bounds, coverage and
//	           (same-machine, -tolerance < 1) regressions (see gridcmd.go)
//	chaos      fault-injection sweep: seeds × schedules × schemes × lists;
//	           exits nonzero on any invariant violation. -leak composes
//	           goroutine-death faults into every schedule and turns the
//	           adoption of every dropped handle into part of the gate
//
// Every measuring experiment is one entry of internal/bench's registry and
// runs through its one run loop and one table renderer: `smrbench fig5` and
// the fig5 file `smrbench grid` writes are two renderings of the same
// points. Flags may precede or follow the experiment name.
//
// Numbers are not comparable to the paper's 64/96-thread testbeds; the
// shape (ordering, collapse points, boundedness) is what to compare. Use
// -duration, -threads and -ranges to scale runs up on bigger machines.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/bench"
)

var (
	duration = flag.Duration("duration", 300*time.Millisecond, "measurement time per point and pass (grid: experiments.json's unless set)")
	repeats  = flag.Int("repeats", 1, "measured passes per point (grid: experiments.json's unless set)")
	warmup   = flag.Int("warmup", 0, "discarded warmup passes per experiment (grid: experiments.json's unless set)")
	seed     = flag.Uint64("seed", bench.DefaultBenchSeed, "workload seed (grid: experiments.json's unless set)")
	threads  = flag.String("threads", "", "comma-separated thread counts for the mixed workloads (default: the registry's)")
	ranges   = flag.String("ranges", "", "comma-separated key-range exponents for fig1/fig6 (default: the registry's)")
	schemes  = flag.String("schemes", "", "comma-separated scheme filter (e.g. RCU,HP-BRCU)")
	csv      = flag.Bool("csv", false, "emit CSV instead of aligned text")
	leakRate = flag.String("leak-rate", "0", "table2: fraction of writers in [0,1] that die without unregistering")
)

func main() {
	flag.Parse()
	name, extra := flag.Arg(0), 0
	if flag.NArg() > 1 {
		// Flags may follow the experiment name (`smrbench grid -trajectory`).
		flag.CommandLine.Parse(flag.Args()[1:])
		extra = flag.NArg()
	}
	if name == "" || extra > 0 {
		fmt.Fprintf(os.Stderr, "usage: smrbench [flags] %s|table1|chaos|grid [flags]\n", strings.Join(bench.ExperimentNames(), "|"))
		os.Exit(2)
	}
	startObservability()
	switch name {
	case "grid":
		runGrid()
	case "table1":
		runTable1()
	case "chaos":
		runChaos()
	default:
		e, ok := bench.Lookup(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		f := e.Run(sweep(), runOptions(nil))
		f.Table(e.Title).Render(os.Stdout, format())
	}
}

// fatalArg reports a flag-value error and exits with the usage status.
func fatalArg(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func schemeFilter() []hpbrcu.Scheme {
	if *schemes == "" {
		return hpbrcu.Schemes
	}
	out, err := parseSchemes(*schemes)
	if err != nil {
		fatalArg(err)
	}
	return out
}

// sweep is what the command line changes about the registry's declared
// sweeps; with no flag set it is the zero Sweep, the declaration itself.
func sweep() bench.Sweep {
	var sw bench.Sweep
	var err error
	if *schemes != "" {
		sw.Schemes = schemeFilter()
	}
	if *threads != "" {
		if sw.Threads, err = parseThreadCounts(*threads); err != nil {
			fatalArg(err)
		}
	}
	if *ranges != "" {
		if sw.Exps, err = parseExps(*ranges); err != nil {
			fatalArg(err)
		}
	}
	if sw.LeakRate, err = parseLeakRate(*leakRate); err != nil {
		fatalArg(err)
	}
	return sw
}

// runOptions resolves how each point is measured: the flags' defaults for
// a single experiment, experiments.json's counts for the grid, and in
// both cases whatever the command line set explicitly.
func runOptions(spec *bench.GridSpec) bench.RunOptions {
	o := bench.RunOptions{Repeats: *repeats, Warmup: *warmup, Duration: *duration, Seed: *seed}
	if spec != nil {
		o = spec.RunOptions()
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "repeats":
				o.Repeats = *repeats
			case "warmup":
				o.Warmup = *warmup
			case "duration":
				o.Duration = *duration
			case "seed":
				o.Seed = *seed
			}
		})
	}
	if o.Repeats < 1 || o.Warmup < 0 || o.Duration <= 0 {
		fatalArg(fmt.Errorf("need -repeats >= 1, -warmup >= 0 and a positive -duration (got %d, %d, %v)", o.Repeats, o.Warmup, o.Duration))
	}
	return o
}

func format() bench.Format {
	if *csv {
		return bench.CSV
	}
	return bench.Text
}

type row []string

// emit prints a table none of whose columns is a measurement (the chaos
// verdicts, the applicability matrix) through the one renderer.
func emit(header row, rows []row) {
	t := bench.Table{Header: header, Labels: len(header)}
	for _, r := range rows {
		t.Rows = append(t.Rows, r)
	}
	t.Render(os.Stdout, format())
}

func runTable1() {
	fmt.Println("Table 1 (benchmark structures): scheme applicability")
	header := row{"structure"}
	for _, s := range hpbrcu.Schemes {
		header = append(header, s.String())
	}
	var rows []row
	for _, st := range bench.Structures {
		r := row{string(st)}
		for _, s := range hpbrcu.Schemes {
			if bench.Supported(st, s) {
				r = append(r, "yes")
			} else {
				r = append(r, "-")
			}
		}
		rows = append(rows, r)
	}
	emit(header, rows)
}
