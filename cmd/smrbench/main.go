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
//	fig5       read-only throughput vs threads (Figure 5: HHSList, HashMap)
//	fig6       long-running reads vs key range (Figure 6 / appendix B.3)
//	fig7       write-heavy/mixed throughput + memory vs threads (Figure 7)
//	appendixB  the full grid: 4 mixes × 6 structures × 2 key ranges
//	table1     applicability matrix (Table 1, benchmark structures)
//	table2     robustness criteria incl. stalled-thread measurement (Table 2);
//	           -leak-rate kills a fraction of writers without Unregister and
//	           -reaper runs the lease-based orphan reaper against the leaks
//	ablation   design-choice sweeps (BackupPeriod, ForceThreshold, BatchSize)
//	grid       declarative experiment grid from experiments.json: every point
//	           run N times, mean/std aggregated into BENCH_*.json plus CSV and
//	           markdown; `grid -trajectory` prints a std-aware per-point delta
//	           report vs the committed baselines and gates on §5 bounds,
//	           coverage and (same-machine) regressions (flags after `grid` are
//	           its own; see gridcmd.go)
//	chaos      fault-injection sweep: seeds × schedules × schemes × lists,
//	           watchdog on; exits nonzero on any invariant violation. -leak
//	           composes goroutine-death faults into every schedule and turns
//	           the reaper's convergence invariant into part of the gate
//
// Numbers are not comparable to the paper's 64/96-thread testbeds; the
// shape (ordering, collapse points, boundedness) is what to compare. Use
// -duration and -threads to scale runs up on bigger machines.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/bench"
)

var (
	duration   = flag.Duration("duration", 300*time.Millisecond, "measurement time per point")
	threads    = flag.String("threads", "", "comma-separated thread counts (default scales to GOMAXPROCS)")
	ranges     = flag.String("ranges", "", "comma-separated key-range exponents for fig1/fig6 (default 8..15)")
	schemes    = flag.String("schemes", "", "comma-separated scheme filter (e.g. RCU,HP-BRCU)")
	csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
	debugTimes = flag.Bool("debugtimes", false, "print per-point wall time to stderr")
	leakRate   = flag.String("leak-rate", "0", "table2: fraction of writers in [0,1] that die without unregistering")
	reaper     = flag.Bool("reaper", false, "table2: run the lease-based orphan reaper (HP-BRCU only)")
)

func main() {
	flag.Parse()
	startObservability()
	sub := flag.Arg(0) == "grid"
	if flag.NArg() < 1 || (flag.NArg() > 1 && !sub) {
		fmt.Fprintln(os.Stderr, "usage: smrbench [flags] fig1|fig5|fig6|fig7|appendixB|table1|table2|ablation|chaos|grid [grid flags]")
		os.Exit(2)
	}
	switch flag.Arg(0) {
	case "grid":
		runGrid(flag.Args()[1:])
	case "fig1":
		runLongScan("Figure 1: long-running read operations (length = key range / 2)", defaultExps(8, 13))
	case "fig5":
		runFig5()
	case "fig6":
		runLongScan("Figure 6: long-running reads vs key range", defaultExps(8, 15))
	case "fig7":
		runFig7()
	case "appendixB":
		runAppendixB()
	case "table1":
		runTable1()
	case "table2":
		runTable2()
	case "ablation":
		runAblation()
	case "chaos":
		runChaos()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", flag.Arg(0))
		os.Exit(2)
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

func threadCounts() []int {
	if *threads != "" {
		out, err := parseThreadCounts(*threads)
		if err != nil {
			fatalArg(err)
		}
		return out
	}
	p := runtime.GOMAXPROCS(0)
	// Mirror the paper's 1..2×hardware-threads sweep, coarsely.
	set := []int{1, p, 2 * p, 4 * p}
	if p == 1 {
		set = []int{1, 2, 4, 8}
	}
	return set
}

func defaultExps(lo, hi int) []int {
	if *ranges != "" {
		out, err := parseExps(*ranges)
		if err != nil {
			fatalArg(err)
		}
		return out
	}
	var out []int
	for e := lo; e <= hi; e++ {
		out = append(out, e)
	}
	return out
}

type row []string

func emit(header row, rows []row) {
	if *csv {
		fmt.Println(strings.Join(header, ","))
		for _, r := range rows {
			fmt.Println(strings.Join(r, ","))
		}
		return
	}
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(r row) {
		parts := make([]string, len(r))
		for i, c := range r {
			parts[i] = fmt.Sprintf("%-*s", width[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
}

// runLongScan drives Figures 1 and 6: reader throughput (normalized to
// NR) and peak unreclaimed blocks, per key range.
func runLongScan(title string, exps []int) {
	fmt.Println(title)
	fmt.Printf("  (readers=%d writers=%d, %s per point; throughput normalized to NR)\n",
		longScanReaders(), longScanReaders(), *duration)

	header := row{"key-range"}
	sel := schemeFilter()
	for _, s := range sel {
		header = append(header, s.String()+" tput", s.String()+" peak")
	}
	var rows []row
	for _, e := range exps {
		kr := int64(1) << e
		r := row{fmt.Sprintf("2^%d", e)}
		var nrTput float64
		for _, s := range sel {
			st := bench.LongScanStructureFor(s)
			res := bench.RunLongScan(bench.LongScanConfig{
				Structure: st, Scheme: s,
				Readers: longScanReaders(), Writers: longScanReaders(),
				KeyRange: kr, Duration: *duration,
			})
			t := res.ReadThroughput()
			if s == hpbrcu.NR {
				nrTput = t
			}
			norm := "n/a"
			if nrTput > 0 {
				norm = fmt.Sprintf("%.3f", t/nrTput)
			}
			r = append(r, norm, fmt.Sprintf("%d", res.PeakUnreclaimed))
		}
		rows = append(rows, r)
	}
	emit(header, rows)
}

func longScanReaders() int {
	p := runtime.GOMAXPROCS(0)
	if p < 2 {
		return 2
	}
	return p
}

func runFig5() {
	for _, part := range []struct {
		title    string
		st       bench.Structure
		keyRange int64
	}{
		{"Figure 5a: HHSList, read-only, key range 1K", bench.HHSList, 1000},
		{"Figure 5b: HashMap, read-only, key range 100K (scaled to 10K)", bench.HashMap, 10000},
	} {
		fmt.Println(part.title)
		sweepThreads(part.st, part.keyRange, bench.ReadOnly)
	}
}

func runFig7() {
	for _, part := range []struct {
		title    string
		st       bench.Structure
		keyRange int64
		mix      bench.Mix
	}{
		{"Figure 7a: HList, write-only, key range 1K", bench.HList, 1000, bench.WriteOnly},
		{"Figure 7b: HashMap, write-only, key range 100K (scaled to 10K)", bench.HashMap, 10000, bench.WriteOnly},
		{"Figure 7c: NMTree, read-write, key range 100K (scaled to 10K)", bench.NMTree, 10000, bench.ReadWrite},
		{"Figure 7d: SkipList, read-write, key range 100K (scaled to 10K)", bench.SkipList, 10000, bench.ReadWrite},
	} {
		fmt.Println(part.title)
		sweepThreads(part.st, part.keyRange, part.mix)
	}
}

func sweepThreads(st bench.Structure, keyRange int64, mix bench.Mix) {
	sel := schemeFilter()
	header := row{"threads"}
	for _, s := range sel {
		if !bench.Supported(st, s) {
			continue
		}
		header = append(header, s.String()+" Mop/s", s.String()+" peak")
	}
	var rows []row
	for _, t := range threadCounts() {
		r := row{strconv.Itoa(t)}
		for _, s := range sel {
			if !bench.Supported(st, s) {
				continue
			}
			t0 := time.Now()
			res := bench.RunMixed(bench.MixedConfig{
				Structure: st, Scheme: s, Threads: t,
				KeyRange: keyRange, Mix: mix, Duration: *duration,
			})
			if *debugTimes {
				fmt.Fprintf(os.Stderr, "[point %s %s t=%d: %v]\n", st, s, t, time.Since(t0).Truncate(time.Millisecond))
			}
			r = append(r, fmt.Sprintf("%.3f", res.MTput()), fmt.Sprintf("%d", res.PeakUnreclaimed))
		}
		rows = append(rows, r)
	}
	emit(header, rows)
}

func runAppendixB() {
	small := map[bench.Structure]int64{
		bench.HList: 1000, bench.HMList: 1000, bench.HHSList: 1000,
		bench.HashMap: 10000, bench.SkipList: 10000, bench.NMTree: 10000,
	}
	large := map[bench.Structure]int64{
		bench.HList: 10000, bench.HMList: 10000, bench.HHSList: 10000,
		bench.HashMap: 100000, bench.SkipList: 100000, bench.NMTree: 100000,
	}
	for name, kr := range map[string]map[bench.Structure]int64{"small key ranges (B.1)": small, "large key ranges (B.2)": large} {
		fmt.Println("Appendix B grid,", name)
		for _, mix := range bench.Mixes {
			for _, st := range bench.Structures {
				if mix.Name == "read-only" && (st == bench.HList || st == bench.HMList) {
					continue // the paper's read-only row uses HHSList for lists
				}
				fmt.Printf("%s / %s / key range %d\n", st, mix.Name, kr[st])
				sweepThreads(st, kr[st], mix)
			}
		}
	}
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

func runTable2() {
	lr, err := parseLeakRate(*leakRate)
	if err != nil {
		fatalArg(err)
	}
	fmt.Println("Table 2: robustness — peak unreclaimed blocks with one thread")
	fmt.Printf("stalled inside the scheme's read-side protection (%s of churn)\n", *duration)
	if lr > 0 {
		fmt.Printf("leak rate %.2f: that fraction of writers die without unregistering (reaper: %v)\n", lr, *reaper)
	}
	header := row{"scheme", "peak unreclaimed", "retired", "bound (2GN+GN²+H)", "signals", "robust?"}
	if lr > 0 {
		header = append(header, "reaped", "stuck")
	}
	var rows []row
	for _, s := range schemeFilter() {
		var cfg hpbrcu.Config
		if *reaper && s == hpbrcu.HPBRCU {
			// Aggressive timings so abandoned handles are reaped within a
			// sub-second benchmark run, not after a production-scale lease.
			cfg.Reaper = hpbrcu.ReaperConfig{
				Enabled:      true,
				LeaseTimeout: 25 * time.Millisecond,
				Interval:     2 * time.Millisecond,
			}
		}
		res := bench.RunStalled(bench.StallConfig{
			Scheme: s, Writers: 2, KeyRange: 256, Duration: *duration,
			Config: cfg, LeakRate: lr,
		})
		bound := "-"
		if res.Bound >= 0 {
			bound = strconv.FormatInt(res.Bound, 10)
		}
		robust := "no (unbounded)"
		if s.Robust() {
			robust = "yes (bounded)"
		}
		r := row{
			s.String(),
			strconv.FormatInt(res.PeakUnreclaimed, 10),
			strconv.FormatInt(res.Retired, 10),
			bound,
			strconv.FormatInt(res.Signals, 10),
			robust,
		}
		if lr > 0 {
			r = append(r, strconv.FormatInt(res.Reaped, 10), strconv.FormatInt(res.Unreclaimed, 10))
		}
		rows = append(rows, r)
	}
	emit(header, rows)
}

func runAblation() {
	// The checkpoint distance and the neutralization budget only matter
	// under long traversals racing heavy reclamation (the Figure 1/6
	// workload); short mixed workloads never lag the epoch.
	fmt.Println("Ablation: BackupPeriod (HP-BRCU, long scans over 2^13 keys)")
	{
		header := row{"backup-period", "scans/s", "peak", "signals", "rollbacks"}
		var rows []row
		for _, bp := range []int{4, 16, 64, 256, 1024} {
			res := bench.RunLongScan(bench.LongScanConfig{
				Structure: bench.HHSList, Scheme: hpbrcu.HPBRCU,
				Readers: 2, Writers: 2, KeyRange: 1 << 13, Duration: *duration,
				Config: hpbrcu.Config{BackupPeriod: bp},
			})
			rows = append(rows, row{strconv.Itoa(bp), fmt.Sprintf("%.1f", res.ReadThroughput()),
				strconv.FormatInt(res.PeakUnreclaimed, 10),
				strconv.FormatInt(res.Signals, 10), strconv.FormatInt(res.Rollbacks, 10)})
		}
		emit(header, rows)
	}
	fmt.Println("Ablation: ForceThreshold (HP-BRCU, long scans over 2^13 keys)")
	{
		header := row{"force-threshold", "scans/s", "peak", "signals", "rollbacks"}
		var rows []row
		for _, ft := range []int{1, 2, 8, 64} {
			res := bench.RunLongScan(bench.LongScanConfig{
				Structure: bench.HHSList, Scheme: hpbrcu.HPBRCU,
				Readers: 2, Writers: 2, KeyRange: 1 << 13, Duration: *duration,
				Config: hpbrcu.Config{ForceThreshold: ft},
			})
			rows = append(rows, row{strconv.Itoa(ft), fmt.Sprintf("%.1f", res.ReadThroughput()),
				strconv.FormatInt(res.PeakUnreclaimed, 10),
				strconv.FormatInt(res.Signals, 10), strconv.FormatInt(res.Rollbacks, 10)})
		}
		emit(header, rows)
	}
	fmt.Println("Ablation: BatchSize (NBR vs HP-BRCU, HHSList 1K, write-only)")
	{
		header := row{"batch", "NBR Mop/s", "NBR peak", "HP-BRCU Mop/s", "HP-BRCU peak"}
		var rows []row
		for _, b := range []int{32, 128, 1024, 8192} {
			n := bench.RunMixed(bench.MixedConfig{
				Structure: bench.HHSList, Scheme: hpbrcu.NBR,
				Threads: threadCounts()[len(threadCounts())-1], KeyRange: 1000,
				Mix: bench.WriteOnly, Duration: *duration,
				Config: hpbrcu.Config{BatchSize: b},
			})
			h := bench.RunMixed(bench.MixedConfig{
				Structure: bench.HHSList, Scheme: hpbrcu.HPBRCU,
				Threads: threadCounts()[len(threadCounts())-1], KeyRange: 1000,
				Mix: bench.WriteOnly, Duration: *duration,
				Config: hpbrcu.Config{BatchSize: b},
			})
			rows = append(rows, row{strconv.Itoa(b),
				fmt.Sprintf("%.3f", n.MTput()), strconv.FormatInt(n.PeakUnreclaimed, 10),
				fmt.Sprintf("%.3f", h.MTput()), strconv.FormatInt(h.PeakUnreclaimed, 10)})
		}
		emit(header, rows)
	}
}
