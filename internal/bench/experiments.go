package bench

// The registry of experiments: every figure and table of the paper's
// evaluation is declared here, once, as the list of points it measures —
// workload name, scheme, how to run it — and the columns it reports.
// Every sweep value (key-range exponents, thread counts, each figure
// panel's structure × key range × mix, the ablation grids) is written in
// this file and nowhere else: experiments.json only names which entries
// `smrbench grid` baselines, and the command line can narrow or widen a
// sweep (Sweep) but carries no defaults of its own.
//
// Sweeps are pinned, not scaled to GOMAXPROCS, so a (workload, scheme)
// key means the same point on every machine and the committed
// BENCH_<name>.json stay comparable by key.

import (
	"fmt"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// Point is one (workload, scheme) cell of an experiment and the way to
// measure it once. Enumerating points runs nothing.
type Point struct {
	Workload string
	Scheme   hpbrcu.Scheme
	Run      func(d time.Duration, seed uint64) Measurement
}

// Column is one value an experiment reports per point next to ops/s.
type Column struct {
	Name string
	// Prec is the number of decimals tables print.
	Prec int
	// of extracts the value from one run; ok=false when the point has
	// none (a scheme without a §5 bound), which leaves the cell out
	// instead of filling it with a sentinel.
	of func(Measurement) (v float64, ok bool)
	// agg folds a point's repeats. Worst-case claims (the peak, the
	// bound) aggregate pessimistically so no repeat's violation is
	// averaged away; everything else is a mean.
	agg func(PointStats) float64
}

func mean(st PointStats) float64  { return st.Mean }
func worst(st PointStats) float64 { return st.Max }
func least(st PointStats) float64 { return st.Min }

func count(name string, agg func(PointStats) float64, f func(Measurement) int64) Column {
	return Column{Name: name, agg: agg, of: func(m Measurement) (float64, bool) { return float64(f(m)), true }}
}

// The columns. An experiment declares the ones that can show something
// on its workload; Validate fails a run in which a declared column is
// zero on every point.
var (
	colPeak      = count("peak_unreclaimed", worst, func(m Measurement) int64 { return m.PeakUnreclaimed })
	colRetired   = count("retired", mean, func(m Measurement) int64 { return m.Retired })
	colSignals   = count("signals", mean, func(m Measurement) int64 { return m.Signals })
	colRollbacks = count("rollbacks", mean, func(m Measurement) int64 { return m.Rollbacks })
	colReaped    = count("reaped", mean, func(m Measurement) int64 { return m.Reaped })
	colStuck     = count("stuck", worst, func(m Measurement) int64 { return m.Unreclaimed })
	colBound     = Column{Name: "bound", agg: least, of: func(m Measurement) (float64, bool) {
		return float64(m.Bound), m.Bound >= 0
	}}
	colAllocs = Column{Name: "allocs_per_op", Prec: 3, agg: mean, of: func(m Measurement) (float64, bool) {
		return m.AllocsPerOp, true
	}}
	colGC = Column{Name: "gc_cpu_frac", Prec: 4, agg: mean, of: func(m Measurement) (float64, bool) {
		return m.GCCPUFrac, true
	}}

	allColumns = []Column{colPeak, colRetired, colSignals, colRollbacks, colReaped, colStuck, colBound, colAllocs, colGC}
)

// Sweep is what the command line may change about a declared sweep. The
// zero Sweep is the declaration itself — what the committed baselines
// measure.
type Sweep struct {
	Schemes []hpbrcu.Scheme // nil: every scheme the structure supports
	Threads []int           // nil: the declared thread counts (mixed workloads)
	Exps    []int           // nil: the declared key-range exponents (long scans)
	// LeakRate turns table2 into the goroutine-death experiment: that
	// fraction of writers drops its handle without unregistering, and
	// HP-RCU and HP-BRCU adopt the dropped handles.
	LeakRate float64
}

func (sw Sweep) schemes() []hpbrcu.Scheme {
	if sw.Schemes == nil {
		return hpbrcu.Schemes
	}
	return sw.Schemes
}

func (sw Sweep) threads() []int {
	if sw.Threads == nil {
		return []int{mixedThreads}
	}
	return sw.Threads
}

// Experiment is one registry entry.
type Experiment struct {
	Name  string
	Title string
	plan  func(Sweep) ([]Column, []Point)
}

// Points enumerates the experiment's points under sw without running
// anything.
func (e *Experiment) Points(sw Sweep) []Point {
	_, pts := e.plan(sw)
	return pts
}

// The pinned worker counts. Four workers on a mixed point, two readers
// against two head-churning writers on a long scan, two writers around
// the stalled thread.
const (
	mixedThreads    = 4
	longScanReaders = 2
	longScanWriters = 2
	stallWriters    = 2
	stallKeyRange   = 256
)

// mixedPanel is one panel of a mixed-workload figure.
type mixedPanel struct {
	st       Structure
	keyRange int64
	mix      Mix
}

// The paper's 100K key ranges are scaled to 10K (and its 1K kept) so a
// point prefills in milliseconds on a small host.
var (
	fig5Panels = []mixedPanel{
		{st: HHSList, keyRange: 1000, mix: ReadOnly},
		{st: HashMap, keyRange: 10000, mix: ReadOnly},
	}
	fig7Panels = []mixedPanel{
		{st: HList, keyRange: 1000, mix: WriteOnly},
		{st: HashMap, keyRange: 10000, mix: WriteOnly},
		{st: NMTree, keyRange: 10000, mix: ReadWrite},
		{st: SkipList, keyRange: 10000, mix: ReadWrite},
	}
)

// appendixBPanels is the appendix grid: 4 mixes × 6 structures × a small
// (B.1) and a large (B.2) key range.
func appendixBPanels() []mixedPanel {
	var panels []mixedPanel
	for _, scale := range []int64{1, 10} {
		for _, mix := range Mixes {
			for _, st := range Structures {
				if mix == ReadOnly && (st == HList || st == HMList) {
					continue // the paper's read-only row uses HHSList for lists
				}
				kr := int64(1000)
				if st == HashMap || st == SkipList || st == NMTree {
					kr = 10000
				}
				panels = append(panels, mixedPanel{st: st, keyRange: kr * scale, mix: mix})
			}
		}
	}
	return panels
}

// mixedPoint is the one way a mixed-workload point is named and run.
func mixedPoint(prefix string, st Structure, s hpbrcu.Scheme, threads int, keyRange int64, mix Mix, cfg hpbrcu.Config) Point {
	return Point{
		Workload: fmt.Sprintf("%s%s/%s/keys=%d/threads=%d", prefix, st, mix.Name, keyRange, threads),
		Scheme:   s,
		Run: func(d time.Duration, seed uint64) Measurement {
			return RunMixed(MixedConfig{
				Structure: st, Scheme: s, Threads: threads, KeyRange: keyRange,
				Mix: mix, Duration: d, Seed: seed, Config: cfg,
			})
		},
	}
}

func mixedPoints(panels []mixedPanel, sw Sweep) []Point {
	var pts []Point
	for _, panel := range panels {
		for _, t := range sw.threads() {
			for _, s := range sw.schemes() {
				if Supported(panel.st, s) {
					pts = append(pts, mixedPoint("", panel.st, s, t, panel.keyRange, panel.mix, hpbrcu.Config{}))
				}
			}
		}
	}
	return pts
}

// longScanPoint is the one way a long-scan point is named and run: the
// list holds 2^exp/2 keys, so a read visits 2^exp/4 nodes on average.
func longScanPoint(prefix string, s hpbrcu.Scheme, exp int, cfg hpbrcu.Config) Point {
	return Point{
		Workload: fmt.Sprintf("%skeys=2^%02d", prefix, exp),
		Scheme:   s,
		Run: func(d time.Duration, seed uint64) Measurement {
			return RunLongScan(LongScanConfig{
				Structure: LongScanStructureFor(s), Scheme: s,
				Readers: longScanReaders, Writers: longScanWriters,
				KeyRange: 1 << exp, Duration: d, Seed: seed, Config: cfg,
			})
		},
	}
}

func longScanPlan(exps ...int) func(Sweep) ([]Column, []Point) {
	return func(sw Sweep) ([]Column, []Point) {
		sweep := exps
		if sw.Exps != nil {
			sweep = sw.Exps
		}
		var pts []Point
		for _, e := range sweep {
			for _, s := range sw.schemes() {
				pts = append(pts, longScanPoint("", s, e, hpbrcu.Config{}))
			}
		}
		return []Column{colPeak, colRollbacks}, pts
	}
}

// ablationPlan sweeps the three design constants DESIGN.md §5 argues for.
// The checkpoint distance and the neutralization budget only matter under
// long traversals racing heavy reclamation (the Figure 1/6 workload at
// 2^13 keys); the batch size is NBR's memory-for-signals trade, so it is
// swept on both NBR and HP-BRCU over the write-only list.
func ablationPlan(sw Sweep) ([]Column, []Point) {
	var pts []Point
	for _, bp := range []int{4, 16, 64, 256, 1024} {
		pts = append(pts, longScanPoint(fmt.Sprintf("backup-period=%04d/", bp), hpbrcu.HPBRCU, 13, hpbrcu.Config{BackupPeriod: bp}))
	}
	for _, ft := range []int{1, 2, 8, 64} {
		pts = append(pts, longScanPoint(fmt.Sprintf("force-threshold=%02d/", ft), hpbrcu.HPBRCU, 13, hpbrcu.Config{ForceThreshold: ft}))
	}
	for _, b := range []int{32, 128, 1024, 8192} {
		for _, s := range []hpbrcu.Scheme{hpbrcu.NBR, hpbrcu.HPBRCU} {
			for _, t := range sw.threads() {
				pts = append(pts, mixedPoint(fmt.Sprintf("batch=%04d/", b), HHSList, s, t, 1000, WriteOnly, hpbrcu.Config{BatchSize: b}))
			}
		}
	}
	return []Column{colPeak, colSignals, colRollbacks}, pts
}

// table2Plan is the stalled-thread experiment, one row per scheme.
func table2Plan(sw Sweep) ([]Column, []Point) {
	cols := []Column{colPeak, colBound, colRetired, colSignals}
	workload := fmt.Sprintf("stall/writers=%d/keys=%d", stallWriters, stallKeyRange)
	if sw.LeakRate > 0 {
		cols = append(cols, colReaped, colStuck)
		workload += fmt.Sprintf("/leak=%.2f", sw.LeakRate)
	}
	var pts []Point
	for _, s := range sw.schemes() {
		pts = append(pts, Point{Workload: workload, Scheme: s, Run: func(d time.Duration, seed uint64) Measurement {
			return RunStalled(StallConfig{
				Scheme: s, Writers: stallWriters, KeyRange: stallKeyRange,
				Duration: d, Seed: seed, LeakRate: sw.LeakRate,
			})
		}})
	}
	return cols, pts
}

func mixedPlan(panels []mixedPanel, cols ...Column) func(Sweep) ([]Column, []Point) {
	return func(sw Sweep) ([]Column, []Point) { return cols, mixedPoints(panels, sw) }
}

// Experiments is the registry, in the paper's order. ops/s is a read
// scan on the long-scan experiments, any operation on the mixed ones and
// a writer operation on table2.
var Experiments = []*Experiment{
	{Name: "fig1", Title: "Figure 1: long-running reads under head churn, by list length (2 readers, 2 writers; ops = completed reads)",
		plan: longScanPlan(8, 9, 10, 11, 12, 13)},
	{Name: "fig5", Title: "Figure 5: read-only throughput — (a) HHSList 1K keys, (b) HashMap 10K keys",
		plan: mixedPlan(fig5Panels)},
	{Name: "fig6", Title: "Figure 6 / B.3: long-running reads vs key range (2 readers, 2 writers; ops = completed reads)",
		plan: longScanPlan(8, 9, 10, 11, 12, 13, 14, 15)},
	{Name: "fig7", Title: "Figure 7: write-heavy and mixed throughput and memory — (a) HList, (b) HashMap write-only; (c) NMTree, (d) SkipList read-write",
		plan: mixedPlan(fig7Panels, colPeak, colAllocs, colGC)},
	{Name: "table2", Title: "Table 2: robustness — one thread stalled inside the scheme's read-side protection while writers churn (ops = writer operations)",
		plan: table2Plan},
	{Name: "ablation", Title: "Ablation: BackupPeriod and ForceThreshold (HP-BRCU, long scans over 2^13 keys), BatchSize (NBR vs HP-BRCU, HHSList 1K write-only)",
		plan: ablationPlan},
	{Name: "appendixB", Title: "Appendix B: 4 mixes × 6 structures × small (B.1) and large (B.2) key ranges",
		plan: mixedPlan(appendixBPanels(), colPeak)},
}

// ExperimentNames returns the registered names in registry order.
func ExperimentNames() []string {
	out := make([]string, len(Experiments))
	for i, e := range Experiments {
		out[i] = e.Name
	}
	return out
}

// Lookup resolves a registered experiment by name.
func Lookup(name string) (*Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return nil, false
}
