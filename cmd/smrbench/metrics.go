package main

// The live observability endpoints of smrbench: with -metrics (and/or
// -watch) the internal/obs layer is switched on for the whole process,
// every measurement registers itself as the "current run", and the
// shared exporter (obs.StartExporter — the same one cmd/smrcached uses)
// serves
//
//   - /debug/vars (expvar) exposes the current run's stats.Snapshot —
//     counters and the HDR histogram summaries — under the "smr" key;
//   - /metrics serves the same snapshot as plain JSON;
//   - /trace dumps the merged tail of every handle's event ring;
//   - /debug/pprof is wired (net/http/pprof), and worker goroutines carry
//     pprof labels (smr.scheme, smr.structure, smr.role) so profiles can
//     be sliced per scheme;
//   - -watch prints a one-line digest to stderr at the given interval.

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/smrgo/hpbrcu/internal/obs"
)

var (
	metricsAddr = flag.String("metrics", "", "serve live metrics on this address (expvar on /debug/vars, JSON on /metrics, traces on /trace, pprof on /debug/pprof); e.g. 127.0.0.1:8080, or :0 for an ephemeral port")
	watchEvery  = flag.Duration("watch", 0, "print a live stats line to stderr at this interval")
)

// startObservability enables the obs layer when -metrics or -watch asks
// for it. It must run before any experiment goroutine starts (the obs
// gate may not change while instrumented code is running).
func startObservability() {
	if *metricsAddr == "" && *watchEvery <= 0 {
		return
	}
	col := obs.NewCollector(obs.DefaultRingSize)
	obs.Activate(col)

	if *metricsAddr != "" {
		addr, err := obs.StartExporter(col, *metricsAddr, obs.ExporterConfig{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			os.Exit(2)
		}
		// The resolved address line lets scripts (and the CI smoke job)
		// discover an ephemeral :0 port.
		fmt.Fprintf(os.Stderr, "metrics: listening on http://%s (/metrics, /trace, /debug/vars, /debug/pprof)\n", addr)
	}

	if *watchEvery > 0 {
		go watchLoop(col, *watchEvery)
	}
}

// watchLoop prints a periodic digest of the current run: the paper's
// memory metric (unreclaimed and its peak), epoch health (advances,
// lag), signalling pressure, and the latency digests.
func watchLoop(col *obs.Collector, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for range t.C {
		label, rec := col.Run()
		if rec == nil {
			continue
		}
		s := rec.Snapshot()
		fmt.Fprintf(os.Stderr,
			"watch: %s retired=%d reclaimed=%d unreclaimed=%d peak=%d adv=%d forced=%d sig=%d rb=%d lag(p99)=%d grace(p99)=%v age(p99)=%v\n",
			label, s.Retired, s.Reclaimed, s.Unreclaimed, s.PeakUnreclaimed,
			s.EpochAdvances, s.ForcedAdvances, s.Signals, s.Rollbacks,
			s.PollLag.P99,
			time.Duration(s.GraceNanos.P99),
			time.Duration(s.ReclaimAgeNanos.P99))
	}
}
