// Command smrcached is the overload-robust TCP cache service built on
// the hpbrcu handle-free facade (internal/server): a line-protocol
// GET/SET/DEL/SCAN/STATS cache whose load shedding is driven end-to-end
// by the library's backpressure ladder and handle pool. See DESIGN.md
// §14 and the "Running smrcached" section of the README.
//
// Two modes:
//
//	smrcached [flags]              serve until SIGTERM/SIGINT, then
//	                               drain gracefully and dump final STATS
//	                               to stdout (exit 0 on a clean drain);
//	smrcached load [flags]         run the open-loop load generator
//	                               (internal/server/loadgen) against a
//	                               running instance and print the result.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	hpbrcu "github.com/smrgo/hpbrcu"
	"github.com/smrgo/hpbrcu/internal/obs"
	"github.com/smrgo/hpbrcu/internal/server"
	"github.com/smrgo/hpbrcu/internal/server/loadgen"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "load" {
		os.Exit(runLoad(os.Args[2:]))
	}
	os.Exit(runServe(os.Args[1:]))
}

// schemeByName resolves a scheme flag value case-insensitively.
func schemeByName(name string) (hpbrcu.Scheme, error) {
	for _, sc := range hpbrcu.Schemes {
		if strings.EqualFold(sc.String(), name) {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", name)
}

func runServe(args []string) int {
	fs := flag.NewFlagSet("smrcached", flag.ExitOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:7070", "listen address (use :0 for an ephemeral port; the resolved address is announced on stderr)")
		scheme       = fs.String("scheme", "HP-BRCU", "reclamation scheme protecting the store (HP-BRCU recommended: backpressure and the reaper need its domain)")
		buckets      = fs.Int("buckets", 1024, "hash buckets of the store")
		ceiling      = fs.Int64("ceiling", 0, "absolute unreclaimed-node budget for the backpressure ladder (0 keeps the §5 bound as the base)")
		drainFrac    = fs.Float64("drain-fraction", 0, "inline-drain tier as a fraction of the base (0 keeps the default 0.5; above 1 disables inline drains so the ladder is exercised)")
		pool         = fs.Int("pool", 0, "handle pool size (0 selects the library default, 4×GOMAXPROCS)")
		maxConns     = fs.Int("max-conns", 256, "connection cap; accepts past it are refused with -BUSY")
		maxInflight  = fs.Int("max-inflight", 128, "concurrent request cap across all connections")
		readTimeout  = fs.Duration("read-timeout", 30*time.Second, "per-request read deadline")
		writeTimeout = fs.Duration("write-timeout", 5*time.Second, "per-reply write deadline")
		retryAfter   = fs.Duration("retry-after", 10*time.Millisecond, "delay advertised in -BUSY replies")
		drainTimeout = fs.Duration("drain-timeout", 5*time.Second, "graceful drain budget on SIGTERM/SIGINT")
		metricsAddr  = fs.String("metrics", "", "serve live metrics on this address (same endpoints as smrbench -metrics)")
	)
	fs.Parse(args)

	sc, err := schemeByName(*scheme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smrcached: %v\n", err)
		return 2
	}

	// The exporter's collector must be active before the map exists so
	// every handle the pool registers gets a trace ring.
	var col *obs.Collector
	if *metricsAddr != "" {
		col = obs.NewCollector(obs.DefaultRingSize)
		obs.Activate(col)
	}

	m, err := hpbrcu.NewHashMap(sc, *buckets, hpbrcu.Config{
		// PanicRecover keeps a poisoned request from killing the process:
		// the recover barrier converts the panic to an error on that one
		// operation, and the server maps it to a -ERR on that one
		// connection.
		PanicPolicy:  hpbrcu.PanicRecover,
		Pool:         hpbrcu.PoolConfig{Size: *pool},
		Reaper:       hpbrcu.ReaperConfig{Enabled: true},
		Backpressure: hpbrcu.BackpressureConfig{Enabled: true, Ceiling: *ceiling, DrainFraction: *drainFrac},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "smrcached: %v\n", err)
		return 2
	}

	srv, err := server.New(server.Config{
		Map:          m,
		MaxConns:     *maxConns,
		MaxInflight:  *maxInflight,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		RetryAfter:   *retryAfter,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "smrcached: %v\n", err)
		return 2
	}

	if col != nil {
		col.SetRun("smrcached", m.Stats())
		maddr, merr := obs.StartExporter(col, *metricsAddr, obs.ExporterConfig{
			Extra: func() map[string]any { return map[string]any{"Server": srv.ServiceStats()} },
		})
		if merr != nil {
			fmt.Fprintf(os.Stderr, "smrcached: metrics: %v\n", merr)
			return 2
		}
		fmt.Fprintf(os.Stderr, "metrics: listening on http://%s (/metrics, /trace, /debug/vars, /debug/pprof)\n", maddr)
	}

	laddr, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smrcached: %v\n", err)
		return 2
	}
	// The announce line is how scripts (and the CI smoke job) discover
	// an ephemeral :0 port; keep its shape stable.
	fmt.Fprintf(os.Stderr, "smrcached: listening on %s (scheme=%s ceiling=%d)\n", laddr, sc, *ceiling)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	fmt.Fprintf(os.Stderr, "smrcached: %v: draining (budget %v)\n", sig, *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	derr := srv.Shutdown(ctx)

	// The final STATS dump goes to stdout — the drain's balanced books,
	// every ladder counter, and the drain duration, greppable by CI.
	for _, row := range srv.StatsLines() {
		fmt.Println(row)
	}
	if derr != nil {
		fmt.Fprintf(os.Stderr, "smrcached: drain: %v\n", derr)
		return 1
	}
	fmt.Fprintln(os.Stderr, "smrcached: drained cleanly")
	return 0
}

func runLoad(args []string) int {
	fs := flag.NewFlagSet("smrcached load", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7070", "server address")
		rate     = fs.Int("rate", 1000, "offered load, requests/second (open loop)")
		conns    = fs.Int("conns", 4, "worker connections")
		duration = fs.Duration("duration", time.Second, "run length")
		keys     = fs.Int64("keys", 1024, "key-space size (zipf-distributed hot set)")
		setFrac  = fs.Float64("set-frac", 0.2, "fraction of SETs")
		delFrac  = fs.Float64("del-frac", 0.05, "fraction of DELs")
		scanFrac = fs.Float64("scan-frac", 0.05, "fraction of SCANs")
		churn    = fs.Duration("churn", 0, "connection lifetime (0 disables reconnect churn)")
		slowFrac = fs.Float64("slow-frac", 0, "fraction of workers reading replies pathologically slowly")
		dropFrac = fs.Float64("drop-frac", 0, "per-request probability of a mid-request disconnect")
		retries  = fs.Int("retries", 3, "max -BUSY retries per request")
		seed     = fs.Int64("seed", 1, "schedule seed")
	)
	fs.Parse(args)

	res, err := loadgen.Run(loadgen.Config{
		Addr:       *addr,
		Rate:       *rate,
		Conns:      *conns,
		Duration:   *duration,
		Keys:       *keys,
		SetFrac:    *setFrac,
		DelFrac:    *delFrac,
		ScanFrac:   *scanFrac,
		Churn:      *churn,
		SlowFrac:   *slowFrac,
		DropFrac:   *dropFrac,
		MaxRetries: *retries,
		Seed:       *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "smrcached load: %v\n", err)
		return 2
	}
	fmt.Println(res)
	if res.OK+res.Miss == 0 {
		fmt.Fprintln(os.Stderr, "smrcached load: no request ever completed")
		return 1
	}
	return 0
}
