// Command pcc-cached is the shared persistent-cache daemon: it serves one
// cache database (internal/core) to many concurrently running VM processes
// over the internal/cacheserver wire protocol, so translations published by
// one process are reusable by every other — across executions and across
// applications.
//
// Usage:
//
//	pcc-cached -dir DB [-listen 127.0.0.1:7433] [-reloc] [-v]
//	pcc-cached -dir DB -listen unix:/tmp/pcc.sock
//	pcc-cached -dir DB -metrics-addr 127.0.0.1:9100   # /metrics + /healthz
//
// Clients point pcc-run (or the persistcc façade) at the same address with
// -cache-server, a fleet of one; they fall back to their local database if
// this daemon is unreachable, so it can be restarted at any time.
//
// A fleet (internal/cacheserver/fleet) is several daemons, each started
// with its own -listen address, and a membership file that only the
// clients read (pcc-run -fleet-config, pcc-cachectl -fleet). All fleet
// logic lives in the client: key routing, replication and fleet-wide
// STATS. A daemon never connects to another one; its database holds
// exactly what the consistent-hash ring assigns it, and STATS reports
// that database alone.
//
// With -metrics-addr, an HTTP listener additionally exposes the daemon's
// metrics registry in the Prometheus text format at /metrics and a JSON
// liveness probe at /healthz. The same families are available over the wire
// protocol's METRICS op (pcc-cachectl -server ADDR metrics).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
	"persistcc/internal/metrics"
)

func main() {
	dir := flag.String("dir", "", "cache database directory to serve (required)")
	listen := flag.String("listen", "127.0.0.1:7433", `listen address: "host:port" or "unix:/path.sock"`)
	reloc := flag.Bool("reloc", false, "enable relocatable translations when merging")
	metricsAddr := flag.String("metrics-addr", "", `HTTP address serving /metrics and /healthz (e.g. "127.0.0.1:9100"; empty disables)`)
	idle := flag.Duration("idle-timeout", 5*time.Minute, "disconnect clients idle this long (0 = never)")
	grace := flag.Duration("grace", 5*time.Second, "graceful-shutdown drain window for in-flight requests")
	verbose := flag.Bool("v", false, "log every publish")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "usage: pcc-cached -dir DB [-listen ADDR]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// One registry spans the manager and the server, so /metrics exports
	// the daemon's full view: request counters next to database totals.
	reg := metrics.NewRegistry()
	mopts := []core.ManagerOption{core.WithMetrics(reg)}
	if *reloc {
		mopts = append(mopts, core.WithRelocatable())
	}
	mgr, err := core.NewManager(*dir, mopts...)
	if err != nil {
		fatal(err)
	}
	sopts := []cacheserver.Option{cacheserver.WithMetrics(reg)}
	if *idle > 0 {
		sopts = append(sopts, cacheserver.WithIdleTimeout(*idle))
	}
	if *verbose {
		sopts = append(sopts, cacheserver.WithLog(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}))
	}
	srv, err := cacheserver.New(mgr, sopts...)
	if err != nil {
		fatal(err)
	}
	ln, err := cacheserver.Listen(*listen)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pcc-cached: serving %s on %s\n", *dir, ln.Addr())

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		mux := http.NewServeMux()
		metricsHandler := metrics.Handler(reg)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			mgr.Stats() // refresh the database gauges before snapshotting
			metricsHandler.ServeHTTP(w, r)
		})
		mux.Handle("/healthz", metrics.HealthHandler(*dir))
		go func() {
			if err := http.Serve(mln, mux); err != nil {
				fmt.Fprintln(os.Stderr, "pcc-cached: metrics listener:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pcc-cached: metrics on http://%s/metrics\n", mln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		// First signal: drain — finish in-flight publishes, refuse new work.
		fmt.Fprintf(os.Stderr, "pcc-cached: draining (grace %s; signal again to force)\n", *grace)
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "pcc-cached: forced shutdown")
			srv.Close()
		}()
		srv.Shutdown(*grace)
	}()
	if err := srv.Serve(ln); err != nil && err != cacheserver.ErrServerClosed {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcc-cached:", err)
	os.Exit(1)
}
