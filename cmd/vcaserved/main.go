// Command vcaserved runs the simulation sweep service: a long-running
// HTTP daemon that accepts config-space sweep jobs, executes them on
// the memoized simulator with per-tenant fair scheduling, and streams
// per-cell results (with the full event-counter map) as they land.
//
// Usage:
//
//	vcaserved                                  # serve on :8437, cache in .simcache
//	vcaserved -addr 127.0.0.1:0 -cachedir /var/cache/vca
//	vcaserved -workers 8 -queue 8192 -maxcells 2048 -jobtimeout 30m
//	vcaserved -route http://10.0.0.1:8437,http://10.0.0.2:8437
//
// With -route the daemon runs as a shard router instead of a worker:
// it serves the identical API, but dispatches each cell to the worker
// owning its cache key on a consistent-hash ring, so identical cells
// from any tenant hit the same worker's cache and singleflight table
// (internal/server/shard; topology runbook in docs/SERVICE.md).
//
// Endpoints (full reference with request/response schemas and curl
// examples in docs/SERVICE.md):
//
//	POST /v1/sweeps               submit a sweep (202 + job id)
//	GET  /v1/sweeps/{id}          poll status
//	GET  /v1/sweeps/{id}/results  stream NDJSON results as they land
//	GET  /healthz                 liveness
//	GET  /readyz                  readiness (503 while draining)
//	GET  /metrics                 Prometheus text format
//	GET  /metrics.json            raw metric samples (router scrape feed)
//	GET  /debug/pprof/            live profiling (only with -pprof)
//
// On SIGTERM or SIGINT the daemon drains gracefully: /readyz turns 503
// and new submissions are refused, while queued and running cells
// finish within -draintimeout; cells still running after that are
// abandoned and reported failed. A second signal exits immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vca/internal/server"
	"vca/internal/server/shard"
	"vca/internal/simcache"
)

var (
	flagAddr     = flag.String("addr", ":8437", "listen address (host:port; port 0 picks a free port and prints it)")
	flagCacheDir = flag.String("cachedir", ".simcache", "shared result-cache directory (content-addressed; safe to share with cmd/experiments)")
	flagNoCache  = flag.Bool("nocache", false, "serve without the shared result store: every cell simulates, singleflight dedup is disabled (testing only)")

	flagWorkers    = flag.Int("workers", 0, "cell-executing worker goroutines (0 = GOMAXPROCS)")
	flagQueue      = flag.Int("queue", 4096, "maximum queued cells across all tenants; submissions beyond it get HTTP 429")
	flagMaxCells   = flag.Int("maxcells", server.DefaultMaxCellsPerSweep, "maximum cells one sweep may expand to; larger submissions get HTTP 400")
	flagJobTimeout = flag.Duration("jobtimeout", 10*time.Minute, "default per-job wall-time budget (requests may override with timeout_sec)")

	flagRoute    = flag.String("route", "", "run as a shard router over this comma-separated worker URL list instead of executing cells locally")
	flagVNodes   = flag.Int("vnodes", 128, "router: virtual nodes per worker on the consistent-hash ring")
	flagInflight = flag.Int("inflight", 16, "router: concurrent cell dispatches per worker")

	flagStreamTimeout = flag.Duration("streamtimeout", time.Minute, "per-result write deadline on NDJSON result streams; a reader stalled longer loses its stream (negative disables)")
	flagPprof         = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (operator-only; see docs/SERVICE.md)")

	flagDrainTimeout = flag.Duration("draintimeout", 30*time.Second, "on SIGTERM/SIGINT, how long to let queued and running cells finish before abandoning them")
)

// service is what main needs from either role: a worker (server.New)
// and a router (shard.New, a server.Server that dispatches its cells to
// workers) serve the same API and drain the same way — one binary, two
// roles.
type service interface {
	Handler() http.Handler
	Drain(context.Context) error
}

// roleFlags are the flags only one role consults, each mapped to
// whether that role is the router. Passing one to the other role is a
// configuration error, not something to ignore: the router keeps the
// default queue bound and runs no simulations.
var roleFlags = map[string]bool{
	"cachedir": false, "nocache": false, "workers": false, "queue": false,
	"vnodes": true, "inflight": true,
}

func buildService() (service, error) {
	routed := *flagRoute != ""
	var bad []string
	flag.Visit(func(f *flag.Flag) {
		if router, ok := roleFlags[f.Name]; ok && router != routed {
			bad = append(bad, "-"+f.Name)
		}
	})
	switch {
	case len(bad) > 0 && routed:
		return nil, fmt.Errorf("%s do not apply with -route (cells execute on the workers)", strings.Join(bad, ", "))
	case len(bad) > 0:
		return nil, fmt.Errorf("%s only apply with -route", strings.Join(bad, ", "))
	}

	if !routed {
		var cache *simcache.Cache
		if !*flagNoCache {
			var err error
			cache, err = simcache.Open(*flagCacheDir)
			if err != nil {
				return nil, err
			}
		}
		return server.New(server.Options{
			Cache:              cache,
			Workers:            *flagWorkers,
			QueueLimit:         *flagQueue,
			MaxCellsPerSweep:   *flagMaxCells,
			JobTimeout:         *flagJobTimeout,
			StreamWriteTimeout: *flagStreamTimeout,
			EnablePprof:        *flagPprof,
		}), nil
	}

	return shard.New(shard.Options{
		Workers:            strings.Split(*flagRoute, ","),
		VNodes:             *flagVNodes,
		Inflight:           *flagInflight,
		MaxCellsPerSweep:   *flagMaxCells,
		JobTimeout:         *flagJobTimeout,
		StreamWriteTimeout: *flagStreamTimeout,
		EnablePprof:        *flagPprof,
	})
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"vcaserved — simulation sweep service (API reference and runbook: docs/SERVICE.md)\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "vcaserved: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	svc, err := buildService()
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *flagAddr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	// The smoke gate (internal/tools/shardsmoke) parses
	// this line to learn the bound port; keep the format stable.
	fmt.Printf("vcaserved: listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		fail(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "vcaserved: %v — draining (up to %v; signal again to exit now)\n", sig, *flagDrainTimeout)
	}

	// Second signal: abandon the drain.
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "vcaserved: second signal, exiting immediately")
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *flagDrainTimeout)
	defer cancel()
	drainErr := svc.Drain(ctx)
	httpSrv.Shutdown(ctx)
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "vcaserved: drain incomplete, in-flight cells abandoned: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "vcaserved: drained cleanly")
}

func fail(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "vcaserved:", err)
	os.Exit(1)
}
