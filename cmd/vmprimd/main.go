// Command vmprimd serves the simulator as a long-lived observability
// plane: an HTTP+JSON API over a pool of persistent machines and an
// in-memory run registry (see internal/serve and the README's
// "Running vmprimd" section).
//
// Usage:
//
//	vmprimd                          serve on 127.0.0.1:7790
//	vmprimd -addr :0 -addr-file a.txt
//	                                 pick a free port and write the
//	                                 bound address to a.txt (for
//	                                 scripts that need to find it)
//	vmprimd -workers 4 -retain 512   bigger executor pool and backlog
//	vmprimd -debug-addr 127.0.0.1:6060
//	                                 also serve net/http/pprof on its
//	                                 own listener (off by default)
//
// API sketch (all JSON unless noted):
//
//	POST /runs                 submit {"exp":"E1","d":4,"n":64} -> 202 + run id
//	GET  /runs                 list retained runs
//	GET  /runs/{id}            run status
//	GET  /runs/{id}/wait       block until the run finishes
//	GET  /runs/{id}/profile    span-tree profile document
//	GET  /runs/{id}/trace      Chrome trace (load in Perfetto)
//	GET  /runs/{id}/critpath   critical-path document
//	GET  /runs/{id}/metrics    per-run metrics (?format=prom for text)
//	GET  /runs/{id}/postmortem flight-recorder report of a failed run
//	GET  /runs/{id}/events     live span/progress/congestion SSE stream
//	GET  /metrics              Prometheus exposition, serving + simulated
//	GET  /healthz              liveness
//
// The server shuts down cleanly on SIGINT/SIGTERM: it stops
// accepting, drains queued runs and retires the pooled machines.
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
	"syscall"
	"time"

	"vmprim/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7790", "listen address (host:port; port 0 picks a free one)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file once serving")
	workers := flag.Int("workers", 2, "executor worker goroutines")
	queueDepth := flag.Int("queue", 1024, "submission queue depth (full queue answers 503)")
	retain := flag.Int("retain", 256, "finished runs kept addressable before eviction")
	poolCap := flag.Int("pool", 4, "idle machines retained in the pool")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof under /debug/pprof/ on this address, apart from the API (empty: off)")
	flag.Parse()

	if err := run(*addr, *addrFile, *debugAddr, serve.Options{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		RetainRuns:   *retain,
		PoolMachines: *poolCap,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "vmprimd: %v\n", err)
		os.Exit(1)
	}
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so slow-header clients cannot hold connections
// open indefinitely. Bodies are bounded by the handlers themselves,
// and /events streams are long-lived by design, so no read or write
// timeout is set.
const readHeaderTimeout = 10 * time.Second

func run(addr, addrFile, debugAddr string, opts serve.Options) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			ln.Close()
			return err
		}
		debugSrv := &http.Server{Handler: serve.DebugHandler(), ReadHeaderTimeout: readHeaderTimeout}
		// Serve returns when the deferred Close below closes the
		// listener; its error is then ErrServerClosed, dropped.
		go func() { _ = debugSrv.Serve(dln) }()
		defer debugSrv.Close()
		fmt.Fprintf(os.Stderr, "vmprimd: pprof on http://%s/debug/pprof/\n", dln.Addr())
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}

	srv := serve.New(opts)
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errCh := make(chan error, 1)
	// Serve returns when Close or Shutdown below closes the listener,
	// and errCh is buffered so the send never blocks.
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "vmprimd: serving on http://%s (workers %d, retain %d, pool %d)\n",
		bound, opts.Workers, opts.RetainRuns, opts.PoolMachines)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		srv.Close()
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "vmprimd: %v, shutting down\n", s)
	}

	// Stop accepting and let in-flight requests finish, then drain the
	// executor queue and retire the machines.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(ctx)
	srv.Close()
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "vmprimd: clean shutdown")
	return shutdownErr
}
