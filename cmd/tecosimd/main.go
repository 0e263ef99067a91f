// Command tecosimd serves the experiment generators over HTTP/JSON with a
// content-addressed on-disk result cache, request coalescing, bounded
// admission, per-request deadlines and graceful SIGTERM drain. It is the
// long-running counterpart to the one-shot tecosim CLI: start it once over
// a cache directory and every repeated sweep request is a disk read.
//
//	tecosimd -addr :8723 -cache-dir /var/cache/teco
//	curl 'localhost:8723/run?id=table1&seed=42'
//
// Endpoints: /run (GET query or POST JSON), /experiments, /healthz,
// /statz. The -fault-* flags inject cache-layer disk faults (bit flips,
// truncations, short writes, transient errors) for chaos testing; they are
// never appropriate in real use.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"teco/internal/checkpoint"
	"teco/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tecosimd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", "127.0.0.1:8723", "listen address")
		cacheDir     = flag.String("cache-dir", "", "result cache directory (required)")
		cacheMax     = flag.Int64("cache-max-bytes", 0, "on-disk cache size bound; LRU results evicted past it (0: unbounded)")
		slots        = flag.Int("slots", 2, "concurrently executing computations")
		queue        = flag.Int("queue", 64, "cold requests allowed to wait for a slot before shedding")
		timeout      = flag.Duration("timeout", 2*time.Minute, "default per-request deadline")
		maxTimeout   = flag.Duration("max-timeout", 10*time.Minute, "cap on client-requested deadlines")
		workers      = flag.Int("workers", 0, "sweep pool size per computation (0: GOMAXPROCS)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight requests")

		faultSeed     = flag.Int64("fault-seed", 1, "chaos: fault-injection RNG seed")
		faultFlip     = flag.Int("fault-flip-every", 0, "chaos: flip one bit in every Nth committed cache entry")
		faultTrunc    = flag.Int("fault-trunc-every", 0, "chaos: truncate every Nth committed cache entry")
		faultShort    = flag.Int("fault-short-every", 0, "chaos: short-write every Nth cache write")
		faultWriteErr = flag.Int("fault-writeerr-every", 0, "chaos: fail every Nth cache write transiently")
		faultDelay    = flag.Duration("fault-delay", 0, "chaos: added latency per cache I/O")
	)
	flag.Parse()
	if *cacheDir == "" {
		return fmt.Errorf("-cache-dir is required")
	}

	var faults *checkpoint.Faults
	if *faultFlip > 0 || *faultTrunc > 0 || *faultShort > 0 || *faultWriteErr > 0 || *faultDelay > 0 {
		faults = checkpoint.NewFaults(*faultSeed)
		faults.FlipBitEvery = *faultFlip
		faults.TruncateEvery = *faultTrunc
		faults.ShortWriteEvery = *faultShort
		faults.WriteErrEvery = *faultWriteErr
		faults.Delay = *faultDelay
		fmt.Fprintln(os.Stderr, "tecosimd: CHAOS MODE: cache fault injection enabled")
	}

	srv, err := server.New(server.Config{
		CacheDir:       *cacheDir,
		CacheMaxBytes:  *cacheMax,
		Slots:          *slots,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Workers:        *workers,
		CacheFaults:    faults,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// A client that trickles its request ties up a connection at most this
	// long. net/http lifts the read deadline once the body is read, so a
	// request's own compute is bounded by -timeout, not by these
	// (TestReadTimeoutSparesLongRequest).
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second, ReadTimeout: time.Minute}

	// The listen line is the readiness signal the soak harness (and any
	// script) waits for before sending traffic.
	fmt.Printf("tecosimd: listening on %s (cache %s)\n", ln.Addr(), *cacheDir)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, finish every in-flight request
	// (each bounded by its own deadline), flush the cache, exit 0.
	fmt.Println("tecosimd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		srv.Kill()
		return fmt.Errorf("drain: %w", err)
	}
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	st := srv.Stats()
	fmt.Printf("tecosimd: drained (requests=%d hits=%d computes=%d coalesced=%d shed=%d)\n",
		st.Requests, st.Hits, st.Computes, st.Coalesced, st.Shed)
	return nil
}
