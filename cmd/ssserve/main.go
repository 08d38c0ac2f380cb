// Command ssserve runs the fact-finding pipeline as an HTTP service.
//
// Usage:
//
//	ssserve [-addr :8080] [-topk 100] [-maxbody 33554432]
//	        [-metrics] [-pprof addr] [-trace-buffer 64] [-trace-dir dir]
//	        [-cache-size 256] [-cache-ttl 5m] [-max-inflight 0] [-queue-depth 64]
//
// Endpoints: GET /healthz, GET /v1/algorithms, POST /v1/factfind,
// GET /metrics unless -metrics=false, and the flight-recorder views
// GET /debug/runs and GET /debug/runs/{id} (see internal/httpapi for the
// request schema). -trace-buffer sizes the in-memory flight recorder;
// -trace-dir additionally appends every finished run trace to
// dir/traces.jsonl for offline analysis with ssaudit. With -pprof,
// net/http/pprof handlers are served on a separate listener so profiling
// is never exposed on the public address. The server shuts down gracefully
// on SIGINT/SIGTERM.
//
// The serving layer (see DESIGN.md §14) replays repeated identical requests
// from a content-hash result cache (-cache-size / -cache-ttl), coalesces
// concurrent identical requests into one pipeline run, and — with
// -max-inflight set — bounds concurrent computation, queueing up to
// -queue-depth waiters and shedding the rest with 429 + Retry-After.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"depsense/internal/httpapi"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ssserve:", err)
		os.Exit(1)
	}
}

// writeTimeoutSlack is the headroom added on top of the compute budget for
// request decode, pipeline stages outside the estimator, and response
// encoding. The write timeout must strictly dominate the compute budget:
// if it did not, the server would cut the connection while the handler is
// still entitled to compute, turning a graceful 503-with-partial-progress
// into an empty reply.
const writeTimeoutSlack = 30 * time.Second

// writeTimeout derives the server's WriteTimeout from the per-request
// compute budget: zero budget (unlimited compute) means no write timeout,
// otherwise budget plus slack.
func writeTimeout(computeBudget time.Duration) time.Duration {
	if computeBudget <= 0 {
		return 0
	}
	return computeBudget + writeTimeoutSlack
}

func run(args []string) error {
	fs := flag.NewFlagSet("ssserve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		topK       = fs.Int("topk", 100, "default ranked output size")
		maxBody    = fs.Int64("maxbody", 32<<20, "maximum request body bytes")
		computeTmo = fs.Duration("compute-timeout", 0, "per-request compute budget (0 = unlimited); exceeding it returns 503 with partial progress; also sets the server write timeout to budget+30s (0 = no write timeout)")
		workers    = fs.Int("workers", 1, "per-request estimator parallelism; results are identical at any value, 0 = GOMAXPROCS")
		metrics    = fs.Bool("metrics", true, "serve GET /metrics (Prometheus text exposition)")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this separate address (empty = disabled)")
		traceBuf   = fs.Int("trace-buffer", 64, "completed run traces retained by the flight recorder (failed runs get a separate quarter-sized ring); served at GET /debug/runs")
		traceDir   = fs.String("trace-dir", "", "append every finished run trace to this directory's traces.jsonl (empty = no spill); read offline with ssaudit")
		cacheSize  = fs.Int("cache-size", 256, "result cache capacity in responses (negative = caching disabled)")
		cacheTTL   = fs.Duration("cache-ttl", 5*time.Minute, "result cache entry lifetime (negative = entries never expire)")
		maxInFl    = fs.Int("max-inflight", 0, "maximum concurrently executing pipeline computations (0 = unlimited); cache hits and coalesced requests are not counted")
		queueDepth = fs.Int("queue-depth", 64, "computations allowed to wait for a compute slot when -max-inflight is saturated; beyond it requests are shed with 429")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *traceDir != "" {
		// Fail at startup, not on the first spilled trace: a typo'd spill
		// directory should be an immediate, visible error.
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fmt.Errorf("trace dir: %w", err)
		}
	}
	handler := httpapi.New(httpapi.Options{
		MaxBodyBytes:   *maxBody,
		DefaultTopK:    *topK,
		ComputeTimeout: *computeTmo,
		Workers:        *workers,
		DisableMetrics: !*metrics,
		Logger:         logger,
		TraceBuffer:    *traceBuf,
		TraceDir:       *traceDir,
		CacheSize:      *cacheSize,
		CacheTTL:       *cacheTTL,
		MaxInFlight:    *maxInFl,
		QueueDepth:     *queueDepth,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      writeTimeout(*computeTmo),
		IdleTimeout:       time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintln(os.Stderr, "ssserve: listening on", *addr)
		errCh <- srv.ListenAndServe()
	}()

	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pprofSrv = &http.Server{
			Addr:              *pprofAddr,
			Handler:           pprofMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			fmt.Fprintln(os.Stderr, "ssserve: pprof on", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				// Profiling is auxiliary: losing it should not take the
				// service down, but the operator needs to know.
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if pprofSrv != nil {
			_ = pprofSrv.Shutdown(shutdownCtx)
		}
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		<-errCh // wait for ListenAndServe to return
		return nil
	}
}

// pprofMux builds a dedicated mux for the profiling endpoints rather than
// importing net/http/pprof for its DefaultServeMux side effect, which
// would silently expose profiling on the main handler too.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
