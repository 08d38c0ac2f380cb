// Command ssingest runs the continuous ingestion service: a seeded
// twittersim firehose (the stand-in for a live tweet stream) feeds the
// staged pipeline in internal/ingest, which clusters tweets into
// assertions, refits the streaming estimator per batch, and serves
// continuously refreshed credibility rankings.
//
// Usage:
//
//	ssingest [-scenario Ukraine] [-scale 20] [-seed 1]
//	         [-batch 64] [-interval 0] [-workers 1] [-topk 100]
//	         [-data dir] [-snapshot-every 16] [-addr :8090] [-once]
//	         [-trace-buffer 64] [-trace-dir dir]
//	         [-quality] [-quality-lambda 0.4] [-quality-bound-every 8]
//
// Endpoints on -addr: GET /healthz, /v1/rankings, /statusz, /metrics, and
// the per-refit flight recorder at /debug/runs[/{id}]; -addr "" disables
// the HTTP surface (batch-job mode). -quality attaches the estimation-
// quality monitor (internal/qual): per-refit calibration and drift
// verdicts at /debug/quality, alarm counters on /metrics, and — when
// -trace-dir is set — a quality.jsonl spill next to traces.jsonl for
// offline auditing with ssaudit. -interval > 0 paces emission like a
// live stream; 0 replays as fast as the pipeline drains. With -data, every
// batch is committed to an fsynced claim log before it is applied and the
// model is snapshotted periodically, so restarting with the same -data
// (and the same scenario flags) resumes exactly where the previous process
// stopped — killed or not. -once exits when the firehose is exhausted
// (after a final snapshot) instead of idling; the service always shuts
// down on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"depsense/internal/core"
	"depsense/internal/ingest"
	"depsense/internal/qual"
	"depsense/internal/randutil"
	"depsense/internal/stream"
	"depsense/internal/twittersim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ssingest:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ssingest", flag.ContinueOnError)
	var (
		scenario  = fs.String("scenario", "Ukraine", "twittersim preset scenario feeding the firehose")
		scale     = fs.Int("scale", 20, "scenario downscale divisor (larger = smaller stream)")
		seed      = fs.Int64("seed", 1, "firehose world seed; same seed + scenario = same stream")
		batch     = fs.Int("batch", 64, "accepted tweets per committed batch")
		interval  = fs.Duration("interval", 0, "paced emission interval (0 = replay at full speed)")
		workers   = fs.Int("workers", 1, "estimator parallelism; published rankings are identical at any value, 0 = GOMAXPROCS")
		topK      = fs.Int("topk", 100, "published ranking size")
		dataDir   = fs.String("data", "", "persistence directory (claim log + snapshots); empty = in-memory only")
		snapEvery = fs.Int("snapshot-every", 16, "snapshot the model every n committed batches")
		addr      = fs.String("addr", ":8090", "HTTP listen address (empty = no HTTP surface)")
		once      = fs.Bool("once", false, "exit when the firehose is exhausted instead of idling")
		traceBuf  = fs.Int("trace-buffer", 64, "refit traces retained by the flight recorder, served at /debug/runs")
		traceDir  = fs.String("trace-dir", "", "append every refit trace to this directory's traces.jsonl (read offline with ssaudit)")
		quality   = fs.Bool("quality", false, "run the estimation-quality monitor: /debug/quality, alarm metrics, and (with -trace-dir) a quality.jsonl spill for ssaudit")
		qualLam   = fs.Float64("quality-lambda", 0, "drift alarm threshold override (0 = qual default)")
		qualBound = fs.Int("quality-bound-every", 0, "evaluate the error bound every n refits (0 = qual default, negative = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := twittersim.Preset(*scenario); !ok {
		return fmt.Errorf("unknown scenario %q (try one of the Table III names)", *scenario)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *traceDir != "" {
		// Fail at startup, not on the first spilled trace.
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fmt.Errorf("trace dir: %w", err)
		}
	}

	world, err := twittersim.Generate(twittersim.Small(*scenario, *scale), randutil.New(*seed))
	if err != nil {
		return fmt.Errorf("generate scenario: %w", err)
	}
	fh := world.Firehose(twittersim.FirehoseOptions{
		Interval: *interval,
		Pace:     *interval > 0,
	})
	source := ingest.NewFirehoseSource(world, fh)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var qualOpts *qual.Options
	if *quality {
		qualOpts = &qual.Options{
			DriftLambda: *qualLam,
			BoundEvery:  *qualBound,
		}
	}

	pipe, err := ingest.New(ctx, source, ingest.Options{
		Stream:        stream.Options{EM: core.Options{Workers: *workers}},
		BatchSize:     *batch,
		TopK:          *topK,
		Dir:           *dataDir,
		SnapshotEvery: *snapEvery,
		Logger:        logger,
		TraceBuffer:   *traceBuf,
		TraceDir:      *traceDir,
		Quality:       qualOpts,
	})
	if err != nil {
		return err
	}

	var srv *http.Server
	httpErr := make(chan error, 1)
	if *addr != "" {
		srv = &http.Server{
			Addr:              *addr,
			Handler:           ingest.NewServer(pipe),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      time.Minute,
			IdleTimeout:       time.Minute,
		}
		go func() {
			fmt.Fprintln(os.Stderr, "ssingest: listening on", *addr)
			httpErr <- srv.ListenAndServe()
		}()
	}

	runErr := pipe.Run(ctx)
	if errors.Is(runErr, context.Canceled) {
		// Operator-initiated shutdown (crash-equivalent on purpose: the
		// claim log, not a final snapshot, is the durable truth).
		runErr = nil
	}
	exhausted := runErr == nil && ctx.Err() == nil

	if exhausted && !*once && srv != nil {
		// Keep serving the final rankings until the operator stops us.
		fmt.Fprintln(os.Stderr, "ssingest: stream exhausted, serving final rankings")
		<-ctx.Done()
	}

	if srv != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && runErr == nil {
			runErr = fmt.Errorf("shutdown: %w", err)
		}
		if err := <-httpErr; !errors.Is(err, http.ErrServerClosed) && runErr == nil {
			runErr = err
		}
	}
	return runErr
}
