// Command rbcastd is the long-running scenario-serving daemon: an
// HTTP/JSON front-end over the rbcast library with a fingerprint-keyed
// result cache, single-flight deduplication of identical scenarios,
// asynchronous batch jobs and parameter sweeps on the rbcast.RunSweepJobs
// executor, and Prometheus observability.
//
//	rbcastd -addr :8080 -cache 1024 -workers 0 \
//	        -queue-depth 1024 -max-inflight 8 -job-timeout 30s
//
// The daemon bounds the damage any one request or job can do: the batch
// queue is bounded (-queue-depth; full submissions shed with 429 +
// Retry-After), concurrent execution is bounded (-max-inflight; saturated
// sync runs shed with 429 while accepted batch jobs wait), each
// execution's wall clock is bounded (-job-timeout: a sync run, or one
// batch or sweep execution unit — a shared execution or a whole
// crash-round fork family — over budget fails with a partial result while
// other units complete), and a panicking scenario fails its own job
// instead of the process.
//
// Endpoints: POST /v1/run, POST /v1/batch, POST /v1/sweep,
// GET /v1/jobs/{id}, GET /v1/jobs/{id}/trace, GET /v1/jobs/{id}/events,
// GET /healthz, GET /metrics, GET /debug/requests. Pass -addr host:0
// to bind an ephemeral port; the actual address is logged on startup
// (msg="rbcastd listening" addr=...), which is how the package's tests
// find it. Logs are structured (log/slog); -log-format selects text or
// JSON, -log-level the threshold. -ops-addr optionally serves
// net/http/pprof (plus /metrics, /healthz and /debug/requests) on a
// separate operations listener so profiling never shares a port with the
// public API.
//
// The flight recorder (-flight-recorder, default 256 timelines; 0
// disables) retains per-request span timelines — cache outcome, queue and
// slot waits, engine execution, fork structure, response encoding —
// served by GET /debug/requests and folded into the
// rbcastd_phase_seconds summaries on /metrics. -slow-request logs one
// WARN line with the per-phase breakdown for any request at or over the
// threshold. On SIGINT/SIGTERM the daemon stops accepting work, drains
// in-flight requests and queued batch jobs, and exits. main only wires
// the signals to run, which the tests drive in-process by cancelling its
// context instead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

// newLogger builds the process logger from the -log-format/-log-level
// flags. Unknown values are errors: a daemon silently logging at the wrong
// level is worse than one that refuses to start.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (text, json)", format)
	}
}

// serveOps serves the operations listener: pprof under /debug/pprof/ plus
// the daemon's /metrics and /healthz, so an operator (or a scraper) never
// has to touch the public port.
func serveOps(addr string, srv *server.Server, logger *slog.Logger) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", srv)
	mux.Handle("/healthz", srv)
	mux.Handle("/debug/requests", srv)
	ops := &http.Server{Handler: mux}
	go func() {
		if err := ops.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("ops serve", "err", err)
		}
	}()
	logger.Info("rbcastd ops listening", "addr", ln.Addr())
	return ops, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "rbcastd: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, serves until ctx is done, then stops accepting work,
// drains in-flight requests and queued batch jobs, and returns. It logs
// to stderr.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("rbcastd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address (host:0 binds an ephemeral port)")
		opsAddr     = fs.String("ops-addr", "", "optional operations listener serving net/http/pprof, /metrics and /healthz")
		cacheSize   = fs.Int("cache", 1024, "result-cache capacity in entries")
		workers     = fs.Int("workers", 0, "worker pool size per batch job or sweep (<=0 means GOMAXPROCS)")
		maxJobs     = fs.Int("max-jobs", 4096, "retained batch jobs before the oldest finished are dropped")
		queueDepth  = fs.Int("queue-depth", 1024, "batch jobs accepted but unfinished before submissions shed with 429")
		maxInflight = fs.Int("max-inflight", 0, "concurrently executing jobs before sync runs shed with 429 (<=0 means unbounded)")
		jobTimeout  = fs.Duration("job-timeout", 0, "wall-clock bound per execution (a sync run, or a batch or sweep execution unit); over it the execution fails with a partial result (0 disables)")
		flightRec   = fs.Int("flight-recorder", 256, "request timelines retained for GET /debug/requests (0 disables span tracing)")
		slowReq     = fs.Duration("slow-request", 0, "log a WARN line with the per-phase span breakdown for requests at or over this duration (0 disables)")
		drain       = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight work")
		logFormat   = fs.String("log-format", "text", "log handler: text or json")
		logLevel    = fs.String("log-level", "info", "log threshold: debug, info, warn or error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Options{
		CacheSize:      *cacheSize,
		Workers:        *workers,
		MaxJobs:        *maxJobs,
		QueueDepth:     *queueDepth,
		MaxInflight:    *maxInflight,
		JobTimeout:     *jobTimeout,
		FlightRecorder: *flightRec,
		SlowRequest:    *slowReq,
		Logger:         logger,
	})
	hs := &http.Server{Handler: srv}

	logger.Info("rbcastd listening", "addr", ln.Addr())
	var ops *http.Server
	if *opsAddr != "" {
		if ops, err = serveOps(*opsAddr, srv, logger); err != nil {
			ln.Close()
			return fmt.Errorf("ops listen: %w", err)
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	var serveErr error
	select {
	case serveErr = <-errc:
	case <-ctx.Done():
	}

	logger.Info("rbcastd shutting down", "drain_timeout", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if ops != nil {
		if err := ops.Shutdown(shutdownCtx); err != nil {
			logger.Warn("ops shutdown", "err", err)
		}
	}
	if err := srv.Drain(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if serveErr == nil {
		serveErr = <-errc
	}
	if !errors.Is(serveErr, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", serveErr)
	}
	logger.Info("rbcastd: drained, bye")
	return nil
}
