// Command truthserve is the online truth-inference daemon: a
// multi-tenant registry of crowdsourcing projects, each with its own
// append-only answer store, its own method/seed/epoch configuration
// re-run warm-started as batches arrive, its own optional task-assignment
// ledger, and — with -wal-dir set — its own write-ahead-log namespace,
// recovered to a bit-identical store on the next start.
//
// Usage:
//
//	truthserve [-addr :8080] [-wal-dir dir] [-projects projects.json]
//	           [-debug-addr 127.0.0.1:6060] [-slow-request 1s] [-version]
//
// A project is configured only by a tenant.Config: declared at boot in
// the -projects file (a JSON object mapping project id → config) or
// created at runtime through the admin API, which accepts the same
// shape. Each config carries method, task_type, choices, seed,
// max_iter, parallelism, no_auto_refresh, data, snapshot_every, limits
// and an optional assign block (policy, redundancy, budget, lease_ttl,
// defense); any other field fails the boot as unknown. When durable,
// projects are recorded in <wal-dir>/projects.json and recovered on the
// next boot; a recovered project wins over a boot-file entry of the
// same id.
//
// The API (see internal/stream, internal/assign and internal/tenant for
// the wire formats):
//
//	POST   /v1/admin/projects        create a project {"id":..,"config":{..}}
//	GET    /v1/admin/projects        list projects + per-tenant stats
//	GET    /v1/admin/projects/{id}   one project's stats
//	DELETE /v1/admin/projects/{id}   close + delete a project
//	*      /v1/projects/{id}/...     that project's API:
//	  POST ../ingest        append answers/tasks/workers/truths (JSON)
//	  POST ../ingest-batch  batched binary ingest (CRC-framed batch
//	                        stream; the ack reports accepted vs durable)
//	  POST ../refresh       run one inference epoch now
//	  POST ../query         relational reads: canned views or a σ/π/⋈/
//	                        aggregate plan AST over answers, posteriors,
//	                        worker quality and ledger state (internal/query)
//	  GET  ../truth/{task}, ../truths, ../worker/{id}, ../stats, ../healthz
//	  GET  ../assign, POST ../complete, GET ../assignstats  (with assign config)
//	GET    /v1/healthz, /v1/readyz, /metrics
//
// Any other path, or a known path with the wrong method, answers 404 in
// the JSON error envelope.
//
// On SIGINT/SIGTERM the daemon drains gracefully: the HTTP listener
// stops accepting, in-flight requests finish, and every project drains
// concurrently — in-flight inference epochs finish, WALs are fsynced and
// compacted into final snapshots — before the process exits 0.
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

	"truthinference/internal/buildinfo"
	"truthinference/internal/tenant"
)

// config is the parsed flag set; run is driven by it so tests can start
// the daemon without a process boundary.
type config struct {
	walDir       string
	projectsFile string
	debugAddr    string
	slowRequest  time.Duration
}

func main() {
	var cfg config
	var addr string
	flag.StringVar(&addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.walDir, "wal-dir", "", "root directory for per-project write-ahead logs + snapshots (empty = not durable)")
	flag.StringVar(&cfg.projectsFile, "projects", "", "JSON file of projects to create at boot (id -> config)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "private listen address for net/http/pprof and a second /metrics mount (empty = disabled; keep off the public network)")
	flag.DurationVar(&cfg.slowRequest, "slow-request", time.Second, "log requests slower than this threshold (0 = disabled)")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("truthserve"))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal("%v", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if err := run(ctx, cfg, ln, logger); err != nil {
		fatal("%v", err)
	}
}

// run starts the daemon on ln and blocks until ctx is cancelled (a
// signal in production, test cancellation in the regression suite) or
// the server fails. On cancellation it drains: HTTP shutdown, then every
// project concurrently (in-flight epoch, WAL fsync + final snapshot) —
// and returns nil. ln is closed on every return, so a boot that fails
// never leaves clients waiting on a listener nobody serves.
func run(ctx context.Context, cfg config, ln net.Listener, logger *slog.Logger) error {
	defer ln.Close()
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	logger.Info("starting", "build", buildinfo.String("truthserve"))

	// Boot-file projects are parsed and validated before the registry
	// opens any durable state, so a typoed config is immediately
	// actionable.
	var boot map[string]tenant.Config
	if cfg.projectsFile != "" {
		data, err := os.ReadFile(cfg.projectsFile)
		if err != nil {
			return err
		}
		if boot, err = tenant.DecodeProjects(data); err != nil {
			return err
		}
	}

	reg := tenant.NewRegistry(cfg.walDir, logger)
	reg.SlowRequest = cfg.slowRequest
	drained := false
	defer func() {
		if !drained {
			reg.Close()
		}
	}()
	// Manifest projects recover first (they carry the config a previous
	// run persisted), then the boot file fills in any that are new.
	if err := reg.Recover(); err != nil {
		return err
	}
	for id, pc := range boot {
		if _, ok := reg.Get(id); ok {
			logger.Warn("project already recovered from the manifest; boot-file entry ignored", "project", id)
			continue
		}
		if _, err := reg.Create(id, pc); err != nil {
			return fmt.Errorf("create project %q: %w", id, err)
		}
	}
	// Every namespace is recovered and every boot project exists: the
	// daemon is ready. /v1/readyz flips to 200 and truthserve_ready to 1.
	reg.SetReady()

	// The debug listener is a separate private mux: pprof profiles and a
	// second /metrics mount, never exposed on the serving address.
	var debugSrv *http.Server
	if cfg.debugAddr != "" {
		dln, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("GET /metrics", reg.Telemetry().Handler())
		debugSrv = &http.Server{Handler: dmux}
		go debugSrv.Serve(dln)
		logger.Info("debug listener up", "addr", dln.Addr().String())
	}

	srv := &http.Server{Handler: reg.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Info("serving", "projects", len(reg.List()), "addr", ln.Addr().String(), "durable", reg.Durable())

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight requests finish.
	logger.Info("signal received, draining")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		logger.Warn("HTTP shutdown", "err", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("listener", "err", err)
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	// Fan the drain out across every tenant: each finishes its in-flight
	// epoch, fsyncs its WAL and compacts a final snapshot.
	drained = true
	if err := reg.Close(); err != nil {
		return fmt.Errorf("drain projects: %w", err)
	}
	logger.Info("drained, exiting")
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "truthserve: "+format+"\n", args...)
	os.Exit(1)
}
