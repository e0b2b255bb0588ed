// Command octant-serve is the Octant localization daemon: it builds (or
// warm-loads) a calibrated landmark survey, then serves localizations
// over HTTP from a concurrent batch engine with an LRU result cache. The
// survey is a managed, versioned resource: a lifecycle manager reprobes
// the landmark mesh periodically or on demand, refits the survey when it
// drifted, and hot-swaps the new epoch under live traffic with zero
// dropped requests.
//
// Endpoints (see internal/serve for the full set, including the cluster
// coordination surface):
//
//	POST /v2/localize        {"target", "options"}         → JSON result
//	POST /v2/localize/batch  {"targets", "options"}        → NDJSON stream
//	POST /v1/survey/refresh  {"landmarks": ["name", …]?}   → reprobe + recalibrate
//	GET  /v1/survey/snapshot                               → versioned epoch snapshot
//	POST /v1/survey/install  (snapshot body)               → validate + publish a pushed epoch
//	GET  /v1/survey                                        → epoch, κ, swap/refresh counters
//	GET  /v1/healthz                                       → liveness
//	GET  /v1/readyz                                        → readiness (epoch published, not draining)
//	GET  /v1/stats                                         → cache, latency, epoch
//	GET  /debug/pprof/…                                    → live profiling (only with -pprof)
//
// Usage (simulated Internet, first 8 hosts held out as targets,
// recalibrating every 15 minutes, restart-warm snapshot on disk):
//
//	octant-serve -addr :8080 -seed 1 -holdout 8 -workers 8 \
//	    -refresh 15m -survey-snapshot survey.json
//
// With -survey-snapshot, the daemon saves every published epoch to the
// given file and, when the file already exists at startup, loads it and
// starts serving without issuing a single landmark probe.
//
// On SIGINT/SIGTERM the daemon flips readiness to draining, stops
// accepting connections, and drains in-flight requests (including
// streaming batches) before exiting.
//
// Against real networks, swap the prober and supply landmarks yourself:
//
//	octant-serve -prober tcp -landmarks landmarks.csv
//
// where landmarks.csv lines are "addr,name,lat,lon" (addr is host:port
// for TCP handshake probing).
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"octant/internal/batch"
	"octant/internal/core"
	"octant/internal/geodb"
	"octant/internal/lifecycle"
	"octant/internal/probe"
	"octant/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("octant-serve: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole daemon: parse args, build or warm-load the survey,
// serve until ctx is cancelled, then drain. The daemon's own progress
// lines (listening, epochs, drained) go to logw; a nil return means every
// accepted request finished.
func run(ctx context.Context, args []string, logw io.Writer) error {
	logger := log.New(logw, "octant-serve: ", 0)
	fs := flag.NewFlagSet("octant-serve", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		proberKnd = fs.String("prober", "sim", "measurement source: sim|tcp")
		seed      = fs.Uint64("seed", 1, "world seed (sim prober)")
		holdout   = fs.Int("holdout", 8, "sim hosts excluded from the survey so they stay localizable targets")
		lmFile    = fs.String("landmarks", "", "landmark CSV for -prober tcp: addr,name,lat,lon per line")
		probes    = fs.Int("probes", 10, "ping probes per measurement")
		workers   = fs.Int("workers", 8, "concurrent localizations")
		cacheSize = fs.Int("cache", 1024, "LRU result-cache entries (negative disables)")
		cacheTTL  = fs.Duration("cache-ttl", 0, "result-cache entry lifetime (0 = no expiry)")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-target localization timeout (0 = none)")
		maxBatch  = fs.Int("max-batch", 1024, "maximum targets per batch request")
		pprofOn   = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ for live profiling")
		snapshot  = fs.String("survey-snapshot", "", "survey snapshot file: loaded at startup when present (warm start, no probing), rewritten on every published epoch")
		refresh   = fs.Duration("refresh", 0, "periodic survey recalibration interval (0 = on-demand only, via POST /v1/survey/refresh)")
		driftTol  = fs.Duration("drift-tolerance", 500*time.Microsecond, "min per-pair RTT drift for a refresh to count a landmark dirty (0 = any change counts)")
		grace     = fs.Duration("shutdown-grace", 30*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
		retries   = fs.Int("probe-retries", 3, "attempts per measurement (1 disables retrying); transient probe failures back off and retry, so one lost train doesn't degrade a localization or void a survey refresh")
		measureW  = fs.Int("measure-workers", 0, "concurrent probes per localization fan-out (0 = scheduler default, 16; 1 = one probe train at a time)")
		geodbFile = fs.String("geodb", "", "passive geolocation database JSON (geodb.LoadFile format); records feed the geodb evidence source, RTT cross-validated per target")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	prober, landmarks, err := serve.BuildProber(*proberKnd, *seed, *holdout, *lmFile)
	if err != nil {
		return err
	}
	if *retries > 1 {
		// Wrapping here covers every measurement path: the initial survey
		// build, lifecycle refreshes, and the evidence pipeline.
		prober = probe.WithRetry(prober, probe.RetryOptions{Attempts: *retries})
	}

	survey, err := serve.LoadOrProbeSurvey(prober, landmarks, *probes, *snapshot)
	if err != nil {
		return err
	}

	driftTolMs := float64(*driftTol) / float64(time.Millisecond)
	if driftTolMs == 0 {
		// The flag's 0 means "any change counts"; Options uses 0 as
		// "default" and negative as exact, so translate.
		driftTolMs = -1
	}
	cfg := core.Config{
		Probes:         *probes,
		MeasureWorkers: *measureW,
	}
	if *geodbFile != "" {
		provider, err := geodb.LoadFile(*geodbFile)
		if err != nil {
			return err
		}
		cfg.GeoDB = geodb.NewCached(provider, 0)
		logger.Printf("geodb: %d records from %s", provider.Len(), *geodbFile)
	}
	manager := lifecycle.New(prober, survey, cfg, lifecycle.Options{
		Probes:           *probes,
		Interval:         *refresh,
		SnapshotPath:     *snapshot,
		DriftToleranceMs: driftTolMs,
		OnSwap: func(e *lifecycle.Epoch, r *lifecycle.RefreshReport) {
			if r == nil {
				return // initial epoch, already logged
			}
			if r.Installed {
				logger.Printf("epoch %d installed from pushed snapshot (%d landmarks)",
					e.Number(), e.Survey.N())
			} else {
				logger.Printf("epoch %d published: %d/%d landmarks dirty, survey refitted (κ %.3f, %.0f ms)",
					e.Number(), len(r.DirtyLandmarks), e.Survey.N(), e.Survey.Kappa, r.ElapsedMs)
			}
			if r.SnapshotError != "" {
				logger.Printf("snapshot autosave failed: %s", r.SnapshotError)
			}
		},
	})
	engine := batch.NewWithProvider(manager, batch.Options{
		Workers:       *workers,
		CacheSize:     *cacheSize,
		TTL:           *cacheTTL,
		TargetTimeout: *timeout,
	})
	srv := serve.New(engine, manager, serve.Options{
		MaxBatch: *maxBatch,
		Pprof:    *pprofOn,
	})
	if *pprofOn {
		logger.Printf("pprof enabled at /debug/pprof/")
	}

	if *refresh > 0 {
		logger.Printf("recalibrating every %v", *refresh)
		go manager.Run(ctx)
	}
	// Fail readiness as soon as shutdown starts so fleet routers stop
	// sending new work while the listener drains.
	stopDrainHook := context.AfterFunc(ctx, func() { srv.SetDraining(true) })
	defer stopDrainHook()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("listening on %s (%d workers, cache %d, epoch %d)",
		ln.Addr(), *workers, *cacheSize, manager.Current().Number())
	if err := serve.ServeUntilShutdown(ctx, serve.HTTPServer(srv.Handler()), ln, *grace); err != nil {
		return err
	}
	logger.Printf("drained, exiting")
	return nil
}
