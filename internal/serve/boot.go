package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"octant/internal/core"
	"octant/internal/geo"
	"octant/internal/netsim"
	"octant/internal/probe"
)

// Bootstrap helpers shared by cmd/octant-serve and the cluster tier's
// local fleets: prober/landmark assembly, warm-start snapshot loading,
// and the drain-on-shutdown serving loop.

// HTTPServer builds the http.Server every Octant listener runs — serve
// nodes, the cluster front door, in-process fleets: a client gets ten
// seconds to send its request headers and an idle keep-alive connection
// two minutes, so stalled or abandoned connections cannot pile up. There
// is deliberately no WriteTimeout: an NDJSON batch stream legitimately
// writes for as long as its slowest target measures.
func HTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}

// ServeUntilShutdown serves httpSrv on ln until ctx is cancelled, then
// drains: the listener closes immediately, in-flight requests (batch
// streams included) get up to grace to complete, and only then does the
// function return. A nil return means every accepted request finished.
func ServeUntilShutdown(ctx context.Context, httpSrv *http.Server, ln net.Listener, grace time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before any shutdown was requested
	case <-ctx.Done():
	}
	shCtx := context.Background()
	if grace > 0 {
		var cancel context.CancelFunc
		shCtx, cancel = context.WithTimeout(shCtx, grace)
		defer cancel()
	}
	if err := httpSrv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// LoadOrProbeSurvey starts warm from an existing snapshot when one is
// available, otherwise probes the full landmark mesh and seeds the
// snapshot file if a path was given (the lifecycle manager rewrites it
// on every recalibrated epoch).
func LoadOrProbeSurvey(prober probe.Prober, landmarks []core.Landmark, probes int, snapshot string) (*core.Survey, error) {
	if snapshot != "" {
		survey, err := core.LoadSnapshotFile(snapshot)
		if err == nil {
			// A snapshot silently overriding the configured landmark set
			// would make the -seed/-holdout/-landmarks flags dead and the
			// calibrations wrong for the mesh the operator asked for; one
			// at another -probes would bias every later drift comparison.
			err = survey.SameMesh(landmarks, probes)
		}
		switch {
		case err == nil:
			log.Printf("warm start from %s: epoch %d, %d landmarks, no probing (κ=%.2f)",
				snapshot, survey.Epoch, survey.N(), survey.Kappa)
			return survey, nil
		case !errors.Is(err, fs.ErrNotExist):
			// A corrupt, mismatched or unreadable snapshot is a
			// misconfiguration to surface, not a license to reprobe on
			// every restart.
			return nil, fmt.Errorf("snapshot %s is unusable here (%w); move it aside to reprobe", snapshot, err)
		}
	}
	log.Printf("surveying %d landmarks (O(n²) pings + calibration)…", len(landmarks))
	start := time.Now()
	survey, err := core.NewSurvey(prober, landmarks, core.SurveyOpts{Probes: probes, UseHeights: true})
	if err != nil {
		return nil, err
	}
	log.Printf("survey ready in %v (κ=%.2f)", time.Since(start).Round(time.Millisecond), survey.Kappa)
	if snapshot != "" {
		if err := survey.SaveSnapshotFile(snapshot); err != nil {
			return nil, fmt.Errorf("seeding snapshot: %w", err)
		}
		log.Printf("seeded snapshot %s", snapshot)
	}
	return survey, nil
}

// BuildProber assembles the measurement source and its landmark set.
// kind is "sim" (a netsim world derived from seed, with the first
// holdout hosts excluded from the survey so they stay localizable
// targets) or "tcp" (handshake probing against a landmark CSV).
func BuildProber(kind string, seed uint64, holdout int, lmFile string) (probe.Prober, []core.Landmark, error) {
	switch kind {
	case "sim":
		world := netsim.NewWorld(netsim.Config{Seed: seed})
		hosts := world.HostNodes()
		if holdout < 0 || holdout > len(hosts)-3 {
			return nil, nil, fmt.Errorf("holdout %d leaves fewer than 3 landmarks", holdout)
		}
		var landmarks []core.Landmark
		for _, h := range hosts[holdout:] {
			landmarks = append(landmarks, core.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
		}
		return probe.NewSimProber(world), landmarks, nil
	case "tcp":
		if lmFile == "" {
			return nil, nil, fmt.Errorf("-prober tcp requires -landmarks")
		}
		landmarks, err := LoadLandmarks(lmFile)
		if err != nil {
			return nil, nil, err
		}
		return probe.NewTCPProber(), landmarks, nil
	default:
		return nil, nil, fmt.Errorf("unknown prober %q (want sim|tcp)", kind)
	}
}

// LoadLandmarks parses "addr,name,lat,lon" lines ('#' comments allowed).
func LoadLandmarks(path string) ([]core.Landmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []core.Landmark
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("%s:%d: want addr,name,lat,lon", path, ln+1)
		}
		lat, err1 := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		lon, err2 := strconv.ParseFloat(strings.TrimSpace(parts[3]), 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s:%d: bad coordinates", path, ln+1)
		}
		out = append(out, core.Landmark{
			Addr: strings.TrimSpace(parts[0]),
			Name: strings.TrimSpace(parts[1]),
			Loc:  geo.Pt(lat, lon),
		})
	}
	if err := core.CheckMesh(out); err != nil {
		return nil, fmt.Errorf("%s: %w (landmarks count from 0, comments and blank lines skipped)", path, err)
	}
	return out, nil
}
