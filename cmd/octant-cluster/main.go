// Command octant-cluster is the sharded serving tier's front door: it
// routes localizations across a fleet of octant-serve nodes with a
// bounded-load consistent-hash ring, serves repeats from a cluster-wide
// result cache (front-door L1, peer-fetch L2 against the key owner's
// node cache), and coordinates epoch rollouts — one node reprobes, the
// rest adopt its snapshot in a rolling wave that takes no node out of
// service.
//
// Clients speak the same /v2 wire format to the front door as to a
// single node; batches are additionally epoch-coherent (one response
// never mixes survey epochs, even mid-rollout).
//
// Endpoints:
//
//	POST /v2/localize        {"target", "options"}  → routed result
//	POST /v2/localize/batch  {"targets", "options"} → NDJSON stream
//	GET  /v1/stats                                  → merged router + per-node stats
//	GET  /v1/cluster                                → ring members, loads, readiness
//	POST /v1/rollout         {"skip_refresh"?}      → coordinated epoch rollout
//	GET  /v1/healthz                                → liveness
//	GET  /v1/readyz                                 → 200 when ≥ 1 node is ready
//
// Usage, against three local nodes:
//
//	octant-serve -addr :8081 -seed 1 &
//	octant-serve -addr :8082 -seed 1 &
//	octant-serve -addr :8083 -seed 1 &
//	octant-cluster -addr :8080 \
//	    -nodes node-0=http://127.0.0.1:8081,node-1=http://127.0.0.1:8082,node-2=http://127.0.0.1:8083 \
//	    -rollout 15m
//
// Node specs are name=url pairs; a bare url gets the name node-<i>.
// Names are ring identities — keep them stable across restarts or the
// ring reshards. With -rollout the front door also drives periodic
// coordinated refreshes (the first node is the probe source).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"octant/internal/cluster"
	"octant/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("octant-cluster: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole front door: parse args, build the router and the
// coordinator over -nodes, serve until ctx is cancelled, then drain. Its
// progress lines go to logw; a nil return means every accepted request
// finished.
func run(ctx context.Context, args []string, logw io.Writer) error {
	logger := log.New(logw, "octant-cluster: ", 0)
	fs := flag.NewFlagSet("octant-cluster", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		nodeSpec   = fs.String("nodes", "", "comma-separated fleet members, each name=url or url (required)")
		vnodes     = fs.Int("vnodes", 0, "virtual nodes per member on the hash ring (0 = default 128)")
		loadFactor = fs.Float64("load-factor", 0, "bounded-load ceiling as a multiple of mean load (0 = default 1.25, negative = unbounded)")
		cacheSize  = fs.Int("cache", 4096, "front-door L1 result-cache entries (negative disables)")
		maxBatch   = fs.Int("max-batch", 1024, "maximum targets per batch request")
		readyTTL   = fs.Duration("ready-ttl", 500*time.Millisecond, "how long a node readiness verdict is trusted before re-probing")
		rollout    = fs.Duration("rollout", 0, "periodic coordinated epoch rollout interval (0 = on-demand only, via POST /v1/rollout)")
		grace      = fs.Duration("shutdown-grace", 30*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	nodes, err := parseNodes(*nodeSpec)
	if err != nil {
		return err
	}
	router, err := cluster.NewRouter(nodes, cluster.RouterConfig{
		VNodes:     *vnodes,
		LoadFactor: *loadFactor,
		CacheSize:  *cacheSize,
		MaxBatch:   *maxBatch,
		ReadyTTL:   *readyTTL,
	})
	if err != nil {
		return err
	}
	coord, err := cluster.NewCoordinator(nodes)
	if err != nil {
		return err
	}
	front := cluster.NewFront(router, coord)

	if *rollout > 0 {
		logger.Printf("rolling the fleet every %v (source %s)", *rollout, nodes[0].Name)
		go func() {
			tick := time.NewTicker(*rollout)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				report, err := coord.Rollout(ctx, cluster.RolloutOptions{})
				switch {
				case err != nil:
					logger.Printf("rollout failed: %v", err)
				case report.Refreshed:
					logger.Printf("rolled fleet to epoch %d in %.0f ms", report.Epoch, report.ElapsedMs)
				}
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("fronting %d nodes on %s (L1 cache %d)", len(nodes), ln.Addr(), *cacheSize)
	if err := serve.ServeUntilShutdown(ctx, serve.HTTPServer(front.Handler()), ln, *grace); err != nil {
		return err
	}
	logger.Printf("drained, exiting")
	return nil
}

// parseNodes turns "-nodes a=http://…,b=http://…" (or bare URLs) into
// fleet clients, rejecting duplicates in either coordinate.
func parseNodes(spec string) ([]*cluster.NodeClient, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-nodes is required (name=url,name=url,…)")
	}
	var nodes []*cluster.NodeClient
	seenName := make(map[string]bool)
	seenURL := make(map[string]bool)
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url := fmt.Sprintf("node-%d", i), part
		if eq := strings.Index(part, "="); eq >= 0 {
			name, url = strings.TrimSpace(part[:eq]), strings.TrimSpace(part[eq+1:])
		}
		if name == "" || url == "" {
			return nil, fmt.Errorf("bad node spec %q: want name=url", part)
		}
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			return nil, fmt.Errorf("node %s: url %q must start with http:// or https://", name, url)
		}
		if seenName[name] {
			return nil, fmt.Errorf("duplicate node name %q", name)
		}
		if seenURL[url] {
			return nil, fmt.Errorf("duplicate node url %q", url)
		}
		seenName[name], seenURL[url] = true, true
		nodes = append(nodes, &cluster.NodeClient{Name: name, BaseURL: strings.TrimRight(url, "/")})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-nodes is required (name=url,name=url,…)")
	}
	return nodes, nil
}
