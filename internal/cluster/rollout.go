package cluster

import (
	"context"
	"fmt"
	"time"

	"octant/internal/lifecycle"
)

// RolloutOptions tunes a coordinated epoch rollout.
type RolloutOptions struct {
	// SkipRefresh converges the fleet to the source node's current epoch
	// without triggering a reprobe first — recovery mode for a fleet that
	// diverged (a node restarted on an old snapshot, a push that failed
	// half way).
	SkipRefresh bool
}

// NodeRollout is one fleet member's leg of a rollout.
type NodeRollout struct {
	Node string `json:"node"`
	// FromEpoch/ToEpoch bracket the node's swap; equal when the node was
	// already current and was skipped.
	FromEpoch uint64  `json:"from_epoch"`
	ToEpoch   uint64  `json:"to_epoch"`
	Skipped   bool    `json:"skipped,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// RolloutReport is the coordinator's account of one rollout.
type RolloutReport struct {
	// Source is the node that measured (or already held) the new epoch.
	Source string `json:"source"`
	// Epoch is the fleet-wide epoch after the rollout.
	Epoch uint64 `json:"epoch"`
	// Refreshed reports whether the source published a new epoch for this
	// rollout (false: the mesh had not drifted, or SkipRefresh).
	Refreshed bool `json:"refreshed"`
	// Refresh is the source's refresh report when one ran.
	Refresh   *lifecycle.RefreshReport `json:"refresh,omitempty"`
	Nodes     []NodeRollout            `json:"nodes"`
	ElapsedMs float64                  `json:"elapsed_ms"`
}

// Coordinator pushes survey epochs through a fleet: refresh on one source
// node (the only node that probes), pull its snapshot, then install it on
// each replica in turn, which publishes it the way a refresh would.
// Probing cost stays O(n²) once per epoch for the whole fleet instead of
// per node, and because snapshot adoption refits calibrations
// deterministically, every node serves bit-identical results for the
// epoch. No node leaves service: each request borrows one epoch, and the
// router repairs a batch that straddles a node's swap.
type Coordinator struct {
	nodes []*NodeClient
}

// NewCoordinator builds a coordinator over the fleet. The first node is
// the refresh source.
func NewCoordinator(nodes []*NodeClient) (*Coordinator, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes to coordinate")
	}
	return &Coordinator{nodes: nodes}, nil
}

// Rollout runs one coordinated epoch push. It returns a report even on
// the no-op path (source refreshed but nothing drifted and every node is
// already current).
func (c *Coordinator) Rollout(ctx context.Context, opts RolloutOptions) (*RolloutReport, error) {
	start := time.Now()
	source := c.nodes[0]
	report := &RolloutReport{Source: source.Name}

	if !opts.SkipRefresh {
		rep, err := source.Refresh(ctx)
		if err != nil {
			return nil, fmt.Errorf("refresh on %s: %w", source.Name, err)
		}
		report.Refresh = &rep
		report.Refreshed = rep.Swapped
	}

	snapshot, epoch, err := source.Snapshot(ctx)
	if err != nil {
		return nil, fmt.Errorf("snapshot from %s: %w", source.Name, err)
	}
	report.Epoch = epoch

	for _, node := range c.nodes[1:] {
		nodeStart := time.Now()
		nr := NodeRollout{Node: node.Name, ToEpoch: epoch}
		rd, err := node.Ready(ctx)
		if err != nil {
			return nil, fmt.Errorf("readiness of %s: %w", node.Name, err)
		}
		nr.FromEpoch = rd.Epoch
		// Already current (or ahead — a concurrent rollout): nothing to
		// push.
		nr.Skipped = rd.Epoch >= epoch
		if !nr.Skipped {
			if _, err := node.Install(ctx, snapshot); err != nil {
				return nil, fmt.Errorf("install on %s: %w", node.Name, err)
			}
		}
		nr.ElapsedMs = float64(time.Since(nodeStart)) / float64(time.Millisecond)
		report.Nodes = append(report.Nodes, nr)
	}
	report.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	return report, nil
}
