package netsim

import (
	"maps"
	"sync/atomic"
)

// Injected conditions. Robustness tests need a network that can misbehave
// on demand: a landmark that crashes, a path that silently eats packets, a
// lossy peering, a path whose RTT floor drifts. The methods here inject
// those conditions into a live world without touching the topology or the
// probe-noise streams — loss decisions draw from their own RNG stream, so
// a world with nothing injected produces measurements bit-identical to one
// where these methods were never called.
//
// Every condition lives in one immutable conditions value behind one
// atomic pointer, nil while nothing is injected. A setter builds the next
// value under World.condMu and swaps it in; a measurement loads it once
// and reads that one snapshot throughout, so conditions may be injected
// and cleared while measurements are in flight, and a healthy measurement
// costs one atomic load with no lock.

// conditions is one snapshot of everything injected into a World. It is
// never modified once published.
type conditions struct {
	down  map[int]bool         // node ID → crashed (never false)
	pairs map[[2]int]pairConds // pairKey → that pair's conditions
}

// pairConds holds what is injected between one pair of nodes (both
// directions). The zero value is a healthy pair and is never published.
type pairConds struct {
	driftMs   float64 // extra symmetric RTT (SetPairDriftMs)
	blackhole bool    // all probe traffic discarded (SetPairBlackhole)
	loss      float64 // per-sample loss probability in (0,1] (SetPairLossRate)
}

func (c *conditions) nodeDown(id int) bool { return c != nil && c.down[id] }

func (c *conditions) pair(a, b int) pairConds {
	if c == nil {
		return pairConds{}
	}
	return c.pairs[pairKey(a, b)]
}

// update publishes edit applied to a copy of the current conditions.
// Entries the edit left healthy are dropped, and a copy with nothing left
// is published as nil.
func (w *World) update(edit func(next *conditions)) {
	w.condMu.Lock()
	defer w.condMu.Unlock()
	next := &conditions{down: map[int]bool{}, pairs: map[[2]int]pairConds{}}
	if cur := w.cond.Load(); cur != nil {
		maps.Copy(next.down, cur.down)
		maps.Copy(next.pairs, cur.pairs)
	}
	edit(next)
	maps.DeleteFunc(next.down, func(_ int, down bool) bool { return !down })
	maps.DeleteFunc(next.pairs, func(_ [2]int, pc pairConds) bool { return pc == pairConds{} })
	if len(next.down) == 0 && len(next.pairs) == 0 {
		next = nil
	}
	w.cond.Store(next)
}

// setPair publishes edit applied to the pair's conditions.
func (w *World) setPair(a, b int, edit func(pc *pairConds)) {
	key := pairKey(a, b)
	w.update(func(next *conditions) {
		pc := next.pairs[key]
		edit(&pc)
		next.pairs[key] = pc
	})
}

// SetNodeDown marks a node crashed (down=true) or revived (down=false).
// Pings to or from a downed node return no samples, traceroutes through
// it truncate at the last live router, and traceroutes to or from it
// return nothing — exactly what a crashed landmark or target looks like
// from the outside.
func (w *World) SetNodeDown(id int, down bool) {
	w.update(func(next *conditions) { next.down[id] = down })
}

// NodeDown reports whether the node is currently marked down.
func (w *World) NodeDown(id int) bool { return w.cond.Load().nodeDown(id) }

// SetPairBlackhole silently discards all probe traffic between a and b
// (both directions) — the filtered-ICMP / null-routed failure mode where
// the endpoints are alive but this particular path never answers. Other
// pairs involving a or b are unaffected.
func (w *World) SetPairBlackhole(a, b int, on bool) {
	w.setPair(a, b, func(pc *pairConds) { pc.blackhole = on })
}

// SetPairLossRate makes each probe sample between a and b be lost
// independently with the given probability (clamped to [0,1]; ≤ 0 clears
// the loss). A Ping that loses every sample returns an empty slice — the
// all-probes-timed-out outcome retry logic exists for. Loss draws come
// from a dedicated RNG stream advanced per call, so retries observe
// fresh loss patterns while the jitter stream (and therefore every
// surviving sample's value) stays bit-identical to a loss-free world.
func (w *World) SetPairLossRate(a, b int, rate float64) {
	if rate <= 0 {
		rate = 0
	} else if rate > 1 {
		rate = 1
	}
	w.setPair(a, b, func(pc *pairConds) { pc.loss = rate })
}

// PairLossRate returns the loss probability currently injected between a
// and b (0 = lossless).
func (w *World) PairLossRate(a, b int) float64 { return w.cond.Load().pair(a, b).loss }

// PathFault reports why probe traffic between src and dst cannot
// complete: "" while the path is healthy, otherwise a short human
// reason. Loss is not a path fault — a lossy pair still delivers its
// surviving samples.
func (w *World) PathFault(src, dst int) string { return w.pathFault(w.cond.Load(), src, dst) }

func (w *World) pathFault(c *conditions, src, dst int) string {
	switch {
	case c == nil:
		return ""
	case c.down[src]:
		return "node " + w.Nodes[src].Name + " down"
	case c.down[dst]:
		return "node " + w.Nodes[dst].Name + " down"
	case c.pair(src, dst).blackhole:
		return "path blackholed"
	}
	return ""
}

// dropLost filters Ping samples through the pair's loss process. The
// draws come from stream 0x1055 keyed additionally by a per-pair call
// ordinal, so (a) the 0xfeed jitter stream is never touched — surviving
// samples keep their loss-free values — and (b) consecutive calls see
// different loss patterns, so a retry can deterministically succeed
// where the first attempt lost everything. The ordinal lives outside
// the conditions snapshot and survives a clear, so a pair made lossy
// again does not replay its earlier loss patterns.
func (w *World) dropLost(samples []float64, src, dst int, rate float64) []float64 {
	seqv, _ := w.lossSeq.LoadOrStore(pairKey(src, dst), new(atomic.Uint64))
	seq := seqv.(*atomic.Uint64).Add(1)
	p := getRNG(w.probeSeed(src, dst), 0x1055<<32|seq)
	kept := samples[:0]
	for _, s := range samples {
		if p.rng.Float64() >= rate {
			kept = append(kept, s)
		}
	}
	prngPool.Put(p)
	return kept
}
