package netsim

import "container/heap"

// Routing: Dijkstra shortest paths on the policy-weighted link metric.
// Because the metric is fiber length times a per-link policy factor, the
// chosen paths deviate from great circles — exactly the indirect-route
// phenomenon §2.3 of the paper compensates for with piecewise localization.

type pqItem struct {
	node int
	dist float64
}

type priorityQueue []pqItem

func (pq priorityQueue) Len() int           { return len(pq) }
func (pq priorityQueue) Less(i, j int) bool { return pq[i].dist < pq[j].dist }
func (pq priorityQueue) Swap(i, j int)      { pq[i], pq[j] = pq[j], pq[i] }
func (pq *priorityQueue) Push(x any)        { *pq = append(*pq, x.(pqItem)) }
func (pq *priorityQueue) Pop() any {
	old := *pq
	n := len(old)
	item := old[n-1]
	*pq = old[:n-1]
	return item
}

// routeTable holds the shortest-path tree from one source.
type routeTable struct {
	prev []int
	cost []float64
}

// shortestTree computes (and caches, per World) the Dijkstra tree from src.
func (w *World) shortestTree(src int) *routeTable {
	if t, ok := w.routes.Load(src); ok {
		return t.(*routeTable)
	}
	n := len(w.Nodes)
	dist := make([]float64, n)
	prev := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = 1e18
		prev[i] = -1
	}
	dist[src] = 0
	pq := &priorityQueue{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, e := range w.adj[it.node] {
			l := w.Links[e.link]
			nd := dist[it.node] + l.CostKm
			if nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = it.node
				heap.Push(pq, pqItem{e.to, nd})
			}
		}
	}
	t := &routeTable{prev: prev, cost: dist}
	w.routes.Store(src, t)
	return t
}

// Route returns the node-ID path from src to dst (inclusive of both), or
// nil if dst is unreachable. The tree walk runs twice — once to count,
// once to fill — so the path is built in one exact-size allocation
// (Route sits under every Ping; append-grown paths dominated the
// simulator's allocation profile).
func (w *World) Route(src, dst int) []int {
	t := w.shortestTree(src)
	if t.cost[dst] >= 1e18 {
		return nil
	}
	n := 0
	for cur := dst; cur != -1; cur = t.prev[cur] {
		n++
		if cur == src {
			break
		}
	}
	path := make([]int, n)
	i := n - 1
	for cur := dst; cur != -1; cur = t.prev[cur] {
		path[i] = cur
		i--
		if cur == src {
			break
		}
	}
	if path[0] != src {
		return nil
	}
	return path
}

// linkBetween returns the link index connecting a and b, or -1.
func (w *World) linkBetween(a, b int) int {
	for _, e := range w.adj[a] {
		if e.to == b {
			return e.link
		}
	}
	return -1
}
