package gateway

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"xplace/internal/obs"
)

// node is one xserve worker as the gateway sees it: its probe-derived
// health, its circuit breaker, and its per-node instruments.
//
// Health and the breaker answer different questions. Health ("is the
// process up and accepting?") comes from the readiness probe loop and
// flips only after downAfter/upAfter consecutive observations, so one
// dropped packet does not eject a node. The breaker ("are MY submits to
// it failing?") trips on consecutive submit failures and ejects the node
// from routing for a cooldown even while probes still pass — the
// flapping-worker case where the HTTP listener answers probes but the
// submit path errors.
type node struct {
	name string // base URL, e.g. http://127.0.0.1:8081

	routed  *obs.Counter   // xgate_node_routed_total{node}
	latency *obs.Histogram // xgate_node_seconds{node}
	healthG *obs.Gauge     // xgate_node_healthy{node}

	mu           sync.Mutex
	healthy      bool
	consecOK     int
	consecFail   int
	breakerFails int
	breakerUntil time.Time
}

func (g *Gateway) newNode(name string) *node {
	label := fmt.Sprintf("{node=%q}", name)
	n := &node{
		name:    name,
		routed:  g.reg.Counter("xgate_node_routed_total"+label, "jobs routed to this node"),
		latency: g.reg.Histogram("xgate_node_seconds"+label, "submit round-trip latency to this node", nil),
		healthG: g.reg.Gauge("xgate_node_healthy"+label, "1 while the node passes readiness probes"),
		healthy: true, // optimistic start; downAfter failed probes demote
	}
	n.healthG.Set(1)
	return n
}

// available reports whether the router may offer this node a job:
// probe-healthy and not inside a breaker cooldown.
func (n *node) available() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.healthy && !time.Now().Before(n.breakerUntil)
}

func (n *node) isHealthy() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.healthy
}

func (n *node) breakerOpen() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return time.Now().Before(n.breakerUntil)
}

// submitFailure records one failed submit attempt. Reaching the
// threshold opens the breaker for the cooldown; the count is left one
// short of the threshold so the half-open state after the cooldown
// re-opens on a single failure but closes fully on one success.
func (n *node) submitFailure(threshold int, cooldown time.Duration, trips *obs.Counter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.breakerFails++
	if n.breakerFails >= threshold {
		n.breakerUntil = time.Now().Add(cooldown)
		n.breakerFails = threshold - 1
		trips.Inc()
	}
}

func (n *node) submitSuccess() {
	n.mu.Lock()
	n.breakerFails = 0
	n.breakerUntil = time.Time{}
	n.mu.Unlock()
}

// probeLoop polls the node's readiness endpoint every ProbePeriod and
// debounces transitions: downAfter consecutive failures mark the node
// unhealthy (and fail over its in-flight jobs), upAfter consecutive
// successes bring it back. A draining worker answers /readyz with 503,
// so it stops receiving new jobs before its queue starts rejecting.
func (g *Gateway) probeLoop(n *node) {
	defer g.wg.Done()
	t := time.NewTicker(g.opts.ProbePeriod)
	defer t.Stop()
	for {
		select {
		case <-g.ctx.Done():
			return
		case <-t.C:
		}
		ok := g.probe(n.name, "/readyz")
		n.mu.Lock()
		if ok {
			n.consecOK++
			n.consecFail = 0
			if !n.healthy && n.consecOK >= upAfter {
				n.healthy = true
				n.healthG.Set(1)
			}
		} else {
			n.consecFail++
			n.consecOK = 0
			if n.healthy && n.consecFail >= downAfter {
				n.healthy = false
				n.healthG.Set(0)
			}
		}
		n.mu.Unlock()
	}
}

// probe asks one of a worker's health endpoints whether it answers 200.
func (g *Gateway) probe(name, path string) bool {
	ctx, cancel := context.WithTimeout(g.ctx, g.opts.ProbeTimeout)
	defer cancel()
	code, _, err := g.call(ctx, http.MethodGet, name+path, nil)
	return err == nil && code == http.StatusOK
}

// confirmDead distinguishes a dropped stream from a dead worker before
// the gateway reruns a job elsewhere: K liveness probes in quick
// succession must ALL fail. A slow worker mid-GC answers one of them
// and keeps its jobs; failover on a false positive would waste a rerun
// (though never corrupt the result — reruns are deterministic).
func (g *Gateway) confirmDead(name string) bool {
	for i := 0; i < 3; i++ {
		if i > 0 && !g.sleep(50*time.Millisecond) {
			return false
		}
		if g.probe(name, "/healthz") {
			return false
		}
	}
	return true
}

// NodeStatus is one worker's externally visible routing state.
type NodeStatus struct {
	Name        string `json:"name"`
	Healthy     bool   `json:"healthy"`
	BreakerOpen bool   `json:"breaker_open"`
	Routed      int64  `json:"routed"`
}

// Nodes returns the fleet's routing state, ring order not guaranteed.
func (g *Gateway) Nodes() []NodeStatus {
	out := make([]NodeStatus, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, NodeStatus{
			Name:        n.name,
			Healthy:     n.isHealthy(),
			BreakerOpen: n.breakerOpen(),
			Routed:      n.routed.Value(),
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}
