package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"xplace/internal/jobapi"
	"xplace/internal/placer"
)

// errJobLost: the worker is reachable but no longer knows the job (it
// restarted without a store, or with an empty one). For the gateway
// that is indistinguishable from a dead node — rerun elsewhere.
var errJobLost = errors.New("gateway: worker no longer knows the job")

// monitorLoop owns one routed job until it is terminal: it relays the
// worker's event stream, distinguishes stream hiccups from node deaths,
// and drives failover. One goroutine per in-flight job.
func (g *Gateway) monitorLoop(j *Job) {
	for {
		err := g.streamJob(j)
		if err == nil {
			return // terminal state relayed and recorded
		}
		if g.ctx.Err() != nil {
			return // gateway shutting down; a durable gateway re-adopts the job on restart
		}
		if errors.Is(err, errJobLost) {
			if !g.failover(j) {
				return
			}
			continue
		}
		// The stream dropped. A live worker answers a status poll — then it
		// was a hiccup (or a drain) and we reconnect with Last-Event-ID; a
		// dead one fails the poll AND the liveness confirm, and the job
		// reruns on the next ring node.
		node, _ := j.current()
		st, serr := g.fetchStatus(j)
		switch {
		case serr == nil && g.finish(j, st):
			return
		case serr == nil:
			if !g.sleep(100 * time.Millisecond) {
				return
			}
		case errors.Is(serr, errJobLost):
			if !g.failover(j) {
				return
			}
		default:
			if g.confirmDead(node) {
				if !g.failover(j) {
					return
				}
			} else if !g.sleep(100 * time.Millisecond) {
				return
			}
		}
	}
}

// failover reruns j on the next ring node after its worker died. The
// job's canonical payload makes the rerun bit-identical to what the
// dead node would have produced, so the client's single job ID simply
// keeps reporting progress. Returns false when the job is over (no
// willing node within RouteWait, or gateway shutdown).
func (g *Gateway) failover(j *Job) bool {
	dead, ok := j.markFailedOver()
	if !ok {
		return false
	}
	g.failoverTotal.Inc()
	if err := g.routeWithRetry(j, dead); err != nil {
		if g.ctx.Err() == nil {
			g.fail(j, fmt.Errorf("gateway: failover after node %s died: %w", dead, err))
		}
		return false
	}
	return true
}

// fetchStatus polls the worker for the job's current state.
func (g *Gateway) fetchStatus(j *Job) (*jobapi.Status, error) {
	node, rid := j.current()
	if node == "" {
		return nil, errJobLost
	}
	code, b, err := g.call(g.ctx, http.MethodGet, fmt.Sprintf("%s/jobs/%d", node, rid), nil)
	switch {
	case err != nil:
		return nil, err
	case code == http.StatusNotFound:
		return nil, errJobLost
	case code != http.StatusOK:
		return nil, fmt.Errorf("node %s: HTTP %d", node, code)
	}
	var ws jobapi.Status
	if err := json.Unmarshal(b, &ws); err != nil {
		return nil, err
	}
	return &ws, nil
}

// streamJob relays one connection's worth of the worker's SSE stream
// into the gateway job. It presents the job's high-water iteration as
// Last-Event-ID, so a reconnect (same node) resumes where the last
// connection dropped, and a failover rerun (new node) streams silently
// until the fresh trajectory passes the iterations the client already
// has — determinism makes the suppressed prefix bit-identical, so
// clients see one gapless, duplicate-free progress stream per job.
// Returns nil only after relaying a terminal "done" event.
func (g *Gateway) streamJob(j *Job) error {
	node, rid := j.current()
	if node == "" {
		return errJobLost
	}
	req, err := http.NewRequestWithContext(g.ctx, http.MethodGet,
		fmt.Sprintf("%s/jobs/%d/events", node, rid), nil)
	if err != nil {
		return err
	}
	if hw := j.highWater(); hw > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(hw))
	}
	resp, err := g.stream.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return errJobLost
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("node %s: events HTTP %d", node, resp.StatusCode)
	}

	events := jobapi.NewEventReader(resp.Body)
	for {
		ev, err := events.Next()
		if err == io.EOF {
			return fmt.Errorf("node %s: event stream ended without done", node)
		}
		if err != nil {
			return err
		}
		switch ev.Name {
		case jobapi.EventProgress:
			var sn placer.Snapshot
			if json.Unmarshal(ev.Data, &sn) == nil {
				j.observe(sn)
			}
		case jobapi.EventDone:
			var ws jobapi.Status
			if json.Unmarshal(ev.Data, &ws) == nil && g.finish(j, &ws) {
				return nil
			}
			return fmt.Errorf("node %s: malformed done event", node)
		case jobapi.EventDraining:
			// The worker is shutting down gracefully; its store will carry
			// the job across the restart. Treat as a dropped stream: the
			// monitor polls status and reconnects (or fails over if the
			// node never comes back).
			return fmt.Errorf("node %s: draining", node)
		}
	}
}
