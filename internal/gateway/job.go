package gateway

import (
	"sync"
	"time"

	"xplace/internal/jobapi"
	"xplace/internal/placer"
	"xplace/internal/serve"
)

// Job is one placement request as the gateway tracks it. The client
// sees exactly one job ID for the request's whole life — across worker
// retries, failovers to other nodes, and gateway restarts — while the
// node/remote-id pair underneath may change.
type Job struct {
	// The progress ring is already deduplicated across failovers (see
	// observe), so a client streaming through a node death sees one
	// monotone sequence of iterations with a single stall at the failover.
	*serve.Progress

	id   int64
	req  jobapi.Request
	body []byte // canonical (normalized) request JSON — the failover resubmission payload
	key  string // cache/routing key

	mu      sync.Mutex
	st      jobapi.Status // everything but Progress, which Status fills from the ring
	maxIter int           // highest iteration delivered; non-increasing snapshots drop

	done chan struct{}
}

// Status returns a snapshot of the job's state in its wire form.
func (j *Job) Status() jobapi.Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.st
	if p, ok := j.Last(); ok {
		st.Progress = &p
	}
	return st
}

// observe appends one progress snapshot and fans it out. Snapshots at
// or below the high-water iteration are dropped: after a failover the
// replacement run replays iterations the client already saw (reruns are
// deterministic, so the dropped ones are bit-identical), and the client
// stream stays monotone and duplicate-free across node deaths.
func (j *Job) observe(sn placer.Snapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.State.Terminal() || sn.Iter <= j.maxIter {
		return
	}
	j.maxIter = sn.Iter
	if j.st.State == serve.Queued {
		j.st.State = serve.Running
		if j.st.Started == nil {
			now := time.Now()
			j.st.Started = &now
		}
	}
	j.Add(sn)
}

// highWater returns the last iteration delivered to the progress ring —
// the Last-Event-ID the gateway presents when it (re)connects to a
// worker's event stream.
func (j *Job) highWater() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.maxIter
}

// assign points the job at the worker that accepted it with ws (initial
// route or failover target).
func (j *Job) assign(node string, ws *jobapi.Status) {
	j.mu.Lock()
	j.st.Node = node
	j.st.RemoteID = ws.ID
	j.st.Cached = j.st.Cached || ws.Cached
	j.mu.Unlock()
}

// current returns the worker the job lives on right now.
func (j *Job) current() (node string, remoteID int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.Node, j.st.RemoteID
}

// markFailedOver records that the job's current node died and returns
// it, so the immediate re-route can avoid it; the failover count becomes
// visible in Status. Only that one re-route excludes the node: one that
// comes back later is routable again — a job can never exclude itself
// out of the fleet. ok is false when the job already finished.
func (j *Job) markFailedOver() (deadNode string, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.State.Terminal() {
		return "", false
	}
	deadNode = j.st.Node
	j.st.Failovers++
	j.st.Node = ""
	j.st.RemoteID = 0
	return deadNode, true
}

// finishLocked merges the worker's terminal status ws (or the one fail
// reports) into the job and closes the fanout. Returns false if another
// path already finished it. Caller holds j.mu.
func (j *Job) finishLocked(ws *jobapi.Status) bool {
	if j.st.State.Terminal() {
		return false
	}
	j.st.State, j.st.Err = ws.State, ws.Err
	j.st.Iterations, j.st.HPWL, j.st.Overflow = ws.Iterations, ws.HPWL, ws.Overflow
	j.st.Cached = j.st.Cached || ws.Cached
	j.st.Resumed, j.st.Fallback = ws.Resumed, ws.Fallback
	now := time.Now()
	j.st.Finished = &now
	if j.st.Started == nil && ws.State == serve.Succeeded {
		sub := j.st.Submitted
		j.st.Started = &sub
	}
	j.Progress.Close()
	return true
}
