package jobapi

import (
	"errors"
	"net/http"
	"time"

	"xplace/internal/obs"
	"xplace/internal/placer"
	"xplace/internal/serve"
)

// Status is the wire form of a job — the body of 202/GET/cancel
// responses and of the SSE "done" event, on a worker and on the gateway
// alike. Node, RemoteID, Draft and Failovers are set only by a gateway;
// Resumed only by a worker (a gateway passes its worker's value through).
type Status struct {
	ID         int64            `json:"id"`
	Label      string           `json:"label"`
	State      string           `json:"state"` // serve.State.String()
	Err        string           `json:"error,omitempty"`
	Node       string           `json:"node,omitempty"`      // worker currently running the job
	RemoteID   int64            `json:"remote_id,omitempty"` // job id on that worker
	Draft      bool             `json:"draft,omitempty"`     // degraded to the gateway's local lbub tier
	Failovers  int              `json:"failovers,omitempty"` // reruns after a worker death
	Submitted  time.Time        `json:"submitted"`
	Started    *time.Time       `json:"started,omitempty"`
	Finished   *time.Time       `json:"finished,omitempty"`
	Progress   *placer.Snapshot `json:"progress,omitempty"`
	Iterations int              `json:"iterations,omitempty"`
	HPWL       float64          `json:"hpwl,omitempty"`
	Overflow   float64          `json:"overflow,omitempty"`
	Cached     bool             `json:"cached,omitempty"`    // served from the result cache
	Recovered  bool             `json:"recovered,omitempty"` // replayed from the WAL after a restart
	Resumed    bool             `json:"resumed,omitempty"`   // continued from a placer checkpoint
	Fallback   string           `json:"fallback,omitempty"`  // strategy that rescued a diverged run
}

// OptTime is the wire form of a possibly-unset timestamp.
func OptTime(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}

// FromServe converts a scheduler job's status to the wire form.
func FromServe(st serve.Status) Status {
	out := Status{
		ID:         st.ID,
		Label:      st.Label,
		State:      st.State.String(),
		Err:        st.Err,
		Submitted:  st.Submitted,
		Started:    OptTime(st.Started),
		Finished:   OptTime(st.Finished),
		Iterations: st.Iterations,
		HPWL:       st.HPWL,
		Overflow:   st.Overflow,
		Cached:     st.Cached,
		Recovered:  st.Recovered,
		Resumed:    st.Resumed,
		Fallback:   st.Fallback,
	}
	if st.Progress.Iter > 0 || st.Progress.HPWL > 0 {
		out.Progress = &st.Progress
	}
	return out
}

// Service is the job backend behind NewMux. It exists so one set of
// handlers serves both a worker's scheduler and the gateway, and so the
// contract tests can run against either.
type Service interface {
	// Accept validates and takes one job. A refusal is a *Rejection.
	Accept(Request) (Status, error)
	// Lookup returns one job's status and its snapshot history and live
	// feed; false for an unknown id.
	Lookup(id int64) (Status, *serve.Progress, bool)
	// List returns every known job, newest first.
	List() []Status
	// Cancel cancels a job; false for an unknown id.
	Cancel(id int64) bool
	// Draining reports that shutdown has begun: /readyz answers 503 and
	// open event streams end with a "draining" event.
	Draining() bool
	// Registry is what GET /metrics renders.
	Registry() *obs.Registry
}

// Rejection is a refused submission and its place in the HTTP contract:
//
//	400  invalid request, unknown benchmark or model — never retryable
//	429  queue full / fleet at backpressure (Retry-After when RetryAfter > 0)
//	503  the backend is draining
type Rejection struct {
	Code       int
	RetryAfter time.Duration
	Err        error
}

func (e *Rejection) Error() string { return e.Err.Error() }
func (e *Rejection) Unwrap() error { return e.Err }

// ForScheduler adapts a worker's scheduler to Service. Cancel, Draining
// and Registry are the scheduler's own.
func ForScheduler(s *serve.Scheduler) Service { return schedulerService{s} }

type schedulerService struct{ *serve.Scheduler }

func (s schedulerService) Accept(req Request) (Status, error) {
	spec, err := req.ToSpec()
	if err != nil {
		return Status{}, &Rejection{Code: http.StatusBadRequest, Err: err}
	}
	j, err := s.Submit(spec)
	switch {
	case err == nil:
		return FromServe(j.Status()), nil
	case errors.Is(err, serve.ErrQueueFull):
		return Status{}, &Rejection{Code: http.StatusTooManyRequests, Err: err}
	case errors.Is(err, serve.ErrDraining):
		return Status{}, &Rejection{Code: http.StatusServiceUnavailable, Err: err}
	}
	// What is left is serve.UnknownModelError: a model this node does not
	// hold can never succeed here.
	return Status{}, &Rejection{Code: http.StatusBadRequest, Err: err}
}

func (s schedulerService) Lookup(id int64) (Status, *serve.Progress, bool) {
	j, ok := s.Job(id)
	if !ok {
		return Status{}, nil, false
	}
	return FromServe(j.Status()), j.Progress, true
}

func (s schedulerService) List() []Status {
	jobs := s.Jobs()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = FromServe(j.Status())
	}
	return out
}
