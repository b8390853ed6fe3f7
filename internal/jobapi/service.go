package jobapi

import (
	"errors"
	"net/http"
	"time"

	"xplace/internal/obs"
	"xplace/internal/serve"
)

// Status is the wire form of a job — the body of 202/GET/cancel
// responses and of the SSE "done" event, on a worker and on the gateway
// alike. It is declared once, as serve.Status, and named here.
type Status = serve.Status

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
		return j.Status(), nil
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
	return j.Status(), j.Progress, true
}

func (s schedulerService) List() []Status {
	jobs := s.Jobs()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}
