// Package jobapi owns the placement job contract — everything a client
// of cmd/xserve (one worker) or cmd/xgate (a fleet) can observe:
//
//   - Request, the POST /jobs body, and the three identities derived from
//     it: the canonical (normalized) payload, the cache key that doubles
//     as the gateway's consistent-hash routing key, and the serve.Spec a
//     worker runs. A gateway deriving any of these differently from its
//     workers would silently break cache-aware routing and exact failover
//     reruns, so the derivation is shared code, not protocol convention.
//   - Status, the one wire form of a job: an alias of serve.Status, the
//     record the scheduler builds and the gateway merges.
//   - NewMux, the one HTTP surface (routes, error-to-code table, SSE
//     framing and Last-Event-ID resume) over any Service: a
//     serve.Scheduler through ForScheduler, or a gateway.Gateway.
//   - WriteProgress/WriteDone and EventReader, the two ends of the event
//     stream.
package jobapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"xplace/internal/benchgen"
	"xplace/internal/placer"
	"xplace/internal/serve"
)

// Request is the POST /jobs body (at most MaxRequestBytes of JSON). The
// design is a synthetic contest benchmark (as in `xplace -bench`); mode
// selects the GP engine.
//
// Zero-value coercion (part of the API): scale 0 selects the default
// 0.02 and seed 0 selects the default 1 — a request with "seed": 0 names
// the SAME design as "seed": 1, and both land on the same result-cache
// entry. Use an explicit non-zero seed for a distinct design.
type Request struct {
	Bench    string  `json:"bench"`
	Scale    float64 `json:"scale,omitempty"`    // cell-count fraction; 0 = default 0.02
	Seed     int64   `json:"seed,omitempty"`     // design seed; 0 = default 1
	Mode     string  `json:"mode,omitempty"`     // xplace | baseline
	Strategy string  `json:"strategy,omitempty"` // nesterov | lbub (draft tier)
	MaxIter  int     `json:"max_iter,omitempty"` // GP iteration cap
	Grid     int     `json:"grid,omitempty"`     // density grid size
	Timeout  string  `json:"timeout,omitempty"`  // e.g. "30s"
	Label    string  `json:"label,omitempty"`
	Trace    bool    `json:"trace,omitempty"` // record a per-job operator trace
	// Model names a field model from the worker's registry (-models dir)
	// to blend into the early placement stage (§3.3). Empty runs the pure
	// numerical flow. An unknown name is rejected with 400 at submission
	// (serve.UnknownModelError). The model changes the converged result,
	// so it is part of the cache key.
	Model string `json:"model,omitempty"`
	// AllowDraft opts the job into the gateway's graceful-degradation
	// path: when every worker queue is at backpressure, the gateway may
	// answer with a locally computed lbub draft placement instead of
	// shedding the job with 429. Routing metadata only — it never changes
	// the requested placement, so it is excluded from the cache key.
	AllowDraft bool `json:"allow_draft,omitempty"`
}

// Validate rejects requests the scheduler would otherwise run with
// nonsense parameters (or coerce surprisingly).
func (r *Request) Validate() error {
	if r.Bench == "" {
		return errors.New("bench is required")
	}
	if r.Scale < 0 || math.IsNaN(r.Scale) || math.IsInf(r.Scale, 0) {
		return fmt.Errorf("scale %v must be a finite value >= 0 (0 selects the default 0.02)", r.Scale)
	}
	if r.MaxIter < 0 {
		return fmt.Errorf("max_iter %d must be >= 0", r.MaxIter)
	}
	if r.Grid < 0 {
		return fmt.Errorf("grid %d must be >= 0 (0 selects the mode default)", r.Grid)
	}
	// Enum-ish fields are validated HERE, at the HTTP boundary, so an
	// unknown value is a 400 instead of a failure deep in the engine.
	if _, err := placer.ParseStrategy(r.Strategy); err != nil {
		return err
	}
	// Model NAMES are validated against the registry by the worker's
	// scheduler (only it knows what is loaded); here we only keep the
	// name safe for the cache key it becomes part of.
	if strings.ContainsAny(r.Model, "|=\n") {
		return fmt.Errorf("model %q must not contain '|', '=' or newlines", r.Model)
	}
	if len(r.Model) > 128 {
		return fmt.Errorf("model name longer than 128 bytes")
	}
	return nil
}

// Normalize applies the documented zero-value coercions, making the
// request canonical: two requests naming the same placement marshal to
// the same payload and cache key.
func (r *Request) Normalize() {
	if r.Scale == 0 {
		r.Scale = 0.02
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Mode == "" {
		r.Mode = "xplace"
	}
	if r.Strategy == "" {
		r.Strategy = "nesterov"
	}
	if r.Label == "" {
		r.Label = r.Bench
	}
}

// CacheKey is the request's result-cache content address: exactly the
// fields that determine the placement's outcome. Label, trace, timeout
// and allow_draft are excluded — they change reporting, execution limits
// or routing policy, not the converged result. The same key is the
// gateway's consistent-hash routing key, so identical resubmissions land
// on the node that already holds the cached result.
func (r *Request) CacheKey() string {
	// Strategy is part of the content address: the same request under
	// nesterov and lbub converges to different placements, so the two
	// must never collide in the result cache.
	return fmt.Sprintf("bench=%s|scale=%g|seed=%d|mode=%s|strategy=%s|max_iter=%d|grid=%d|model=%s",
		r.Bench, r.Scale, r.Seed, r.Mode, r.Strategy, r.MaxIter, r.Grid, r.Model)
}

// canonicalize is the single validation path — every check that can turn
// a request into a 400 lives here or in Validate. It normalizes the
// request in place and returns its Spec short of the design.
func (r *Request) canonicalize() (spec serve.Spec, bench benchgen.Spec, err error) {
	if err := r.Validate(); err != nil {
		return spec, bench, err
	}
	var ok bool
	if bench, ok = benchgen.FindSpec(r.Bench); !ok {
		return spec, bench, fmt.Errorf("unknown benchmark %q", r.Bench)
	}
	r.Normalize()
	switch r.Mode {
	case "xplace":
		spec.Options = placer.Defaults()
	case "baseline":
		spec.Options = placer.BaselineDefaults()
	default:
		return spec, bench, fmt.Errorf("unknown mode %q", r.Mode)
	}
	spec.Options.Seed = r.Seed
	spec.Options.GridSize = r.Grid
	spec.Options.Strategy, _ = placer.ParseStrategy(r.Strategy) // validated above
	if r.MaxIter > 0 {
		spec.Options.Sched.MaxIter = r.MaxIter
	}
	if r.Timeout != "" {
		if spec.Timeout, err = time.ParseDuration(r.Timeout); err != nil {
			return spec, bench, fmt.Errorf("bad timeout: %v", err)
		}
		if spec.Timeout < 0 {
			return spec, bench, fmt.Errorf("timeout %q must be >= 0", r.Timeout)
		}
	}
	spec.Label, spec.Trace, spec.Model = r.Label, r.Trace, r.Model
	// The normalized request is the job's durable identity: the payload
	// replayed by a restarted daemon (or re-routed by a failing-over
	// gateway), and the content key for the result cache. The expanded
	// netlist is re-derived, never stored.
	spec.Payload, err = json.Marshal(r)
	spec.Key = r.CacheKey()
	return spec, bench, err
}

// Canonical validates and normalizes the request in place and returns
// its canonical payload and cache key without generating the design —
// what a gateway needs to reject, record and route a job.
func (r *Request) Canonical() (payload []byte, key string, err error) {
	spec, _, err := r.canonicalize()
	return spec.Payload, spec.Key, err
}

// ToSpec validates and normalizes the request in place, then expands it
// into the runnable serve.Spec (generated design, placer options, durable
// payload and cache key).
func (r *Request) ToSpec() (serve.Spec, error) {
	spec, bench, err := r.canonicalize()
	if err != nil {
		return serve.Spec{}, err
	}
	spec.Design = benchgen.Generate(bench, r.Scale, r.Seed)
	return spec, nil
}

// Rehydrate rebuilds a Spec from a durable payload — the recovery half
// of ToSpec. The payload is already normalized, so the rebuilt design
// and options are identical to the original submission's.
func Rehydrate(b []byte) (serve.Spec, error) {
	var req Request
	if err := json.Unmarshal(b, &req); err != nil {
		return serve.Spec{}, err
	}
	return req.ToSpec()
}
