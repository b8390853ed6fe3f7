package jobapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"xplace/internal/placer"
)

// MaxRequestBytes bounds a POST /jobs body; a larger one is a 413.
const MaxRequestBytes = 1 << 20

// NewMux wires the job API over svc — the whole surface of xserve and
// xgate apart from their binary-specific extras (trace, pprof, /nodes):
//
//	POST /jobs              submit (JSON Request) → 202 + Status
//	GET  /jobs              list, newest first
//	GET  /jobs/{id}         one job's Status
//	GET  /jobs/{id}/events  progress stream (SSE, Last-Event-ID resume)
//	POST /jobs/{id}/cancel  cancel a queued or running job
//	GET  /healthz           liveness: 200 for the whole process lifetime
//	GET  /readyz            readiness: 503 once svc is draining
//	GET  /metrics           svc.Registry() in Prometheus text format
//
// Errors are {"error": msg}: 400 for a malformed id or a rejected
// request, 404 for an unknown job, 413 for an oversized body, and the
// codes of Rejection.
func NewMux(svc Service) *http.ServeMux {
	a := api{svc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", a.submit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, svc.List())
	})
	mux.HandleFunc("GET /jobs/{id}", WithJobID(a.status))
	mux.HandleFunc("GET /jobs/{id}/events", WithJobID(a.events))
	mux.HandleFunc("POST /jobs/{id}/cancel", WithJobID(a.cancel))
	// Liveness says nothing about the backend: a draining daemon is still
	// alive and must not be restarted by a supervisor.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// The gateway routes on readiness, so a draining node stops receiving
	// jobs before its queue rejects them.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if svc.Draining() {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	// The scrape touches only the registry mutex and instrument atomics,
	// never a job lock.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = svc.Registry().WritePrometheus(w)
	})
	return mux
}

// WriteJSON writes v as an indented JSON response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes the contract's error body.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// WithJobID adapts a handler of one job to a {id} route, answering 400
// itself when the path segment is not a number.
func WithJobID(h func(w http.ResponseWriter, r *http.Request, id int64)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, errors.New("bad job id"))
			return
		}
		h(w, r, id)
	}
}

// NoJob answers 404 for an id the backend does not know.
func NoJob(w http.ResponseWriter, id int64) {
	WriteError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
}

type api struct{ svc Service }

func (a api) submit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		WriteError(w, code, err)
		return
	}
	st, err := a.svc.Accept(req)
	if err != nil {
		code := http.StatusInternalServerError
		var rej *Rejection
		if errors.As(err, &rej) {
			code = rej.Code
			if rej.RetryAfter > 0 {
				// Graceful shed: the client is told when to come back.
				w.Header().Set("Retry-After", strconv.Itoa(int(rej.RetryAfter/time.Second)+1))
			}
		}
		WriteError(w, code, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, st)
}

func (a api) status(w http.ResponseWriter, _ *http.Request, id int64) {
	st, _, ok := a.svc.Lookup(id)
	if !ok {
		NoJob(w, id)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (a api) cancel(w http.ResponseWriter, r *http.Request, id int64) {
	if !a.svc.Cancel(id) {
		NoJob(w, id)
		return
	}
	a.status(w, r, id)
}

// events streams per-iteration snapshots as Server-Sent Events: first the
// retained history, then live updates until the job finishes ("done"),
// the server drains ("draining") or the client goes away. A reconnecting
// client that presents Last-Event-ID resumes after that iteration instead
// of replaying the stream from scratch.
func (a api) events(w http.ResponseWriter, r *http.Request, id int64) {
	_, p, ok := a.svc.Lookup(id)
	if !ok {
		NoJob(w, id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusNotImplemented, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Subscribe before replaying history so no snapshot is missed;
	// duplicates at the seam are filtered by iteration number. The headers
	// go out only now: a client holding the 200 is already subscribed.
	live, unsub := p.Subscribe(64)
	defer unsub()
	fl.Flush()
	// Everything at or before Last-Event-ID is already delivered. An
	// unparseable header is ignored (full replay).
	lastIter, err := strconv.Atoi(r.Header.Get("Last-Event-ID"))
	if err != nil || lastIter < 0 {
		lastIter = -1
	}
	emit := func(sn placer.Snapshot) {
		if sn.Iter > lastIter {
			lastIter = sn.Iter
			_ = WriteProgress(w, sn)
			fl.Flush()
		}
	}
	for _, sn := range p.Snapshots() {
		emit(sn)
	}
	// Drain watch: http.Server.Shutdown does NOT cancel in-flight request
	// contexts, so a stream held open by a long job would hold graceful
	// shutdown hostage for its whole budget. Poll the drain flag and close
	// the stream promptly instead; the client reconnects after the restart
	// (the job is recovered from the store).
	drain := time.NewTicker(200 * time.Millisecond)
	defer drain.Stop()
	for {
		select {
		case sn, open := <-live:
			if !open { // job finished
				st, _, _ := a.svc.Lookup(id)
				_ = WriteDone(w, st)
				fl.Flush()
				return
			}
			emit(sn)
		case <-drain.C:
			if a.svc.Draining() {
				fmt.Fprint(w, "event: draining\ndata: {}\n\n")
				fl.Flush()
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
