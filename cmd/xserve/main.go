// Command xserve is the placement job daemon: the job API of
// internal/jobapi (see jobapi.NewMux for the endpoints) served over the
// internal/serve runtime. Jobs are synthetic contest benchmarks placed by
// a pool of kernel engines; clients submit, poll, stream per-iteration
// progress, and cancel over plain HTTP. On top of the job API the daemon
// serves:
//
//	GET /jobs/{id}/trace  a traced job's operator trace (Chrome trace JSON)
//	GET /debug/pprof/     Go runtime profiles
//
// Example:
//
//	xserve -addr :8080 -engines 2 -queue 8 -store /var/lib/xserve &
//	curl -s -X POST localhost:8080/jobs \
//	    -d '{"bench":"adaptec1","scale":0.02,"seed":1}'
//	curl -N localhost:8080/jobs/1/events
//
// With -store the daemon is durable: every job transition is written to a
// WAL under the store directory, running jobs checkpoint their placer
// state every -checkpoint-every iterations, and a restarted daemon
// re-enqueues unfinished jobs — resuming checkpointed ones mid-trajectory
// with bit-identical final results (same flags and worker count
// assumed). Succeeded results are cached by content: resubmitting an
// identical request returns the finished job immediately ("cached": true)
// without running an engine.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xplace/internal/jobapi"
	"xplace/internal/jobstore"
	"xplace/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		engines   = flag.Int("engines", 2, "engine pool size (max concurrent jobs)")
		queueCap  = flag.Int("queue", 8, "submit queue capacity (full queue rejects)")
		workers   = flag.Int("workers", 0, "kernel workers per engine (0 = NumCPU)")
		overhead  = flag.Duration("launch-overhead", -1, "simulated kernel-launch cost (-1 = default, 0 = off)")
		timeout   = flag.Duration("timeout", 0, "default per-job timeout (0 = none)")
		storeDir  = flag.String("store", "", "durable job store directory (empty = in-memory only)")
		ckptEvery = flag.Int("checkpoint-every", 25, "placer checkpoint period in GP iterations (needs -store)")
		modelsDir = flag.String("models", "", "field-model directory; each artifact is served under its file name (minus extension)")
	)
	flag.Parse()

	var models *serve.ModelRegistry
	if *modelsDir != "" {
		models = serve.NewModelRegistry()
		n, err := models.LoadDir(*modelsDir)
		if err != nil {
			log.Fatalf("xserve: loading models from %s: %v", *modelsDir, err)
		}
		log.Printf("xserve: loaded %d field models from %s: %v", n, *modelsDir, models.Names())
	}

	var store *jobstore.Store
	if *storeDir != "" {
		var err error
		store, err = jobstore.Open(*storeDir)
		if err != nil {
			log.Fatalf("xserve: opening store: %v", err)
		}
	}
	s, err := serve.New(serve.Options{
		Engines:         *engines,
		QueueCap:        *queueCap,
		EngineWorkers:   *workers,
		LaunchOverhead:  *overhead,
		DefaultTimeout:  *timeout,
		Store:           store,
		Rehydrate:       jobapi.Rehydrate,
		CheckpointEvery: *ckptEvery,
		Models:          models,
	})
	if err != nil {
		log.Fatalf("xserve: recovering store: %v", err)
	}
	if store != nil {
		reg := s.Registry()
		recovered := reg.Counter("xserve_store_recovered_jobs", "non-terminal jobs re-enqueued on startup").Value()
		resumed := reg.Counter("xserve_store_resumed_jobs", "recovered jobs resumed from a checkpoint").Value()
		log.Printf("xserve: store %s: re-enqueued %d unfinished jobs (%d resumed from checkpoints), %d cached results",
			*storeDir, recovered, resumed, store.CacheLen())
		for _, j := range s.Jobs() {
			if st := j.Status(); st.Recovered && !st.State.Terminal() {
				how := "from scratch"
				if st.Resumed {
					how = "resuming mid-trajectory"
				}
				log.Printf("xserve: recovered job %d (%s) %s", st.ID, st.Label, how)
			}
		}
	}

	srv := &http.Server{Addr: *addr, Handler: newMux(s)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("xserve: listening on %s (%d engines, queue %d)", *addr, *engines, *queueCap)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("xserve: %v — draining", sig)
	case err := <-errc:
		log.Printf("xserve: server error: %v", err)
	}

	// Graceful shutdown. The scheduler drain starts FIRST (concurrently):
	// open SSE streams poll Draining() and close themselves, so the HTTP
	// shutdown is not held open for its whole budget by live streams — the
	// historical 30s hang. A second signal, or the 30s budget, cancels the
	// remaining jobs.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		<-sigc
		cancel()
	}()
	drainc := make(chan error, 1)
	go func() { drainc <- s.Shutdown(ctx) }()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("xserve: http shutdown: %v", err)
	}
	if err := <-drainc; err != nil {
		log.Printf("xserve: drain cut short: %v", err)
	}
	if store != nil {
		if err := store.Close(); err != nil {
			log.Printf("xserve: closing store: %v", err)
		}
	}
	log.Printf("xserve: bye")
}

// newMux is the job API over the scheduler plus the daemon's own
// diagnostics.
func newMux(s *serve.Scheduler) *http.ServeMux {
	mux := jobapi.NewMux(jobapi.ForScheduler(s))
	mux.HandleFunc("GET /jobs/{id}/trace", jobapi.WithJobID(handleTrace(s)))
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// handleTrace serves a job's operator trace as Chrome trace_event JSON
// (load it at chrome://tracing or ui.perfetto.dev). 404 unless the job was
// submitted with "trace": true and has started.
func handleTrace(s *serve.Scheduler) func(http.ResponseWriter, *http.Request, int64) {
	return func(w http.ResponseWriter, _ *http.Request, id int64) {
		j, ok := s.Job(id)
		if !ok {
			jobapi.NoJob(w, id)
			return
		}
		t := j.Tracer()
		if t == nil {
			jobapi.WriteError(w, http.StatusNotFound,
				fmt.Errorf("job %d has no trace (submit with \"trace\": true)", id))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = t.WriteChromeTrace(w)
	}
}
