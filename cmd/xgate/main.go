// Command xgate is the fault-tolerant placement gateway: the job API of
// internal/jobapi (see jobapi.NewMux for the endpoints, gateway.NewMux
// for /nodes) served over a fleet of xserve workers.
//
// Jobs route by consistent hash of their content key, so identical
// resubmissions land on the node whose result cache already holds them.
// Workers are health-checked; transient submit failures retry with
// backoff; a worker that dies mid-job has its jobs rerun on the next
// ring node (deterministic placement makes the rerun bit-identical, so
// the client's single job ID just keeps reporting progress). Under
// total overload, allow_draft jobs degrade to a local lbub draft tier
// and the rest shed with 429 + Retry-After.
//
// Example:
//
//	xserve -addr :8081 -store /var/lib/xserve-1 &
//	xserve -addr :8082 -store /var/lib/xserve-2 &
//	xgate -addr :8080 -nodes http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	      -store /var/lib/xgate -draft
//	curl -s -X POST localhost:8080/jobs \
//	    -d '{"bench":"adaptec1","scale":0.02,"allow_draft":true}'
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xplace/internal/gateway"
	"xplace/internal/jobstore"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		nodes    = flag.String("nodes", "", "comma-separated worker base URLs (required)")
		storeDir = flag.String("store", "", "durable gateway WAL directory (empty = in-memory only)")
		draft    = flag.Bool("draft", false, "enable the local lbub draft tier for allow_draft jobs under overload")
	)
	flag.Parse()
	fleet := splitNodes(*nodes)
	if len(fleet) == 0 {
		log.Fatal("xgate: -nodes is required (comma-separated worker base URLs)")
	}

	var store *jobstore.Store
	if *storeDir != "" {
		var err error
		store, err = jobstore.Open(*storeDir)
		if err != nil {
			log.Fatalf("xgate: opening store: %v", err)
		}
	}
	g, err := gateway.New(gateway.Options{Nodes: fleet, Store: store, Draft: *draft})
	if err != nil {
		log.Fatalf("xgate: %v", err)
	}

	srv := &http.Server{Addr: *addr, Handler: gateway.NewMux(g)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("xgate: listening on %s, fronting %d workers: %s",
		*addr, len(fleet), strings.Join(fleet, ", "))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("xgate: %v — shutting down", sig)
	case err := <-errc:
		log.Printf("xgate: server error: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		<-sigc
		cancel()
	}()
	if err := g.Close(ctx); err != nil {
		log.Printf("xgate: close: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("xgate: http shutdown: %v", err)
	}
	log.Printf("xgate: bye")
}

func splitNodes(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		n = strings.TrimSpace(strings.TrimRight(strings.TrimSpace(n), "/"))
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}
