package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xplace/internal/gateway"
	"xplace/internal/jobapi"
	"xplace/internal/serve"
)

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// worker is one spawned xserve process in the fleet under test.
type worker struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
}

func buildXserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "xserve-under-test")
	if out, err := exec.Command("go", "build", "-o", bin, "../xserve").CombinedOutput(); err != nil {
		t.Fatalf("building xserve: %v\n%s", err, out)
	}
	return bin
}

// startWorker spawns an xserve daemon. Every worker (and the reference)
// runs the same -engines/-workers configuration: determinism across the
// fleet — the property failover reruns rely on — holds for equal worker
// counts.
func startWorker(t *testing.T, bin string) *worker {
	t.Helper()
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	logf, err := os.CreateTemp(t.TempDir(), "xserve-*.log")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-addr", addr, "-engines", "1", "-workers", "2", "-queue", "8")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w := &worker{cmd: cmd, base: "http://" + addr, log: logf}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(w.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return w
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if b, rerr := os.ReadFile(logf.Name()); rerr == nil {
		t.Logf("worker log:\n%s", b)
	}
	t.Fatal("worker never became ready")
	return nil
}

// sigkill is the chaos event: no drain, no goodbye.
func (w *worker) sigkill(t *testing.T) {
	t.Helper()
	if err := w.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = w.cmd.Process.Wait()
}

func chaosRequest(seed int64) jobapi.Request {
	return jobapi.Request{Bench: "adaptec1", Scale: 0.02, Seed: seed, MaxIter: 60}
}

// referenceResults runs the same requests on one undisturbed worker and
// returns state/hpwl/overflow/iterations per seed.
func referenceResults(t *testing.T, base string, seeds []int64) map[int64]map[string]any {
	t.Helper()
	out := make(map[int64]map[string]any)
	for _, seed := range seeds {
		b, _ := json.Marshal(chaosRequest(seed))
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		var acc map[string]any
		if derr := json.NewDecoder(resp.Body).Decode(&acc); derr != nil {
			t.Fatal(derr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("reference submit: %d (%v)", resp.StatusCode, acc)
		}
		id := int(acc["id"].(float64))
		deadline := time.Now().Add(3 * time.Minute)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("reference job %d never finished", id)
			}
			r, gerr := http.Get(fmt.Sprintf("%s/jobs/%d", base, id))
			if gerr != nil {
				t.Fatal(gerr)
			}
			var st map[string]any
			_ = json.NewDecoder(r.Body).Decode(&st)
			r.Body.Close()
			if st["state"] == "succeeded" {
				out[seed] = st
				break
			}
			if s, _ := st["state"].(string); s == "failed" || s == "canceled" || s == "timed-out" {
				t.Fatalf("reference job %d ended %v: %v", id, st["state"], st["error"])
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	return out
}

// TestChaosKillWorkerMidTrajectory is the tentpole's acceptance gate:
// three real xserve workers behind the gateway, four jobs in flight, one
// worker SIGKILLed while running a job mid-trajectory. Every job must
// complete under its original gateway ID — the killed worker's jobs
// failing over to survivors — with final numbers bit-identical to an
// undisturbed reference run, no job duplicated or lost, and the xgate_*
// counters accounting for every route and failover.
func TestChaosKillWorkerMidTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos test")
	}
	bin := buildXserve(t)
	fleet := []*worker{startWorker(t, bin), startWorker(t, bin), startWorker(t, bin)}
	byBase := map[string]*worker{}
	nodes := make([]string, len(fleet))
	for i, w := range fleet {
		nodes[i] = w.base
		byBase[w.base] = w
	}

	g, err := gateway.New(gateway.Options{
		Nodes:       nodes,
		ProbePeriod: 50 * time.Millisecond,
		RetryAfter:  100 * time.Millisecond,
		RouteWait:   60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = g.Close(ctx)
	}()

	seeds := []int64{1, 2, 3, 4}
	jobs := make(map[int64]*gateway.Job, len(seeds)) // seed -> job
	for _, seed := range seeds {
		j, serr := g.Submit(chaosRequest(seed))
		if serr != nil {
			t.Fatalf("submit seed %d: %v", seed, serr)
		}
		jobs[seed] = j
	}
	if got := len(g.Jobs()); got != len(seeds) {
		t.Fatalf("gateway tracks %d jobs, submitted %d", got, len(seeds))
	}

	// Kill the worker of the first job seen mid-trajectory (past iteration
	// 8, not yet terminal) — a genuine mid-placement crash.
	var victim string
	deadline := time.Now().Add(2 * time.Minute)
killSearch:
	for time.Now().Before(deadline) {
		for _, j := range jobs {
			st := j.Status()
			if st.Progress != nil && st.Progress.Iter >= 8 && !st.State.Terminal() && st.Node != "" {
				victim = st.Node
				break killSearch
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if victim == "" {
		t.Fatal("no job was observed mid-trajectory; cannot stage the crash")
	}
	byBase[victim].sigkill(t)
	t.Logf("killed worker %s", victim)

	// Every job completes under its original ID.
	for seed, j := range jobs {
		deadline := time.Now().Add(4 * time.Minute)
		st := j.Status()
		for st.Finished == nil {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d (job %d) never finished after the kill: %+v", seed, st.ID, st)
			}
			time.Sleep(5 * time.Millisecond)
			st = j.Status()
		}
		if st.State != serve.Succeeded {
			t.Fatalf("seed %d (job %d): %+v", seed, st.ID, st)
		}
	}

	// No duplicates, no losses: exactly the submitted jobs exist.
	if got := len(g.Jobs()); got != len(seeds) {
		t.Errorf("gateway tracks %d jobs after chaos, want %d", got, len(seeds))
	}

	// Bit-identical to an undisturbed run: a fresh reference worker with
	// identical flags places the same four requests; every final number
	// must match exactly, failovers included.
	ref := referenceResults(t, startWorker(t, bin).base, seeds)
	failedOver := 0
	for seed, j := range jobs {
		st := j.Status()
		failedOver += st.Failovers
		want := ref[seed]
		if st.HPWL != want["hpwl"].(float64) {
			t.Errorf("seed %d: hpwl %v, reference %v (must be bit-identical)", seed, st.HPWL, want["hpwl"])
		}
		if st.Overflow != want["overflow"].(float64) {
			t.Errorf("seed %d: overflow %v, reference %v", seed, st.Overflow, want["overflow"])
		}
		if float64(st.Iterations) != want["iterations"].(float64) {
			t.Errorf("seed %d: iterations %v, reference %v", seed, st.Iterations, want["iterations"])
		}
	}
	if failedOver == 0 {
		t.Error("kill mid-trajectory caused no failovers — the chaos never bit")
	}

	// Metric accounting: every assignment is an initial route or a
	// failover re-route; every failover is visible.
	reg := metricValues(t, g)
	if reg["xgate_route_total"] != float64(len(seeds))+reg["xgate_failover_total"] {
		t.Errorf("route_total %v != submissions %d + failover_total %v",
			reg["xgate_route_total"], len(seeds), reg["xgate_failover_total"])
	}
	if int(reg["xgate_failover_total"]) != failedOver {
		t.Errorf("failover_total %v, job statuses say %d", reg["xgate_failover_total"], failedOver)
	}
	if reg["xgate_shed_total"] != 0 {
		t.Errorf("shed_total %v, want 0 — no job may be dropped", reg["xgate_shed_total"])
	}
}

// metricValues scrapes the gateway registry's un-labelled series.
func metricValues(t *testing.T, g *gateway.Gateway) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := g.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
			out[name] = v
		}
	}
	return out
}
