package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func TestDeriveSeedIsPureAndSeparatesStreams(t *testing.T) {
	seen := map[int64]string{}
	for _, stream := range []string{"gp-small/design", "gp-nn/design", "serve/job", "serve/plain/job"} {
		for i := 0; i < 64; i++ {
			s := deriveSeed(1, stream, i)
			if s <= 0 {
				t.Fatalf("deriveSeed(1,%q,%d) = %d, want positive", stream, i, s)
			}
			if s != deriveSeed(1, stream, i) {
				t.Fatalf("deriveSeed is not deterministic")
			}
			key := fmt.Sprintf("%s/%d", stream, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed %d derived for both %s and %s", s, prev, key)
			}
			seen[s] = key
		}
	}
	if deriveSeed(1, "serve/job", 0) == deriveSeed(2, "serve/job", 0) {
		t.Errorf("run seeds 1 and 2 derive the same job seed")
	}
}

func TestScheduleIsAPureFunctionOfSeed(t *testing.T) {
	const n = 50
	a := buildSchedule(3, "serve", n, serveRate)
	if !reflect.DeepEqual(a, buildSchedule(3, "serve", n, serveRate)) {
		t.Fatal("the same seed built two different schedules")
	}
	if reflect.DeepEqual(a, buildSchedule(4, "serve", n, serveRate)) {
		t.Fatal("seeds 3 and 4 built the same schedule")
	}
	// A longer schedule only appends: the run length must not change the
	// arrivals both lengths share.
	if longer := buildSchedule(3, "serve", n+20, serveRate); !reflect.DeepEqual(a, longer[:n]) {
		t.Error("a longer schedule changed its first arrivals")
	}

	freshSeeds := map[int64]bool{}
	resubmits := 0
	for i, arr := range a {
		if arr.Idx != i {
			t.Fatalf("arrival %d has index %d", i, arr.Idx)
		}
		if want := time.Duration(float64(i) / serveRate * float64(time.Second)); arr.Due != want {
			t.Errorf("arrival %d due at %v, want the fixed-rate %v", i, arr.Due, want)
		}
		if arr.ResubmitOf < 0 {
			if freshSeeds[arr.JobSeed] {
				t.Errorf("arrival %d: fresh job reuses seed %d", i, arr.JobSeed)
			}
			freshSeeds[arr.JobSeed] = true
			continue
		}
		resubmits++
		orig := a[arr.ResubmitOf]
		switch {
		case i%3 != 2:
			t.Errorf("arrival %d resubmits but i mod 3 = %d", i, i%3)
		case orig.ResubmitOf >= 0:
			t.Errorf("arrival %d resubmits arrival %d, itself a resubmission", i, arr.ResubmitOf)
		case arr.ResubmitOf > i-resubmitGap:
			t.Errorf("arrival %d resubmits arrival %d, fewer than %d places earlier", i, arr.ResubmitOf, resubmitGap)
		case orig.JobSeed != arr.JobSeed:
			t.Errorf("arrival %d carries seed %d, its original %d", i, arr.JobSeed, orig.JobSeed)
		}
	}
	// Every i mod 3 = 2 from the first eligible one on is a resubmission.
	if want := (n - resubmitGap) / 3; resubmits < want-1 {
		t.Errorf("%d resubmissions in %d arrivals, want about %d", resubmits, n, want)
	}
}

func TestParsePorts(t *testing.T) {
	got, err := parsePorts("18081, 18082")
	if err != nil || !reflect.DeepEqual(got, []string{"127.0.0.1:18081", "127.0.0.1:18082"}) {
		t.Errorf("parsePorts = %v, %v", got, err)
	}
	for _, bad := range []string{"", "18081", "1,2,3", "x,y", "0,1", "70000,1"} {
		if _, err := parsePorts(bad); err == nil {
			t.Errorf("parsePorts(%q) accepted", bad)
		}
	}
}

// TestRunJobFollowsTheEventStream drives the load generator's client
// against a stand-in for the job API: it must time the first event and the
// done event from the due time and decode the final status.
func TestRunJobFollowsTheEventStream(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id": 7, "state": "queued"}`)
	})
	mux.HandleFunc("GET /jobs/7/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		time.Sleep(5 * time.Millisecond)
		fmt.Fprint(w, "id: 1\nevent: progress\ndata: {\"Iter\":1}\n\n")
		fl.Flush()
		time.Sleep(5 * time.Millisecond)
		fmt.Fprint(w, "event: done\ndata: {\"id\":7,\"state\":\"succeeded\",\"cached\":true,\"iterations\":100,\"hpwl\":123.5,\"node\":\"http://n\",\"remote_id\":3}\n\n")
		fl.Flush()
	})
	mux.HandleFunc("POST /full/jobs", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	rec := newRecorder()
	due := time.Now().Add(-3 * time.Millisecond) // the generator ran 3 ms late
	o := runJob(srv.Client(), srv.URL, jobBody(1), due, rec, "serve#0")
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.late < 3*time.Millisecond {
		t.Errorf("late = %v, want at least the 3 ms the request was overdue", o.late)
	}
	// Only lower bounds hold under load: the server sleeps 5 ms before each
	// event and the request was 3 ms overdue, but the client may read the
	// first event late, so total - ttfs can be less than the second sleep.
	if !(o.submitRTT > 0 && o.ttfs >= 8*time.Millisecond && o.total >= 13*time.Millisecond && o.total >= o.ttfs) {
		t.Errorf("rtt %v ttfs %v total %v: want ttfs and total counted from the due time", o.submitRTT, o.ttfs, o.total)
	}
	st := o.status
	if st.State != "succeeded" || !st.Cached || st.Iterations != 100 || st.HPWL != 123.5 || st.Node != "http://n" || st.RemoteID != 3 {
		t.Errorf("decoded status %+v", st)
	}
	for _, name := range []string{"job", "gateway.submit", "gateway.stream_open", "gateway.first_event", "gateway.to_done"} {
		if len(rec.durations(name)) != 1 {
			t.Errorf("span %q recorded %d times, want once", name, len(rec.durations(name)))
		}
	}

	if o := runJob(srv.Client(), srv.URL+"/full", jobBody(1), time.Now(), nil, ""); o.err == nil {
		t.Error("a refused submission was not reported as an error")
	}
}
