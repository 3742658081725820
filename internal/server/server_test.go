package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/litho"
	"repro/internal/optics"
	"repro/internal/server"
)

// smallJob finishes in tens of milliseconds on one CPU: a 128-px grid with
// 8 kernels and a five-iteration two-level schedule. workers=1 keeps the
// event stream fully deterministic.
const smallJob = `{"case":1,"n":128,"field_nm":512,"kernels":8,"workers":1,
	"stages":[{"scale":4,"iters":3},{"scale":2,"iters":2}]}`

// longJob runs ~1500 coarse iterations — long enough that tests can observe
// and interrupt it mid-flight, short enough to finish if nobody does.
const longJob = `{"case":2,"n":128,"field_nm":512,"kernels":8,"workers":1,
	"stages":[{"scale":4,"iters":1500}]}`

// jobStatus mirrors the wire form of GET /jobs/{id}.
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
	Events int    `json:"events"`
	Result *struct {
		Iterations int     `json:"iterations"`
		FinalLoss  float64 `json:"final_loss"`
		MaskSHA256 string  `json:"mask_sha256"`
	} `json:"result,omitempty"`
}

type metricsDoc struct {
	QueueDepth   int              `json:"queue_depth"`
	Jobs         map[string]int   `json:"jobs_by_state"`
	CachedModels int              `json:"cached_models"`
	CachedPlans  int              `json:"cached_fft_plans"`
	Counters     map[string]int64 `json:"counters"`
	Phases       []struct {
		Name  string `json:"name"`
		Count int64  `json:"count"`
	} `json:"phases"`
}

// newTestServer starts a Server behind httptest and tears both down in the
// right order (drain jobs first so SSE streams end, then close the listener).
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		ts.Close()
		http.DefaultClient.CloseIdleConnections()
	})
	return s, ts.URL
}

// submit POSTs a job body and returns the HTTP response and decoded reply.
func submit(t *testing.T, base, body string) (code int, id string, hdr http.Header) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var reply struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&reply)
	return resp.StatusCode, reply.ID, resp.Header
}

func getStatus(t *testing.T, base, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatalf("status %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status %s: decode: %v", id, err)
	}
	return st
}

func getMetrics(t *testing.T, base string) metricsDoc {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	var m metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics: decode: %v", err)
	}
	return m
}

// waitState polls a job until it reaches want (fatal on a different
// terminal state or timeout).
func waitState(t *testing.T, base, id, want string, timeout time.Duration) jobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, base, id)
		if st.State == want {
			return st
		}
		terminal := st.State == "done" || st.State == "failed" || st.State == "canceled"
		if terminal || time.Now().After(deadline) {
			t.Fatalf("job %s: state %q (error %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// goldenSHA runs smallJob serially on a private server and returns its mask
// fingerprint — the reference every concurrent run must reproduce exactly.
func goldenSHA(t *testing.T) string {
	t.Helper()
	_, base := newTestServer(t, server.Config{Executors: 1})
	code, id, _ := submit(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("golden submit: HTTP %d", code)
	}
	st := waitState(t, base, id, "done", 2*time.Minute)
	if st.Result == nil || st.Result.MaskSHA256 == "" {
		t.Fatalf("golden job has no result: %+v", st)
	}
	return st.Result.MaskSHA256
}

// TestSoakConcurrentJobs is the load test the issue asks for: many
// concurrent jobs through a shared server must all complete, every result
// bit-identical to the serial golden run, with bounded heap growth and no
// leaked goroutines.
func TestSoakConcurrentJobs(t *testing.T) {
	const jobs = 12

	baselineGoroutines := runtime.NumGoroutine()
	golden := goldenSHA(t)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	s, base := newTestServer(t, server.Config{QueueCap: jobs + 4, Executors: 4})

	ids := make([]string, jobs)
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := smallJob
			if i%3 == 0 { // mix priority classes; results must not change
				body = strings.Replace(body, `"workers":1,`, `"workers":1,"priority":"interactive",`, 1)
			}
			code, id, _ := submit(t, base, body)
			if code != http.StatusAccepted {
				errs <- fmt.Errorf("job %d: HTTP %d", i, code)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i, id := range ids {
		st := waitState(t, base, id, "done", 2*time.Minute)
		if st.Result == nil {
			t.Fatalf("job %d (%s): done without result", i, id)
		}
		if st.Result.MaskSHA256 != golden {
			t.Errorf("job %d (%s): mask %s differs from serial golden %s",
				i, id, st.Result.MaskSHA256, golden)
		}
	}

	m := getMetrics(t, base)
	if m.Jobs["done"] != jobs {
		t.Errorf("jobs_by_state = %v, want %d done", m.Jobs, jobs)
	}
	// All jobs share one optics config: the kernel model must have been
	// built exactly once and shared, likewise one FFT-plan set.
	if m.CachedModels != 1 {
		t.Errorf("cached_models = %d, want 1", m.CachedModels)
	}
	if m.Counters["server.model_builds"] != 1 {
		t.Errorf("server.model_builds = %d, want 1", m.Counters["server.model_builds"])
	}
	if hits := m.Counters["server.model_hits"]; hits != jobs-1 {
		t.Errorf("server.model_hits = %d, want %d", hits, jobs-1)
	}
	if m.CachedPlans == 0 {
		t.Errorf("cached_fft_plans = 0, want the shared plan cache populated")
	}

	if err := s.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Heap budget: a dozen 128-px jobs should settle far below 64 MiB of
	// retained growth once their scratch is released.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 64<<20 {
		t.Errorf("heap grew by %d bytes across the soak (budget 64 MiB)", growth)
	}

	// Goroutine accounting: executors exited, per-job watchers fired. Allow
	// a little slack for the HTTP server's teardown to finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baselineGoroutines+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d now vs %d at start\n%s",
				n, baselineGoroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestQueueBackpressure fills the queue behind a deliberately slow job and
// checks the documented overflow behavior: 429 with a Retry-After hint, a
// rejection counter, and no phantom job registered.
func TestQueueBackpressure(t *testing.T) {
	const queueCap = 2
	_, base := newTestServer(t, server.Config{QueueCap: queueCap, Executors: 1})

	code, blocker, _ := submit(t, base, longJob)
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit: HTTP %d", code)
	}
	waitState(t, base, blocker, "running", time.Minute)

	// The executor is busy: these occupy the whole waiting queue.
	queued := make([]string, 0, queueCap)
	for i := 0; i < queueCap; i++ {
		code, id, _ := submit(t, base, smallJob)
		if code != http.StatusAccepted {
			t.Fatalf("filler %d: HTTP %d", i, code)
		}
		queued = append(queued, id)
	}

	code, _, hdr := submit(t, base, smallJob)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}
	m := getMetrics(t, base)
	if m.Counters["server.jobs_rejected_full"] != 1 {
		t.Errorf("jobs_rejected_full = %d, want 1", m.Counters["server.jobs_rejected_full"])
	}
	if m.QueueDepth != queueCap {
		t.Errorf("queue_depth = %d, want %d", m.QueueDepth, queueCap)
	}

	// Unblock: cancel the long job; the queued jobs then run to completion,
	// proving a rejected submission did not poison the queue.
	req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+blocker, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
	for _, id := range queued {
		waitState(t, base, id, "done", 2*time.Minute)
	}
}

// TestSubmitRejectsInvalid spot-checks the 400 surface (the fuzz target
// covers the no-panic property exhaustively).
func TestSubmitRejectsInvalid(t *testing.T) {
	_, base := newTestServer(t, server.Config{})
	cases := []struct {
		name, body string
	}{
		{"empty object", `{}`},
		{"unknown field", `{"case":1,"bogus":true}`},
		{"two sources", `{"case":1,"via":2}`},
		{"case out of range", `{"case":99}`},
		{"n not a power of two", `{"case":1,"n":100}`},
		{"n over limit", `{"case":1,"n":65536}`},
		{"bad recipe", `{"case":1,"recipe":"warp"}`},
		{"recipe and stages", `{"case":1,"recipe":"fast","stages":[{"scale":1,"iters":1}]}`},
		{"scale does not divide", `{"case":1,"n":128,"stages":[{"scale":48,"iters":1}]}`},
		{"momentum out of range", `{"case":1,"momentum":1.5}`},
		{"negative tv", `{"case":1,"tv":-1}`},
		{"bad priority", `{"case":1,"priority":"urgent"}`},
		{"engine is not a request field", `{"case":1,"engine":"batch"}`},
		{"trailing data", `{"case":1} {"case":2}`},
		{"not json", `hello`},
		{"grid below kernel support", `{"case":1,"n":128,"field_nm":512,"stages":[{"scale":32,"iters":1}]}`},
		{"budget overflow", `{"case":1,"stages":[{"scale":1,"iters":999999}]}`},
	}
	for _, tc := range cases {
		code, id, _ := submit(t, base, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, code)
		}
		if id != "" {
			t.Errorf("%s: rejected submission returned job id %q", tc.name, id)
		}
	}
	m := getMetrics(t, base)
	if got := m.Counters["server.jobs_rejected_invalid"]; got != int64(len(cases)) {
		t.Errorf("jobs_rejected_invalid = %d, want %d", got, len(cases))
	}
	if len(m.Jobs) != 0 {
		t.Errorf("jobs_by_state = %v, want empty after only rejected submissions", m.Jobs)
	}
}

// TestParseViaMatchesSuite: a job's via case N is bench.PaperVia's, the
// layout every other tool builds under the name viaN.
func TestParseViaMatchesSuite(t *testing.T) {
	spec, err := server.ParseJobRequest([]byte(`{"via":2}`), server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := bench.PaperVia(512, 2048, 2)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != want.Name || !spec.Target.Equal(want.Target, 0) {
		t.Errorf("job via 2 (%s) differs from bench.PaperVia's %s", spec.Name, want.Name)
	}
}

// TestViaJobStopsEarly: a "via" job takes the recipe's early stop
// (core.Recipe), so it runs as many iterations as a core run of the same
// case with core.Via() and core.ViaPatience, not every stage's budget; a
// request's own patience wins over the recipe's.
func TestViaJobStopsEarly(t *testing.T) {
	const job = `{"via":1,"n":128,"field_nm":512,"kernels":8,"workers":1,"recipe":"via"}`
	spec, err := server.ParseJobRequest([]byte(job), server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Patience != core.ViaPatience {
		t.Errorf("via job patience %d, want %d", spec.Patience, core.ViaPatience)
	}
	own, err := server.ParseJobRequest([]byte(`{"via":1,"recipe":"via","patience":5}`), server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if own.Patience != 5 {
		t.Errorf("via job with patience 5 runs with %d", own.Patience)
	}

	model, err := optics.BuildModel(spec.Optics)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(litho.NewSim(model))
	opts.Patience = core.ViaPatience
	o, err := core.New(opts, spec.Target)
	if err != nil {
		t.Fatal(err)
	}
	want, err := o.Run(context.Background(), core.Via())
	if err != nil {
		t.Fatal(err)
	}

	_, base := newTestServer(t, server.Config{Executors: 1})
	code, id, _ := submit(t, base, job)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	st := waitState(t, base, id, "done", 2*time.Minute)
	if st.Result == nil || st.Result.Iterations != want.Iterations {
		t.Errorf("via job result %+v, want %d iterations as core runs with patience %d",
			st.Result, want.Iterations, core.ViaPatience)
	}
}

// TestMaskEndpoint checks the artifact download: 409 before completion,
// layout text after.
func TestMaskEndpoint(t *testing.T) {
	_, base := newTestServer(t, server.Config{Executors: 1})

	code, running, _ := submit(t, base, longJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit blocker: HTTP %d", code)
	}
	waitState(t, base, running, "running", time.Minute)
	resp0, err := http.Get(base + "/jobs/" + running + "/mask")
	if err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusConflict {
		t.Errorf("mask of a running job: HTTP %d, want 409", resp0.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+running, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}

	code, id, _ := submit(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, base, id, "done", 2*time.Minute)
	resp, err := http.Get(base + "/jobs/" + id + "/mask")
	if err != nil {
		t.Fatalf("mask: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mask: HTTP %d", resp.StatusCode)
	}
	buf := make([]byte, 64)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "SIZE 128") {
		t.Errorf("mask body does not carry a layout SIZE header: %q", buf[:n])
	}

	resp2, err := http.Get(base + "/jobs/does-not-exist/mask")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("mask of unknown job: HTTP %d, want 404", resp2.StatusCode)
	}
}
