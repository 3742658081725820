package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/server"
)

func cancelJob(t *testing.T, base, id string) jobStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel %s: %v", id, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel %s: HTTP %d", id, resp.StatusCode)
	}
	return getStatus(t, base, id)
}

// TestCancelQueuedJob cancels a job that is still waiting: the transition
// is immediate, the executor never touches it, and its SSE stream closes.
func TestCancelQueuedJob(t *testing.T) {
	s, base := newTestServer(t, server.Config{QueueCap: 4, Executors: 1})

	_, blocker, _ := submit(t, base, longJob)
	waitState(t, base, blocker, "running", time.Minute)

	_, queued, _ := submit(t, base, smallJob)
	if st := getStatus(t, base, queued); st.State != "queued" {
		t.Fatalf("filler state %q, want queued", st.State)
	}
	st := cancelJob(t, base, queued)
	if st.State != "canceled" {
		t.Fatalf("canceled queued job reports %q", st.State)
	}
	j, ok := s.Job(queued)
	if !ok {
		t.Fatal("job vanished")
	}
	select {
	case <-j.Done():
	case <-time.After(time.Second):
		t.Fatal("queued job's Done channel not closed after cancel")
	}
	m := getMetrics(t, base)
	if m.Counters["server.jobs_canceled"] != 1 {
		t.Errorf("jobs_canceled = %d, want 1 (no double count)", m.Counters["server.jobs_canceled"])
	}

	cancelJob(t, base, blocker)
	waitState(t, base, blocker, "canceled", time.Minute)
}

// TestCancelRunningJob interrupts a job mid-iteration and requires a prompt
// return: the optimizer must observe the context within one coarse
// iteration, not run out its 1500-iteration budget.
func TestCancelRunningJob(t *testing.T) {
	s, base := newTestServer(t, server.Config{Executors: 1})

	_, id, _ := submit(t, base, longJob)
	waitState(t, base, id, "running", time.Minute)
	// Let it actually iterate before pulling the plug.
	deadline := time.Now().Add(time.Minute)
	for getStatus(t, base, id).Events < 3 {
		if time.Now().After(deadline) {
			t.Fatal("job produced no iteration events")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	cancelJob(t, base, id)
	st := waitState(t, base, id, "canceled", 30*time.Second)
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("cancellation took %v, want prompt return", took)
	}
	if st.Result != nil {
		t.Errorf("canceled job carries a result: %+v", st.Result)
	}

	j, _ := s.Job(id)
	select {
	case <-j.Done():
	case <-time.After(time.Second):
		t.Fatal("running job's Done channel not closed after cancel")
	}
	m := getMetrics(t, base)
	if m.Counters["server.jobs_canceled"] != 1 {
		t.Errorf("jobs_canceled = %d, want exactly 1", m.Counters["server.jobs_canceled"])
	}
	// Canceling a terminal job is a harmless no-op.
	if st := cancelJob(t, base, id); st.State != "canceled" {
		t.Errorf("second cancel flipped state to %q", st.State)
	}
	if m := getMetrics(t, base); m.Counters["server.jobs_canceled"] != 1 {
		t.Errorf("second cancel double-counted: %d", m.Counters["server.jobs_canceled"])
	}
}

// TestGracefulDrain is the SIGTERM path: running and already-queued jobs
// finish, new submissions bounce with 503, Drain returns cleanly.
func TestGracefulDrain(t *testing.T) {
	s, base := newTestServer(t, server.Config{QueueCap: 4, Executors: 1})

	_, running, _ := submit(t, base, smallJob)
	_, queued, _ := submit(t, base, smallJob)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	if code, _, _ := submit(t, base, smallJob); code != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: HTTP %d, want 503", code)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{running, queued} {
		if st := getStatus(t, base, id); st.State != "done" {
			t.Errorf("job %s after drain: %q (error %q), want done", id, st.State, st.Error)
		}
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Queued int    `json:"queued"`
	}
	errDecode := json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if errDecode != nil {
		t.Fatal(errDecode)
	}
	if health.Status != "draining" || health.Queued != 0 {
		t.Errorf("healthz after drain = %+v, want draining with empty queue", health)
	}

	// Idempotent: a second drain returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestDrainDeadlineCancelsStragglers bounds the drain: when the context
// expires, outstanding jobs are cancelled rather than held onto forever.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	s, base := newTestServer(t, server.Config{Executors: 1})

	_, id, _ := submit(t, base, longJob)
	waitState(t, base, id, "running", time.Minute)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain past deadline: err = %v, want DeadlineExceeded", err)
	}
	// Drain returned only after the executor pool exited, so the job is
	// terminal now — no polling needed.
	if st := getStatus(t, base, id); st.State != "canceled" {
		t.Errorf("straggler state %q, want canceled", st.State)
	}
}

// metricsNow reads /metrics in-process, without a network round trip, so
// it runs as close as possible to the moment a test observes a job's end.
func metricsNow(t *testing.T, s *server.Server) metricsDoc {
	t.Helper()
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m metricsDoc
	if err := json.NewDecoder(rr.Body).Decode(&m); err != nil {
		t.Fatalf("metrics: decode: %v", err)
	}
	return m
}

// TestTerminalStateIsCounted: a client that sees a job's terminal state
// sees it counted. For completed jobs, canceled running jobs and a canceled
// queued job, /metrics is read the moment Done() closes and must already
// include the job in server.jobs_completed or server.jobs_canceled. A
// drain past its deadline counts every job it cancels, queued or running.
func TestTerminalStateIsCounted(t *testing.T) {
	const rounds = 4
	s, base := newTestServer(t, server.Config{Executors: 1})
	done := func(id string) <-chan struct{} {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		return j.Done()
	}
	for i := 1; i <= rounds; i++ {
		_, id, _ := submit(t, base, smallJob)
		select {
		case <-done(id):
		case <-time.After(time.Minute):
			t.Fatalf("job %s did not finish", id)
		}
		if got := metricsNow(t, s).Counters["server.jobs_completed"]; got != int64(i) {
			t.Fatalf("completed job %d: jobs_completed = %d when Done() closed, want %d", i, got, i)
		}
	}
	for i := 1; i <= rounds; i++ {
		_, id, _ := submit(t, base, longJob)
		waitState(t, base, id, "running", time.Minute)
		ch := done(id)
		cancelJob(t, base, id)
		select {
		case <-ch:
		case <-time.After(30 * time.Second):
			t.Fatalf("canceled job %s did not end", id)
		}
		if got := metricsNow(t, s).Counters["server.jobs_canceled"]; got != int64(i) {
			t.Fatalf("canceled job %d: jobs_canceled = %d when Done() closed, want %d", i, got, i)
		}
	}

	// A queued job: the cancel request runs concurrently, and Done() closing
	// is the first thing the test sees of it.
	_, blocker, _ := submit(t, base, longJob)
	waitState(t, base, blocker, "running", time.Minute)
	_, queued, _ := submit(t, base, smallJob)
	ch := done(queued)
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, "/jobs/"+queued, nil))
	}()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("canceled queued job %s did not end", queued)
	}
	if got := metricsNow(t, s).Counters["server.jobs_canceled"]; got != rounds+1 {
		t.Fatalf("canceled queued job: jobs_canceled = %d when Done() closed, want %d", got, rounds+1)
	}
	<-served

	// A drain whose context has already expired cancels one running and
	// one queued job, and counts both.
	d, dbase := newTestServer(t, server.Config{QueueCap: 4, Executors: 1})
	_, running, _ := submit(t, dbase, longJob)
	waitState(t, dbase, running, "running", time.Minute)
	_, queued, _ = submit(t, dbase, smallJob)
	if st := getStatus(t, dbase, queued); st.State != "queued" {
		t.Fatalf("second job state %q, want queued", st.State)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain with an expired context: err = %v, want Canceled", err)
	}
	for _, id := range []string{running, queued} {
		if st := getStatus(t, dbase, id); st.State != "canceled" {
			t.Errorf("job %s after the drain: %q, want canceled", id, st.State)
		}
	}
	if got := metricsNow(t, d).Counters["server.jobs_canceled"]; got != 2 {
		t.Errorf("drain canceled a running and a queued job: jobs_canceled = %d, want 2", got)
	}
}
