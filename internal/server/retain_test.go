package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/layout"
)

// TestTerminalJobsDropSpec: a job canceled in the queue, one canceled while
// running and one that finished hold no spec (the n×n target and the
// layout text), and the finished job's mask download is
// layout.FromMask(mask, field_nm/n).
func TestTerminalJobsDropSpec(t *testing.T) {
	s := New(Config{Executors: 1})
	ts := httptest.NewServer(s)
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		ts.Close()
	}()
	submit := func(body string) *Job {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply submitReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d, %v", resp.StatusCode, err)
		}
		j, ok := s.Job(reply.ID)
		if !ok {
			t.Fatalf("job %s not registered", reply.ID)
		}
		return j
	}
	wait := func(j *Job) {
		t.Helper()
		select {
		case <-j.Done():
		case <-time.After(2 * time.Minute):
			t.Fatalf("job %s did not finish", j.ID)
		}
	}
	const small = `{"case":1,"n":128,"field_nm":512,"kernels":8,"workers":1,
		"stages":[{"scale":4,"iters":3},{"scale":2,"iters":2}]}`

	// One executor: the job behind the long one waits in the queue.
	running := submit(`{"case":2,"n":128,"field_nm":512,"kernels":8,"workers":1,
		"stages":[{"scale":4,"iters":1500}]}`)
	queued := submit(small)
	if !queued.Cancel() {
		t.Fatal("the job behind the long one was not canceled in the queue")
	}
	running.Cancel()
	wait(running)
	done := submit(small)
	wait(done)

	for _, j := range []*Job{queued, running, done} {
		j.mu.Lock()
		state, spec := j.state, j.spec
		j.mu.Unlock()
		if spec != nil {
			t.Errorf("job %s (%s) still holds its spec", j.ID, state)
		}
	}
	if st := done.State(); st != StateDone {
		t.Fatalf("job %s: state %s, want done", done.ID, st)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + done.ID + "/mask")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("mask: HTTP %d, %v", resp.StatusCode, err)
	}
	done.mu.Lock()
	mask := done.mask
	done.mu.Unlock()
	var want bytes.Buffer
	if err := layout.FromMask(mask, 512.0/128).Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("mask download (%d bytes) differs from layout.FromMask(mask, 4 nm) (%d bytes)", len(got), want.Len())
	}
}
