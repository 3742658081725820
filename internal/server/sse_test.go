package server_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/tracestat"
)

// fakeClock is a deterministic telemetry clock: every reading advances one
// millisecond from a fixed epoch, so two identical runs see identical
// timestamps whenever their clock-call sequences match.
func fakeClock() func() time.Time {
	var n atomic.Int64
	base := time.Unix(1700000000, 0)
	return func() time.Time {
		return base.Add(time.Duration(n.Add(1)) * time.Millisecond)
	}
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	ID    int
	Event string
	Data  string
}

// streamSSE collects a job's whole event stream through the terminal "end"
// frame.
func streamSSE(t *testing.T, base, id string) []sseFrame {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: Content-Type %q", ct)
	}
	var frames []sseFrame
	cur := sseFrame{ID: -1}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Event != "" {
				frames = append(frames, cur)
				if cur.Event == "end" {
					return frames
				}
			}
			cur = sseFrame{ID: -1}
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.ID)
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		}
	}
	t.Fatalf("stream ended without an end frame (%d frames, err %v)", len(frames), sc.Err())
	return nil
}

// normalizeFrame zeroes wall-clock-valued fields (at any nesting depth) so
// two runs of the same job can be compared exactly: everything numeric
// that is *not* timing — losses, steps, seq, iteration indices, counters —
// must be bit-identical; timing may not be.
func normalizeFrame(t *testing.T, f sseFrame) sseFrame {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(f.Data), &m); err != nil {
		t.Fatalf("frame %d (%s): data is not JSON: %v", f.ID, f.Event, err)
	}
	scrubTiming(m)
	b, err := json.Marshal(m) // map keys marshal sorted: canonical form
	if err != nil {
		t.Fatal(err)
	}
	f.Data = string(b)
	return f
}

func scrubTiming(v any) {
	m, ok := v.(map[string]any)
	if !ok {
		return
	}
	for k, val := range m {
		switch k {
		case "ts", "sec", "wall_sec", "ilt_sec",
			"sum", "p50", "p95", "p99": // histogram summaries are wall-clock-valued
			m[k] = 0.0
		default:
			scrubTiming(val)
		}
	}
}

// runSSEJob runs smallJob on a fresh deterministic-clock server and
// returns its full event stream.
func runSSEJob(t *testing.T) []sseFrame {
	t.Helper()
	_, base := newTestServer(t, server.Config{Executors: 1, Now: fakeClock()})
	code, id, _ := submit(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	frames := streamSSE(t, base, id)
	waitState(t, base, id, "done", time.Minute)
	return frames
}

// TestSSEGoldenStream pins the serving contract end to end: the stream has
// the documented envelope, its data lines form a trace that passes the
// repo's trace validator, and an identical job replayed on a fresh server
// produces an identical stream modulo timing fields — the determinism the
// soak test asserts on fingerprints, here asserted on every event payload.
func TestSSEGoldenStream(t *testing.T) {
	first := runSSEJob(t)
	second := runSSEJob(t)

	// Envelope: opens with job acceptance, runs 5 iterations over 2 stages,
	// closes with run.end, the recorder's phases flush, then the end frame.
	names := make([]string, len(first))
	for i, f := range first {
		names[i] = f.Event
	}
	want := []string{
		"job.accepted", "run.start",
		"stage.start", "iter", "iter", "iter", "stage.end",
		"stage.start", "iter", "iter", "stage.end",
		"run.end", "phases", "end",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("event sequence:\n got %v\nwant %v", names, want)
	}
	for i, f := range first[:len(first)-1] { // "end" carries no id
		if f.ID != i+1 {
			t.Errorf("frame %d has SSE id %d, want %d", i, f.ID, i+1)
		}
	}

	// The data lines are exactly the trace-sink JSONL encoding: the stream,
	// replayed as a file, must pass tracestat.Read's checks (seq contiguous
	// from 1, ts non-decreasing, schema fields present).
	var trace strings.Builder
	for _, f := range first {
		if f.Event == "end" {
			continue
		}
		trace.WriteString(f.Data)
		trace.WriteByte('\n')
	}
	tr, err := tracestat.Read(strings.NewReader(trace.String()))
	if err != nil {
		t.Fatalf("SSE stream fails the trace reader's checks: %v", err)
	}
	if len(tr.Iters) != 5 {
		t.Errorf("trace reports %d iters, want 5", len(tr.Iters))
	}

	// Determinism: frame-by-frame equality once timing is scrubbed. Losses,
	// steps and every other numeric payload must match to the last bit.
	if len(first) != len(second) {
		t.Fatalf("stream lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Event == "end" {
			continue
		}
		a, b := normalizeFrame(t, first[i]), normalizeFrame(t, second[i])
		if a != b {
			t.Errorf("frame %d differs between runs:\n run1: %+v\n run2: %+v", i, a, b)
		}
	}
}

// TestSSEReplayAfterCompletion: a client connecting after the job finished
// still receives the full history and an immediate end frame.
func TestSSEReplayAfterCompletion(t *testing.T) {
	_, base := newTestServer(t, server.Config{Executors: 1})
	code, id, _ := submit(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, base, id, "done", time.Minute)

	frames := streamSSE(t, base, id)
	if len(frames) < 3 {
		t.Fatalf("replay returned %d frames", len(frames))
	}
	if frames[0].Event != "job.accepted" || frames[len(frames)-1].Event != "end" {
		t.Errorf("replay envelope wrong: first %q last %q",
			frames[0].Event, frames[len(frames)-1].Event)
	}
}
