package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fft"
	"repro/internal/server"
)

// fullMetricsDoc decodes the parts of the JSON /metrics document the
// observability tests assert: runtime gauges and histogram snapshots ride
// next to the original fields (which metricsDoc still covers — proving the
// document stayed decode-compatible).
type fullMetricsDoc struct {
	metricsDoc
	Histograms []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
		P99   float64 `json:"p99"`
	} `json:"histograms"`
	Runtime struct {
		Goroutines      int     `json:"goroutines"`
		HeapInuseBytes  uint64  `json:"heap_inuse_bytes"`
		GCPauseTotalSec float64 `json:"gc_pause_total_sec"`
	} `json:"runtime"`
}

// TestMetricsContentNegotiation: the JSON document stays the default (and
// gains runtime gauges + histograms), while an Accept header naming
// text/plain switches /metrics to the Prometheus text exposition.
func TestMetricsContentNegotiation(t *testing.T) {
	_, base := newTestServer(t, server.Config{Executors: 1})
	code, id, _ := submit(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, base, id, "done", 30*time.Second)

	// Default (no Accept): JSON, with the runtime and histogram blocks.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type %q, want application/json", ct)
	}
	var doc fullMetricsDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode JSON metrics: %v", err)
	}
	if doc.Jobs["done"] != 1 || doc.Counters["server.jobs_submitted"] != 1 {
		t.Errorf("JSON document lost existing fields: %+v", doc.metricsDoc)
	}
	if doc.Runtime.Goroutines < 1 {
		t.Errorf("runtime.goroutines = %d, want ≥ 1", doc.Runtime.Goroutines)
	}
	if doc.Runtime.HeapInuseBytes == 0 {
		t.Error("runtime.heap_inuse_bytes = 0")
	}
	if doc.Runtime.GCPauseTotalSec < 0 {
		t.Errorf("runtime.gc_pause_total_sec = %g", doc.Runtime.GCPauseTotalSec)
	}
	byName := map[string]bool{}
	for _, h := range doc.Histograms {
		byName[h.Name] = h.Count > 0
	}
	// Server-side distributions observe directly; the job's core.iter
	// histogram arrives via the finish-time recorder merge.
	for _, want := range []string{"server.queue_wait", "server.run", "core.iter"} {
		if !byName[want] {
			t.Errorf("JSON histograms missing populated %q (have %v)", want, byName)
		}
	}

	// Prometheus scrape via content negotiation.
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Prometheus Content-Type %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE ilt_queue_depth gauge",
		`ilt_jobs{state="done"} 1`,
		`ilt_jobs{state="failed"} 0`, // full state vocabulary from boot
		"ilt_server_jobs_submitted_total 1",
		"ilt_server_jobs_completed_total 1",
		`ilt_server_queue_wait_seconds_bucket{le="+Inf"} 1`,
		`ilt_server_run_seconds_bucket{le="+Inf"} 1`,
		"ilt_server_sse_flush_seconds_count",
		`ilt_core_iter_seconds_bucket{le="+Inf"} 5`, // 3+2 iterations, merged from the job
		`ilt_phase_seconds_total{phase="litho.socs"}`,
		"ilt_goroutines",
		"ilt_heap_inuse_bytes",
		"ilt_gc_pause_seconds_total",
		"# TYPE ilt_fft_kernel_info gauge",
		`ilt_fft_kernel_info{kernel="` + fft.Kernel() + `"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}

	// An Accept that prefers JSON keeps the JSON document.
	req, err = http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ct := resp.Header.Get("Content-Type")
	resp.Body.Close()
	if ct != "application/json" {
		t.Errorf("Accept: application/json got Content-Type %q", ct)
	}
}

// TestEvaluatePhase: a job with metrics evaluates its mask under a
// metrics.evaluate span, so the post-ILT evaluation has a name in the
// /metrics phases, as it has in iltopt's traces.
func TestEvaluatePhase(t *testing.T) {
	_, base := newTestServer(t, server.Config{Executors: 1})
	job := strings.Replace(smallJob, `"workers":1,`, `"workers":1,"metrics":true,`, 1)
	code, id, _ := submit(t, base, job)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, base, id, "done", 30*time.Second)
	for _, p := range getMetrics(t, base).Phases {
		if p.Name == "metrics.evaluate" {
			if p.Count != 1 {
				t.Errorf("metrics.evaluate ran %d times after one job, want 1", p.Count)
			}
			return
		}
	}
	t.Error("/metrics phases lack metrics.evaluate after a job with metrics")
}

// TestModelBuildPhase: a job looks up its kernel model under a
// setup.optics span, so after the first job the model build has a name in
// the /metrics phases instead of hiding inside server.run.
func TestModelBuildPhase(t *testing.T) {
	_, base := newTestServer(t, server.Config{Executors: 1})
	code, id, _ := submit(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, base, id, "done", 30*time.Second)
	m := getMetrics(t, base)
	if m.Counters["server.model_builds"] != 1 {
		t.Errorf("server.model_builds = %d, want 1", m.Counters["server.model_builds"])
	}
	for _, p := range m.Phases {
		if p.Name == "setup.optics" {
			if p.Count != 1 {
				t.Errorf("setup.optics ran %d times after one job, want 1", p.Count)
			}
			return
		}
	}
	t.Errorf("/metrics phases lack setup.optics after the first job: %+v", m.Phases)
}
