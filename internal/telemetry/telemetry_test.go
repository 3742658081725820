package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tracestat"
)

// fakeClock is a hand-advanced time source for deterministic traces.
type fakeClock struct {
	mu  sync.Mutex
	cur time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{cur: time.Unix(1700000000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.cur = c.cur.Add(d)
	c.mu.Unlock()
}

// captureSink retains every event for assertions.
type captureSink struct {
	events []Event
}

func (s *captureSink) Emit(e Event) { s.events = append(s.events, e) }
func (s *captureSink) Flush() error { return nil }

func TestNilRecorderIsSafeAndFree(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	// Every method must be callable on nil.
	sp := r.StartSpan("x")
	sp.End()
	r.Add("c", 1)
	r.Emit("e", Fields{"k": 1})
	r.Progressf("hello %d", 1)
	if r.Phases() != nil || r.Counters() != nil || r.Elapsed() != 0 {
		t.Error("nil recorder leaked state")
	}
	if err := r.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}

	// The disabled fast path — exactly the calls the litho hot loops make —
	// must not allocate. (Emit with a Fields literal would; instrumented
	// code guards per-iteration literals behind Enabled.)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.StartSpan("litho.fft_forward")
		sp.End()
		r.Add("litho.forward_sims", 1)
		r.Emit("e", nil)
	})
	if allocs != 0 {
		t.Errorf("disabled recorder path allocates %.1f per op, want 0", allocs)
	}
}

func TestSpanAggregationWithFakeClock(t *testing.T) {
	clk := newFakeClock()
	r := New(WithClock(clk.Now))

	// Nested spans: the outer span covers the inner one; each phase
	// accumulates its own wall time independently.
	outer := r.StartSpan("outer")
	clk.Advance(50 * time.Millisecond)
	inner := r.StartSpan("inner")
	clk.Advance(100 * time.Millisecond)
	inner.End()
	clk.Advance(50 * time.Millisecond)
	outer.End()

	inner2 := r.StartSpan("inner")
	clk.Advance(25 * time.Millisecond)
	inner2.End()

	stats := map[string]PhaseStat{}
	for _, p := range r.Phases() {
		stats[p.Name] = p
	}
	if got := stats["outer"]; got.Seconds != 0.2 || got.Count != 1 {
		t.Errorf("outer = %+v, want 0.2s ×1", got)
	}
	if got := stats["inner"]; got.Seconds != 0.125 || got.Count != 2 {
		t.Errorf("inner = %+v, want 0.125s ×2", got)
	}
	if r.Elapsed() != 0.225 {
		t.Errorf("elapsed %g, want 0.225", r.Elapsed())
	}
}

func TestConcurrentSpansCountersAndEmit(t *testing.T) {
	sink := &captureSink{}
	r := New(WithSink(sink))
	const workers, iters = 8, 200

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp := r.StartSpan("phase")
				r.Add("ops", 1)
				sp.End()
				r.Emit("tick", Fields{"worker": w, "i": i})
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counters()["ops"]; got != workers*iters {
		t.Errorf("ops counter = %d, want %d", got, workers*iters)
	}
	var ph PhaseStat
	for _, p := range r.Phases() {
		if p.Name == "phase" {
			ph = p
		}
	}
	if ph.Count != workers*iters {
		t.Errorf("phase count = %d, want %d", ph.Count, workers*iters)
	}
	if len(sink.events) != workers*iters {
		t.Fatalf("captured %d events, want %d", len(sink.events), workers*iters)
	}
	// Seq must be contiguous and match delivery order even under contention.
	for i, e := range sink.events {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d (delivery order must equal seq order)", i, e.Seq)
		}
	}
}

func TestTraceSinkGoldenJSONL(t *testing.T) {
	clk := newFakeClock()
	var buf bytes.Buffer
	r := New(WithClock(clk.Now), WithTrace(&buf))

	clk.Advance(250 * time.Millisecond)
	r.Emit("run.start", Fields{"tool": "iltopt", "name": "case1"})
	sp := r.StartSpan("litho.socs")
	clk.Advance(500 * time.Millisecond)
	sp.End()
	r.Emit("iter", Fields{"stage": 0, "iter": 0, "loss": 12.5})
	r.Add("sims", 3)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// json.Marshal sorts map keys, the clock is fake, seq is deterministic:
	// the byte stream is a stable golden.
	want := strings.Join([]string{
		`{"event":"run.start","name":"case1","seq":1,"tool":"iltopt","ts":0.25}`,
		`{"event":"iter","iter":0,"loss":12.5,"seq":2,"stage":0,"ts":0.75}`,
		`{"counters":{"sims":3},"event":"phases","litho.socs":{"count":1,"sec":0.5},"seq":3,"ts":0.75}`,
		``,
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("trace mismatch:\ngot:\n%swant:\n%s", got, want)
	}

	// The golden stream round-trips through the trace reader.
	tr, err := tracestat.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("golden trace fails the reader's checks: %v", err)
	}
	if tr.Events != 3 || len(tr.Iters) != 1 || len(tr.Phases) != 1 || tr.PhaseSec() != 0.5 {
		t.Errorf("trace = %+v", tr)
	}
}

func TestConsoleSinkRendersAndThrottles(t *testing.T) {
	clk := newFakeClock()
	var buf bytes.Buffer
	r := New(WithClock(clk.Now), WithConsole(&buf))
	r.Emit("stage.start", Fields{"stage": 0, "scale": 4, "highres": false, "iters": 25})
	for i := 0; i < 25; i++ {
		r.Emit("iter", Fields{"stage": 0, "iter": i, "loss": 1.0, "l2": 0.9, "pvb": 0.1, "step": 1.0, "retries": 0, "sec": 0.01})
	}
	r.Progressf("checkpoint %d", 7)
	r.Close()

	out := buf.String()
	if got := strings.Count(out, "stage 0 iter "); got != 3 {
		// iters 0, 10, 20 print; the rest are throttled.
		t.Errorf("%d iteration lines, want 3 (every 10th):\n%s", got, out)
	}
	for _, want := range []string{"stage 0: s=4 low-res, budget 25 iters", "checkpoint 7", "phase breakdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("console output missing %q:\n%s", want, out)
		}
	}
}

// TestValidateTraceRejects: tracestat.Read, the one reader of the traces
// this package writes, rejects each break of their schema with the first
// offending line.
func TestValidateTraceRejects(t *testing.T) {
	cases := []struct {
		name  string
		trace string
		want  string
	}{
		{"empty", "", "empty"},
		{"bad json", "not json\n", "invalid JSON"},
		{"missing event", `{"seq":1,"ts":0}` + "\n", "missing event"},
		{"seq gap", `{"event":"a","seq":1,"ts":0}` + "\n" + `{"event":"b","seq":3,"ts":0}` + "\n", "seq 3 after 1"},
		{"ts regress", `{"event":"a","seq":1,"ts":5}` + "\n" + `{"event":"b","seq":2,"ts":4}` + "\n", "before"},
		{"iter missing loss", `{"event":"iter","seq":1,"ts":0,"stage":0,"iter":0}` + "\n", "loss"},
		{"tile missing coords", `{"event":"tile","seq":1,"ts":0,"tx":1}` + "\n", `"ty"`},
		{"uncovered stage", `{"event":"stage.start","seq":1,"ts":0,"stage":0,"scale":4,"iters":5}` + "\n", "no iter events"},
	}
	for _, tc := range cases {
		_, err := tracestat.Read(strings.NewReader(tc.trace))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// tileTrace renders a sequence of (tx,ty) tiles — with "end" closing a
// sweep — as a schema-valid JSONL trace.
func tileTrace(steps ...[2]int) string {
	var b strings.Builder
	for i, s := range steps {
		if s[0] < 0 {
			fmt.Fprintf(&b, `{"event":"fullchip.end","seq":%d,"ts":%d}`+"\n", i+1, i)
			continue
		}
		fmt.Fprintf(&b, `{"event":"tile","seq":%d,"ts":%d,"tx":%d,"ty":%d}`+"\n", i+1, i, s[0], s[1])
	}
	return b.String()
}

// TestValidateTraceTileOrder: tracestat.Read holds the tile events of a
// trace to gapless row-major sweeps, each restarting at (0,0) after a
// fullchip.end.
func TestValidateTraceTileOrder(t *testing.T) {
	end := [2]int{-1, -1}
	t.Run("row-major sweep accepted", func(t *testing.T) {
		trace := tileTrace([2]int{0, 0}, [2]int{1, 0}, [2]int{0, 1}, [2]int{1, 1}, end)
		tr, err := tracestat.Read(strings.NewReader(trace))
		if err != nil {
			t.Fatalf("valid 2×2 sweep rejected: %v", err)
		}
		if tr.Tiles != 4 {
			t.Errorf("Tiles = %d, want 4", tr.Tiles)
		}
	})
	t.Run("second sweep restarts at origin", func(t *testing.T) {
		trace := tileTrace([2]int{0, 0}, [2]int{1, 0}, end, [2]int{0, 0}, [2]int{1, 0}, end)
		if _, err := tracestat.Read(strings.NewReader(trace)); err != nil {
			t.Fatalf("back-to-back sweeps rejected: %v", err)
		}
	})

	rejects := []struct {
		name  string
		steps [][2]int
		want  string
	}{
		{"starts off origin", [][2]int{{1, 0}}, "want (0,0)"},
		{"skips a tile", [][2]int{{0, 0}, {1, 1}}, "out of row-major order"},
		{"repeats a tile", [][2]int{{0, 0}, {0, 0}}, "out of row-major order"},
		{"column-major walk", [][2]int{{0, 0}, {0, 1}, {1, 0}}, "out of row-major order"},
		{"short row", [][2]int{{0, 0}, {1, 0}, {0, 1}, {0, 2}}, "row 1 ended after 1 tiles, want 2"},
		{"long row", [][2]int{{0, 0}, {0, 1}, {1, 1}}, "past row width 1"},
		{"sweep ends mid-row", [][2]int{{0, 0}, {1, 0}, {0, 1}, {-1, -1}}, "ended mid-row"},
	}
	for _, tc := range rejects {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tracestat.Read(strings.NewReader(tileTrace(tc.steps...)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestManifestRoundTrip(t *testing.T) {
	clk := newFakeClock()
	r := New(WithClock(clk.Now))
	sp := r.StartSpan("litho.socs")
	clk.Advance(time.Second)
	sp.End()
	r.Add("sims", 7)

	man := NewManifest("iltopt", map[string]any{"n": 256, "recipe": "exact"})
	man.SetMetric("l2_nm2", 17888)
	man.Finish(r)
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := man.Write(path); err != nil {
		t.Fatal(err)
	}

	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "iltopt" || got.Schema != ManifestSchema {
		t.Errorf("tool/schema = %q/%d", got.Tool, got.Schema)
	}
	if got.Metrics["l2_nm2"] != 17888 {
		t.Errorf("metrics = %v", got.Metrics)
	}
	if got.DurationSec != 1 {
		t.Errorf("duration = %g, want 1", got.DurationSec)
	}
	if len(got.Phases) != 1 || got.Phases[0].Name != "litho.socs" || got.Phases[0].Seconds != 1 {
		t.Errorf("phases = %+v", got.Phases)
	}
	if got.Counters["sims"] != 7 {
		t.Errorf("counters = %v", got.Counters)
	}
	if got.Host.NumCPU < 1 || got.Host.OS == "" || got.Host.GoVersion == "" {
		t.Errorf("host block incomplete: %+v", got.Host)
	}
	// The repo is a git checkout, so the revision should resolve here.
	if got.GitRevision == "" {
		t.Log("git revision unresolved (acceptable outside a checkout)")
	}
}

func TestReadManifestRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	for _, body := range []string{
		`{"schema":99,"tool":"x","host":{"os":"linux","num_cpu":4}}`,
		`{"schema":1,"tool":"","host":{"os":"linux","num_cpu":4}}`,
		`{"schema":1,"tool":"x","host":{"os":"","num_cpu":0}}`,
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(path); err == nil {
			t.Errorf("accepted invalid manifest %s", body)
		}
	}
}

func TestServeDebug(t *testing.T) {
	r := New()
	sp := r.StartSpan("litho.socs")
	sp.End()
	r.Add("sims", 1)

	addr, stop, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars: %d", resp.StatusCode)
	}
	for _, want := range []string{`"ilt"`, "litho.socs", `"sims"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/debug/vars missing %q:\n%s", want, body)
		}
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", addr))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %d", resp.StatusCode)
	}
}

func TestHostInfoPopulated(t *testing.T) {
	h := Host()
	if h.OS == "" || h.Arch == "" || h.NumCPU < 1 || h.GOMAXPROCS < 1 || h.GoVersion == "" {
		t.Errorf("host info incomplete: %+v", h)
	}
	if h.FFTKernel != "avx" && h.FFTKernel != "generic" {
		t.Errorf("host info names FFT kernel %q, want avx or generic", h.FFTKernel)
	}
}
