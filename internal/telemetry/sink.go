package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// traceSink writes one JSON object per event (JSONL). Field keys are merged
// into the top-level object next to the reserved "event"/"seq"/"ts" keys;
// json.Marshal sorts map keys, so the byte stream is deterministic given a
// deterministic clock.
type traceSink struct {
	w *bufio.Writer
	c io.Closer // closed on Flush when the writer is closable
}

// WithTrace attaches a JSONL trace sink over w. If w is an io.Closer (a
// file), Recorder.Close closes it after flushing.
func WithTrace(w io.Writer) Option {
	s := &traceSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return WithSink(s)
}

func (s *traceSink) Emit(e Event) {
	s.w.Write(MarshalEvent(e))
	s.w.WriteByte('\n')
}

// MarshalEvent renders one event as the JSON object the trace sink writes:
// the payload fields merged next to the reserved "event"/"seq"/"ts" keys,
// with map keys sorted by json.Marshal so the bytes are deterministic given
// a deterministic clock. The ILT server reuses this encoding for its SSE
// data frames, so tracestat.Read accepts a captured event stream
// unchanged.
func MarshalEvent(e Event) []byte {
	obj := make(map[string]any, len(e.Fields)+3)
	for k, v := range e.Fields {
		obj[k] = v
	}
	obj["event"] = e.Name
	obj["seq"] = e.Seq
	obj["ts"] = e.TS
	b, err := json.Marshal(obj)
	if err != nil {
		// Unencodable field values are a caller bug; record it in-band
		// rather than dropping the line silently.
		b = []byte(fmt.Sprintf(`{"event":"encode_error","seq":%d,"ts":%g,"error":%q}`,
			e.Seq, e.TS, err.Error()))
	}
	return b
}

func (s *traceSink) Flush() error {
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
		s.c = nil
	}
	return err
}

// consoleSink renders selected events as human progress lines. Iteration
// events are throttled to every Nth (plus the first of each stage); phase
// totals print as an aligned breakdown at Close.
type consoleSink struct {
	w     io.Writer
	every int
}

// WithConsole attaches a human-readable progress sink (the -progress flag).
// Iteration lines print every 10th iteration.
func WithConsole(w io.Writer) Option {
	return WithSink(&consoleSink{w: w, every: 10})
}

func (s *consoleSink) Emit(e Event) {
	f := e.Fields
	switch e.Name {
	case "progress":
		fmt.Fprintf(s.w, "[%7.2fs] %s\n", e.TS, str(f, "msg"))
	case "run.start":
		fmt.Fprintf(s.w, "[%7.2fs] %s starting: %s\n", e.TS, str(f, "tool"), str(f, "name"))
	case "stage.start":
		mode := "low-res"
		if b, _ := f["highres"].(bool); b {
			mode = "high-res"
		}
		fmt.Fprintf(s.w, "[%7.2fs] stage %d: s=%d %s, budget %d iters\n",
			e.TS, num(f, "stage"), num(f, "scale"), mode, num(f, "iters"))
	case "iter":
		it := num(f, "iter")
		if s.every > 1 && it%int64(s.every) != 0 {
			return
		}
		fmt.Fprintf(s.w, "[%7.2fs]   stage %d iter %-4d loss %.6g (l2 %.4g, pvb %.4g) step %.3g retries %d %.0fms\n",
			e.TS, num(f, "stage"), it, flt(f, "loss"), flt(f, "l2"), flt(f, "pvb"),
			flt(f, "step"), num(f, "retries"), flt(f, "sec")*1000)
	case "stage.end":
		fmt.Fprintf(s.w, "[%7.2fs] stage %d done: %d iters, best loss %.6g, %.2fs\n",
			e.TS, num(f, "stage"), num(f, "iters_run"), flt(f, "best_loss"), flt(f, "sec"))
	case "tile":
		if b, _ := f["skipped"].(bool); b {
			return
		}
		fmt.Fprintf(s.w, "[%7.2fs] tile (%d,%d): %.2fs\n",
			e.TS, num(f, "tx"), num(f, "ty"), flt(f, "sec"))
	case "run.end":
		fmt.Fprintf(s.w, "[%7.2fs] done: %s\n", e.TS, str(f, "summary"))
	case "phases":
		fmt.Fprintf(s.w, "[%7.2fs] phase breakdown:\n", e.TS)
		for _, k := range sortedKeys(f) {
			m, ok := f[k].(map[string]any)
			if !ok {
				continue
			}
			fmt.Fprintf(s.w, "  %-24s %9.3fs  ×%d\n", k, anyFlt(m["sec"]), anyNum(m["count"]))
		}
		if hf, ok := f["histograms"].(Fields); ok {
			fmt.Fprintf(s.w, "[%7.2fs] latency histograms:\n", e.TS)
			for _, k := range sortedKeys(hf) {
				m, ok := hf[k].(map[string]any)
				if !ok {
					continue
				}
				fmt.Fprintf(s.w, "  %-24s p50 %.3gs  p95 %.3gs  p99 %.3gs  ×%d\n",
					k, anyFlt(m["p50"]), anyFlt(m["p95"]), anyFlt(m["p99"]), anyNum(m["count"]))
			}
		}
	}
}

func (s *consoleSink) Flush() error { return nil }

// Field accessors tolerant of the types different emitters use (int,
// int64, float64 — and float64-only after a JSON round trip).

func num(f Fields, k string) int64   { return anyNum(f[k]) }
func flt(f Fields, k string) float64 { return anyFlt(f[k]) }

func str(f Fields, k string) string {
	s, _ := f[k].(string)
	return s
}

func anyNum(v any) int64 {
	switch n := v.(type) {
	case int:
		return int64(n)
	case int64:
		return n
	case float64:
		return int64(n)
	}
	return 0
}

func anyFlt(v any) float64 {
	switch n := v.(type) {
	case float64:
		return n
	case int:
		return float64(n)
	case int64:
		return float64(n)
	}
	return 0
}

func sortedKeys(f Fields) []string {
	keys := make([]string, 0, len(f))
	for k := range f {
		if _, ok := f[k].(map[string]any); ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
