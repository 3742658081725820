// Package tracestat is the one reader of the JSONL traces written by the
// instrumented pipeline (iltopt -trace, the server's SSE stream replayed to
// a file): Read checks a trace and aggregates it in one pass, and Render
// turns it into offline analytics: per-phase wall-time tables,
// per-iteration loss/step/retry series, latency quantiles, and a
// critical-path summary; the `make trace-smoke` lane reports a fresh run.
//
// The renderer is deliberately byte-deterministic for a given trace: all
// aggregation iterates in sorted order and every float is printed with a
// fixed format, so a golden-file test can pin the full report.
package tracestat

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// IterRec is one "iter" event: a single optimizer step.
type IterRec struct {
	Stage   int
	Iter    int
	Loss    float64
	Step    float64
	Sec     float64
	Retries int
}

// StageRec folds a "stage.start"/"stage.end" pair.
type StageRec struct {
	Stage    int
	Scale    int
	Budget   int     // iteration budget from stage.start
	ItersRun int     // from stage.end (0 if the trace was truncated)
	BestLoss float64 // from stage.end
	Sec      float64 // from stage.end
}

// PhaseRec is one phase timer from the close-time "phases" event.
type PhaseRec struct {
	Name  string
	Sec   float64
	Count int64
}

// HistRec is one latency-histogram summary from the "phases" event.
type HistRec struct {
	Name  string
	Count int64
	Sum   float64
	P50   float64
	P95   float64
	P99   float64
}

// Trace is the parsed, aggregated form of one JSONL trace.
type Trace struct {
	Events   int
	Tool     string
	Name     string
	Recipe   string
	WallSec  float64
	ILTSec   float64
	Tiles    int // tile events, over every full-chip sweep
	Iters    []IterRec
	Stages   []StageRec // sorted by stage index
	Phases   []PhaseRec // sorted by name
	Hists    []HistRec  // sorted by name
	Counters map[string]int64
}

// PhaseSec returns the summed phase seconds (the coverage numerator).
func (t *Trace) PhaseSec() float64 {
	var s float64
	for _, p := range t.Phases {
		s += p.Sec
	}
	return s
}

// Coverage is the fraction of the run.end wall time the phase timers
// account for (0 when the trace has no run.end wall time).
func (t *Trace) Coverage() float64 {
	if t.WallSec <= 0 {
		return 0
	}
	return t.PhaseSec() / t.WallSec
}

// ReadFile reads and checks the JSONL trace at path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	t, err := Read(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// Read parses a JSONL trace stream and checks it against the event schema
// in the same pass, returning the first violation with its line: the
// envelope (a string "event", a "seq" rising by one from 1, a
// non-decreasing "ts"), the required fields of stage.start, iter,
// iter.nonfinite and tile, gapless row-major tile sweeps from (0,0) each
// closed by fullchip.end (tiles may run concurrently, but the trace reads
// as if they ran serially), and an iter or iter.nonfinite event for every
// stage opened with a positive budget. Unknown events are accepted. Read
// applies no phase-coverage bound: a captured server stream's run.end wall
// time includes queue wait.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{Counters: map[string]int64{}}
	stages := map[int]*StageRec{}
	ran := map[int]bool{} // stages with an iter or iter.nonfinite event
	var tiles sweep
	lastSeq, lastTS := 0, math.Inf(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		e := event{line: line}
		if err := json.Unmarshal(sc.Bytes(), &e.obj); err != nil {
			return nil, fmt.Errorf("line %d: invalid JSON: %w", line, err)
		}
		if e.name, _ = e.obj["event"].(string); e.name == "" {
			return nil, fmt.Errorf("line %d: missing event name", line)
		}
		seq, ts := e.int("seq"), e.float("ts")
		switch {
		case e.err != nil:
			return nil, e.err
		case seq != lastSeq+1:
			return nil, e.errorf("seq %d after %d (want contiguous, increasing)", seq, lastSeq)
		case ts < lastTS:
			return nil, e.errorf("ts %g before %g", ts, lastTS)
		}
		lastSeq, lastTS = seq, ts
		obj := e.obj
		t.Events++
		switch e.name {
		case "run.start":
			t.Tool, _ = obj["tool"].(string)
			t.Name, _ = obj["name"].(string)
			t.Recipe, _ = obj["recipe"].(string)
		case "stage.start":
			s := stageAt(stages, e.int("stage"))
			s.Scale, s.Budget = e.int("scale"), e.int("iters")
		case "iter":
			it := IterRec{
				Stage:   e.int("stage"),
				Iter:    e.int("iter"),
				Loss:    e.float("loss"),
				Step:    fnum(obj, "step"),
				Sec:     fnum(obj, "sec"),
				Retries: num(obj, "retries"),
			}
			t.Iters = append(t.Iters, it)
			ran[it.Stage] = true
		case "iter.nonfinite":
			ran[e.int("stage")] = true
			e.int("iter")
		case "stage.end":
			s := stageAt(stages, num(obj, "stage"))
			s.ItersRun = num(obj, "iters_run")
			s.BestLoss = fnum(obj, "best_loss")
			s.Sec = fnum(obj, "sec")
		case "tile":
			if tx, ty := e.int("tx"), e.int("ty"); e.err == nil {
				t.Tiles++
				e.err = tiles.next(&e, tx, ty)
			}
		case "fullchip.end":
			e.err = tiles.end(&e)
		case "run.end":
			t.WallSec = fnum(obj, "wall_sec")
			t.ILTSec = fnum(obj, "ilt_sec")
		case "phases":
			t.readPhases(obj)
		}
		if e.err != nil {
			return nil, e.err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t.Events == 0 {
		return nil, fmt.Errorf("trace is empty")
	}
	for _, s := range stages {
		t.Stages = append(t.Stages, *s)
	}
	sort.Slice(t.Stages, func(i, j int) bool { return t.Stages[i].Stage < t.Stages[j].Stage })
	for _, s := range t.Stages {
		if s.Budget > 0 && !ran[s.Stage] {
			return nil, fmt.Errorf("stage %d opened with budget %d but produced no iter events", s.Stage, s.Budget)
		}
	}
	return t, nil
}

// event is one decoded trace line. Its getters of required fields keep the
// first one missing in err.
type event struct {
	obj  map[string]any
	name string
	line int
	err  error
}

func (e *event) errorf(format string, args ...any) error {
	return fmt.Errorf("line %d (%s): %s", e.line, e.name, fmt.Sprintf(format, args...))
}

func (e *event) float(key string) float64 {
	v, ok := e.obj[key].(float64)
	if !ok && e.err == nil {
		e.err = e.errorf("missing numeric %q", key)
	}
	return v
}

func (e *event) int(key string) int { return int(e.float(key)) }

// sweep is a trace's open tile sweep: its last tile, and its row width,
// learned at the first row wrap (0 while the sweep is still in row 0).
type sweep struct {
	open           bool
	lastTX, lastTY int
	width          int
}

// next checks that tile (tx, ty) continues the sweep in row-major order.
func (s *sweep) next(e *event, tx, ty int) error {
	switch {
	case !s.open:
		if tx != 0 || ty != 0 {
			return e.errorf("sweep starts at tile (%d,%d), want (0,0)", tx, ty)
		}
	case ty == s.lastTY && tx == s.lastTX+1:
		if s.width > 0 && tx >= s.width {
			return e.errorf("tile (%d,%d) past row width %d", tx, ty, s.width)
		}
	case ty == s.lastTY+1 && tx == 0:
		if s.width == 0 {
			s.width = s.lastTX + 1
		} else if s.lastTX+1 != s.width {
			return e.errorf("row %d ended after %d tiles, want %d", s.lastTY, s.lastTX+1, s.width)
		}
	default:
		return e.errorf("tile (%d,%d) out of row-major order after (%d,%d)", tx, ty, s.lastTX, s.lastTY)
	}
	s.open, s.lastTX, s.lastTY = true, tx, ty
	return nil
}

// end closes the sweep at a fullchip.end; a later sweep restarts at (0,0).
func (s *sweep) end(e *event) error {
	if s.open && s.width > 0 && s.lastTX+1 != s.width {
		return e.errorf("sweep ended mid-row at tile (%d,%d), row width is %d", s.lastTX, s.lastTY, s.width)
	}
	*s = sweep{}
	return nil
}

// readPhases unpacks the close-time "phases" event: phase timers are the
// sub-objects carrying a "sec" field, "counters" and "histograms" are
// dedicated blocks, everything else (event/seq/ts) is envelope.
func (t *Trace) readPhases(obj map[string]any) {
	for _, k := range sortedKeys(obj) {
		switch k {
		case "event", "seq", "ts":
		case "counters":
			cm, ok := obj[k].(map[string]any)
			if !ok {
				continue
			}
			for _, ck := range sortedKeys(cm) {
				if v, ok := cm[ck].(float64); ok {
					t.Counters[ck] = int64(v)
				}
			}
		case "histograms":
			hm, ok := obj[k].(map[string]any)
			if !ok {
				continue
			}
			for _, hk := range sortedKeys(hm) {
				m, ok := hm[hk].(map[string]any)
				if !ok {
					continue
				}
				t.Hists = append(t.Hists, HistRec{
					Name:  hk,
					Count: int64(fnum(m, "count")),
					Sum:   fnum(m, "sum"),
					P50:   fnum(m, "p50"),
					P95:   fnum(m, "p95"),
					P99:   fnum(m, "p99"),
				})
			}
		default:
			m, ok := obj[k].(map[string]any)
			if !ok {
				continue
			}
			sec, ok := m["sec"].(float64)
			if !ok {
				continue
			}
			t.Phases = append(t.Phases, PhaseRec{
				Name:  k,
				Sec:   sec,
				Count: int64(fnum(m, "count")),
			})
		}
	}
	sort.Slice(t.Phases, func(i, j int) bool { return t.Phases[i].Name < t.Phases[j].Name })
}

func stageAt(m map[int]*StageRec, i int) *StageRec {
	s, ok := m[i]
	if !ok {
		s = &StageRec{Stage: i}
		m[i] = s
	}
	return s
}

func num(obj map[string]any, key string) int {
	v, _ := obj[key].(float64)
	return int(v)
}

func fnum(obj map[string]any, key string) float64 {
	v, _ := obj[key].(float64)
	return v
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of vs, which it
// sorts in place. Nearest-rank keeps golden reports exact: the answer is
// always one of the observed values, never an interpolation.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	rank := int(q*float64(len(vs)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(vs) {
		rank = len(vs)
	}
	return vs[rank-1]
}
