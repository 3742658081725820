// Package tracestat turns the JSONL traces written by the instrumented
// pipeline (iltopt -trace, the server's SSE stream replayed to a file) into
// offline analytics: per-phase wall-time tables, per-iteration loss/step/
// retry series, latency quantiles, and a critical-path summary; the
// `make trace-smoke` lane renders one for a fresh traced run.
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

// ReadFile parses the JSONL trace at path.
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

// Read parses a JSONL trace stream. It is schema-light by design — full
// schema validation is tracecheck's job; Read only needs the fields it
// aggregates and tolerates events it does not know.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{Counters: map[string]int64{}}
	stages := map[int]*StageRec{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			return nil, fmt.Errorf("line %d: invalid JSON: %w", line, err)
		}
		name, _ := obj["event"].(string)
		if name == "" {
			return nil, fmt.Errorf("line %d: missing event name", line)
		}
		t.Events++
		switch name {
		case "run.start":
			t.Tool, _ = obj["tool"].(string)
			t.Name, _ = obj["name"].(string)
			t.Recipe, _ = obj["recipe"].(string)
		case "stage.start":
			s := stageAt(stages, num(obj, "stage"))
			s.Scale = int(obj["scale"].(float64))
			s.Budget = num(obj, "iters")
		case "iter":
			t.Iters = append(t.Iters, IterRec{
				Stage:   num(obj, "stage"),
				Iter:    num(obj, "iter"),
				Loss:    fnum(obj, "loss"),
				Step:    fnum(obj, "step"),
				Sec:     fnum(obj, "sec"),
				Retries: num(obj, "retries"),
			})
		case "stage.end":
			s := stageAt(stages, num(obj, "stage"))
			s.ItersRun = num(obj, "iters_run")
			s.BestLoss = fnum(obj, "best_loss")
			s.Sec = fnum(obj, "sec")
		case "run.end":
			t.WallSec = fnum(obj, "wall_sec")
			t.ILTSec = fnum(obj, "ilt_sec")
		case "phases":
			t.readPhases(obj)
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
	return t, nil
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
