package tracestat

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

// TestGoldenReport pins the full report byte-for-byte: the renderer promises
// deterministic output for a given trace, and this is the contract the
// trace-smoke CI lane depends on.
func TestGoldenReport(t *testing.T) {
	tr, err := ReadFile("testdata/golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/golden_report.txt")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Render(&buf, tr)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s",
			buf.String(), want)
	}
	// A second render of the same trace is identical.
	var buf2 bytes.Buffer
	Render(&buf2, tr)
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("renderer is not deterministic")
	}
}

func TestReadGolden(t *testing.T) {
	tr, err := ReadFile("testdata/golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Tool != "iltopt" || tr.Name != "case1" || tr.Recipe != "exact" {
		t.Errorf("run identity = %q/%q/%q", tr.Tool, tr.Name, tr.Recipe)
	}
	if tr.Events != 12 || len(tr.Iters) != 5 || len(tr.Stages) != 2 {
		t.Errorf("events %d, iters %d, stages %d", tr.Events, len(tr.Iters), len(tr.Stages))
	}
	if math.Abs(tr.WallSec-3.0) > 1e-12 || math.Abs(tr.ILTSec-2.5) > 1e-12 {
		t.Errorf("wall %g ilt %g", tr.WallSec, tr.ILTSec)
	}
	s0 := tr.Stages[0]
	if s0.Scale != 4 || s0.Budget != 3 || s0.ItersRun != 3 || math.Abs(s0.BestLoss-6.5) > 1e-12 {
		t.Errorf("stage 0 = %+v", s0)
	}
	// Phases arrive sorted by name; heaviest is litho.socs at 1.2s/10 calls.
	if len(tr.Phases) != 3 || tr.Phases[0].Name != "litho.adjoint" {
		t.Fatalf("phases = %+v", tr.Phases)
	}
	var socs PhaseRec
	for _, p := range tr.Phases {
		if p.Name == "litho.socs" {
			socs = p
		}
	}
	if socs.Count != 10 || math.Abs(socs.Sec-1.2) > 1e-12 {
		t.Errorf("litho.socs = %+v", socs)
	}
	if math.Abs(tr.PhaseSec()-2.4) > 1e-12 {
		t.Errorf("phase sec = %g, want 2.4", tr.PhaseSec())
	}
	if tr.Counters["litho.plan_builds"] != 2 || tr.Counters["litho.forward_sims"] != 15 {
		t.Errorf("counters = %v", tr.Counters)
	}
	if len(tr.Hists) != 2 || tr.Hists[0].Name != "core.iter" || tr.Hists[0].Count != 5 {
		t.Errorf("histograms = %+v", tr.Hists)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	vs := []float64{0.1, 0.12, 0.1, 0.2, 0.21}
	if q := quantile(append([]float64(nil), vs...), 0.50); math.Abs(q-0.12) > 1e-12 {
		t.Errorf("p50 = %g, want 0.12", q)
	}
	if q := quantile(append([]float64(nil), vs...), 0.95); math.Abs(q-0.21) > 1e-12 {
		t.Errorf("p95 = %g, want 0.21", q)
	}
	if q := quantile([]float64{7}, 0.99); math.Abs(q-7) > 1e-12 {
		t.Errorf("single-element p99 = %g", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %g", q)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Error("invalid JSON accepted")
	}
	if _, err := Read(strings.NewReader(`{"seq":1,"ts":0.1}` + "\n")); err == nil {
		t.Error("event-less line accepted")
	}
	// A stage.start without a numeric scale is a schema error naming its
	// line, not a panic.
	_, err := Read(strings.NewReader(`{"event":"stage.start","seq":1,"ts":0,"stage":0,"iters":0}` + "\n"))
	if err == nil || err.Error() != `line 1 (stage.start): missing numeric "scale"` {
		t.Errorf("stage.start without scale: err = %v", err)
	}
}
