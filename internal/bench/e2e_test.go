package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A canned benchmark output: progress on stderr is not captured, but the
// stdout may carry lines before the result object.
const e2eCanned = `iltbench: warming up
{"correct": true, "attempted": 31, "failed": 0, "metrics": {"job_p50_ms": {"value": 1128.5, "unit": "ms"}, "l2_pct": {"value": 3.2, "unit": "%"}}}
`

// RunE2E assembles the four runs — fast then exact, tracing off then on —
// from each run's last output line, with the host block, and round-trips
// through WriteJSON.
func TestRunE2EAssemblesReport(t *testing.T) {
	var calls []string
	r, err := RunE2E(func(workload string, trace int) ([]byte, error) {
		calls = append(calls, fmt.Sprintf("%s/%d", workload, trace))
		return []byte(e2eCanned), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(calls, " "); got != "fast/0 fast/1 exact/0 exact/1" {
		t.Errorf("runs %s, want fast/0 fast/1 exact/0 exact/1", got)
	}
	if len(r.Runs) != 4 || r.Runs[3].Workload != "exact" || r.Runs[3].Trace != 1 {
		t.Fatalf("runs %+v", r.Runs)
	}
	run := r.Runs[0]
	if !run.Correct || run.Attempted != 31 || run.Metrics["job_p50_ms"] != (E2EMetric{1128.5, "ms"}) {
		t.Errorf("parsed run %+v", run)
	}
	if r.NumCPU < 1 || r.GOMAXPROCS < 1 || r.Host.NumCPU != r.NumCPU || r.Seconds != E2ESeconds {
		t.Errorf("host block %+v / num_cpu %d gomaxprocs %d seconds %d", r.Host, r.NumCPU, r.GOMAXPROCS, r.Seconds)
	}
	path := filepath.Join(t.TempDir(), "BENCH_E2E.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back E2EReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Runs) != 4 || back.Runs[2].Metrics["l2_pct"].Value != 3.2 {
		t.Errorf("round trip lost runs: %+v", back.Runs)
	}
}

// A failed run or an output without a result object fails the recording.
func TestRunE2ERejectsBadRuns(t *testing.T) {
	for name, run := range map[string]E2ERunner{
		"error":     func(string, int) ([]byte, error) { return nil, errors.New("exit status 1") },
		"no json":   func(string, int) ([]byte, error) { return []byte("iltbench: no job completed\n"), nil },
		"no metric": func(string, int) ([]byte, error) { return []byte(`{"correct": true}`), nil },
	} {
		if _, err := RunE2E(run); err == nil {
			t.Errorf("%s: RunE2E accepted the run", name)
		}
	}
}
