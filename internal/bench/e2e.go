package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"repro/internal/telemetry"
)

// End-to-end trajectory: BENCH_E2E.json records the repository benchmark
// (iltbench/run.py) on each workload with tracing off — the end-to-end
// metrics — and on — the per-layer metrics — beside the host it ran on, so
// the figures a change cites live in a committed file.

// E2ESeconds is the timed window of every run, the benchmark's own
// run_seconds; E2ESeed is the one clip seed a recording uses.
const (
	E2ESeconds = 35
	E2ESeed    = 1
)

// e2eWorkloads are the recorded workloads, in report order.
var e2eWorkloads = []string{"fast", "exact"}

// E2EMetric is one named benchmark figure.
type E2EMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// E2ERun is one benchmark invocation: its workload and tracing mode, and
// the JSON object on the last line of its output.
type E2ERun struct {
	Workload  string               `json:"workload"`
	Trace     int                  `json:"trace"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]E2EMetric `json:"metrics"`
}

// E2EReport is the BENCH_E2E.json artifact.
type E2EReport struct {
	Seed       int                `json:"seed"`
	Seconds    int                `json:"seconds"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Host       telemetry.HostInfo `json:"host"`
	Runs       []E2ERun           `json:"runs"`
}

// E2ERunner runs the benchmark once on a workload with tracing off (0) or
// on (1) and returns its standard output.
type E2ERunner func(workload string, trace int) ([]byte, error)

// RunE2E runs the benchmark on the fast and exact workloads, each with
// tracing off and then on, and assembles the four results with the host
// block.
func RunE2E(run E2ERunner) (*E2EReport, error) {
	r := &E2EReport{
		Seed: E2ESeed, Seconds: E2ESeconds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host: telemetry.Host(),
	}
	for _, wl := range e2eWorkloads {
		for trace := 0; trace <= 1; trace++ {
			out, err := run(wl, trace)
			if err != nil {
				return nil, fmt.Errorf("bench: %s workload, trace %d: %w", wl, trace, err)
			}
			res, err := parseE2EOutput(out)
			if err != nil {
				return nil, fmt.Errorf("bench: %s workload, trace %d: %w", wl, trace, err)
			}
			res.Workload, res.Trace = wl, trace
			r.Runs = append(r.Runs, res)
		}
	}
	return r, nil
}

// parseE2EOutput decodes the result object on the last non-empty line of a
// benchmark run's output.
func parseE2EOutput(out []byte) (E2ERun, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res E2ERun
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return E2ERun{}, fmt.Errorf("last output line is not a result object: %w", err)
	}
	if len(res.Metrics) == 0 {
		return E2ERun{}, fmt.Errorf("result object carries no metrics")
	}
	return res, nil
}

// WriteJSON writes the report (indented, trailing newline) to path.
func (r *E2EReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
