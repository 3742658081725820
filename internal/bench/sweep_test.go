package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunWorkersSweep(t *testing.T) {
	s, err := RunWorkersSweep(128, 512, 4, 1, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("%d sweep points, want 2", len(s.Points))
	}
	if s.N != 128 || s.Kernels < 1 || s.NumCPU < 1 || s.ModelBuildSec <= 0 {
		t.Errorf("sweep metadata incomplete: %+v", s)
	}
	for _, p := range s.Points {
		if p.ForwardSec <= 0 || p.GradientSec <= 0 {
			t.Errorf("workers=%d: non-positive timings %+v", p.Workers, p)
		}
		if p.ForwardSpeedup <= 0 || p.GradientSpeedup <= 0 {
			t.Errorf("workers=%d: speedups not computed %+v", p.Workers, p)
		}
	}
	// The workers=1 baseline must have speedup exactly 1.
	if s.Points[0].Workers != 1 || s.Points[0].ForwardSpeedup != 1 {
		t.Errorf("baseline point wrong: %+v", s.Points[0])
	}

	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := s.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back WorkersSweep
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("written JSON does not round-trip: %v", err)
	}
	if len(back.Points) != 2 || back.N != 128 || back.ModelBuildSec <= 0 {
		t.Errorf("round-tripped sweep lost data: %+v", back)
	}
}

func TestRunWorkersSweepRejectsBadWorkers(t *testing.T) {
	if _, err := RunWorkersSweep(128, 512, 4, 1, []int{0}); err == nil {
		t.Error("worker count 0 accepted")
	}
}
