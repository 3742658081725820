package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFFTSweep(t *testing.T) {
	// At 2048 nm the support is P = 35, so the batch gradient runs on the
	// field's grid up to m = 128 and on the 128-px grid L above.
	s, err := RunFFTSweep([]int{128, 256}, 2048, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 || s.Kernels < 1 || s.P != 35 || s.Workers != 1 {
		t.Fatalf("sweep metadata incomplete: %+v", s)
	}
	for _, p := range s.Points {
		if p.ReferenceSec <= 0 || p.BatchedSec <= 0 || p.BatchedGain <= 0 {
			t.Errorf("m=%d: forward timings or speedup missing %+v", p.M, p)
		}
		if p.ReferenceGradSec <= 0 || p.BatchedGradSec <= 0 || p.BatchedGradGain <= 0 {
			t.Errorf("m=%d: gradient timings or speedup missing %+v", p.M, p)
		}
		if p.KeepAmps != (p.M <= 128) {
			t.Errorf("m=%d: keep_amps = %v; amplitudes are kept at m ≤ 128 only", p.M, p.KeepAmps)
		}
		if inv, adj, ref := p.InverseButterflies["batch"], p.AdjointButterflies["batch"], p.AdjointButterflies["reference"]; inv <= 0 || adj <= 0 || adj >= ref {
			t.Errorf("m=%d batch: butterflies inverse %d, adjoint %d; want positive and the adjoint below the dense %d", p.M, inv, adj, ref)
		}
		if fwd, ref := p.ForwardButterflies["batch"], p.ForwardButterflies["reference"]; fwd <= 0 || fwd >= ref {
			t.Errorf("m=%d batch: mask spectrum butterflies %d; want positive and below the dense %d", p.M, fwd, ref)
		}
	}

	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "fft.json")
	if err := s.WriteJSON(jsonPath); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFFTSweep(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != 2 || back.P != s.P {
		t.Errorf("round-tripped sweep lost data: %+v", back)
	}

	diff := CompareFFTSweeps(back, s)
	if !strings.Contains(diff, "reference") || !strings.Contains(diff, "gradient") || !strings.Contains(diff, "%") {
		t.Errorf("compare table incomplete:\n%s", diff)
	}
}

func TestGateFFTSweeps(t *testing.T) {
	old := &FFTSweep{Points: []FFTPoint{
		{M: 64, ReferenceSec: 1, BatchedSec: 0.5, BatchedGain: 2},
	}}
	same := &FFTSweep{Points: old.Points}
	if err := GateFFTSweeps(old, same, 1.5); err != nil {
		t.Errorf("identical sweeps should pass the gate: %v", err)
	}

	// The floor reads the new report's same-run speedup, so host speed
	// cancels: both engines twice as slow as the baseline still pass...
	slowHost := &FFTSweep{Points: []FFTPoint{
		{M: 64, ReferenceSec: 2, BatchedSec: 1, BatchedGain: 2},
	}}
	if err := GateFFTSweeps(old, slowHost, 1.5); err != nil {
		t.Errorf("a uniformly slower host should pass the gate: %v", err)
	}
	// ...while a batch engine falling to the reference's speed fails,
	// named by engine, whatever the baseline holds.
	slow := &FFTSweep{Points: []FFTPoint{
		{M: 64, ReferenceSec: 1, BatchedSec: 1, BatchedGain: 1},
	}}
	err := GateFFTSweeps(old, slow, 1.5)
	if err == nil || !strings.Contains(err.Error(), "m=64 batch speedup 1.00×") {
		t.Errorf("a batch engine at reference speed should fail the gate naming the engine, got %v", err)
	}
	if err := GateFFTSweeps(&FFTSweep{}, slow, 1.5); err == nil {
		t.Errorf("the floor should hold at sizes the baseline lacks")
	}

	// Speedups the report did not measure (zero) are skipped.
	noBatch := &FFTSweep{Points: []FFTPoint{
		{M: 64, ReferenceSec: 1},
	}}
	if err := GateFFTSweeps(old, noBatch, 1.5); err != nil {
		t.Errorf("an unmeasured speedup should be skipped: %v", err)
	}

	// The gradient speedup gates too: an adjoint falling back to dense
	// transforms fails, named as the engine's gradient.
	denseAdjoint := &FFTSweep{Points: []FFTPoint{
		{M: 64, ReferenceSec: 1, BatchedSec: 0.5, BatchedGain: 2,
			ReferenceGradSec: 2, BatchedGradSec: 1.6, BatchedGradGain: 1.25},
	}}
	err = GateFFTSweeps(old, denseAdjoint, 1.5)
	if err == nil || !strings.Contains(err.Error(), "batch gradient") {
		t.Errorf("a batch gradient near reference speed should fail the gate naming the column, got %v", err)
	}

	// Butterfly counts gate exactly, whatever the floor: a dense fallback
	// fails even when the wall clock hides it.
	counted := &FFTSweep{Points: []FFTPoint{{M: 64, BatchedSec: 0.5,
		AdjointButterflies: map[string]int64{"batch": 100}}}}
	fallback := &FFTSweep{Points: []FFTPoint{{M: 64, BatchedSec: 0.5,
		AdjointButterflies: map[string]int64{"batch": 101}}}}
	err = GateFFTSweeps(counted, fallback, 0.001)
	if err == nil || !strings.Contains(err.Error(), "batch adjoint butterflies 100 → 101") {
		t.Errorf("a grown butterfly count should fail the gate, got %v", err)
	}
	if err := GateFFTSweeps(fallback, counted, 1.5); err != nil {
		t.Errorf("a smaller butterfly count should pass: %v", err)
	}
	// The mask spectrum's count is held the same way: a band spectrum
	// falling back to the dense transform fails the gate.
	band := &FFTSweep{Points: []FFTPoint{{M: 64, BatchedSec: 0.5,
		ForwardButterflies: map[string]int64{"batch": 11033}}}}
	dense := &FFTSweep{Points: []FFTPoint{{M: 64, BatchedSec: 0.5,
		ForwardButterflies: map[string]int64{"batch": 24576}}}}
	err = GateFFTSweeps(band, dense, 0.001)
	if err == nil || !strings.Contains(err.Error(), "batch forward butterflies 11033 → 24576") {
		t.Errorf("a dense mask spectrum should fail the gate, got %v", err)
	}
}
