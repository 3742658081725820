package core

import "fmt"

// Recipes of Section IV. Scale factors follow the paper exactly; iteration
// budgets are the paper's upper bounds.

// FastM1 is the "Our-fast" schedule: 35 low-resolution iterations at s = 4
// followed by 5 high-resolution iterations at s = 8.
func FastM1() []Stage {
	return []Stage{
		{Scale: 4, Iters: 35},
		{Scale: 8, Iters: 5, HighRes: true},
	}
}

// ExactM1 is the "Our-exact" schedule: 80 low-resolution iterations at
// s = 4 plus 10 high-resolution iterations at s = 8.
func ExactM1() []Stage {
	return []Stage{
		{Scale: 4, Iters: 80},
		{Scale: 8, Iters: 10, HighRes: true},
	}
}

// Via is the via-layer schedule of Section IV-C: 100, 100 and 50
// low-resolution iterations at scale factors 8, 4 and 2, then 15
// high-resolution iterations at s = 8. The budgets are upper bounds — run
// it with Options.Patience = ViaPatience, as Recipe("via") pairs them, to
// reproduce the paper's early exit ("we exit early when ILT cannot obtain a
// new minimum loss within 15 iterations").
func Via() []Stage {
	return []Stage{
		{Scale: 8, Iters: 100},
		{Scale: 4, Iters: 100},
		{Scale: 2, Iters: 50},
		{Scale: 8, Iters: 15, HighRes: true},
	}
}

// ViaPatience is the early-stopping window of the via flow.
const ViaPatience = 15

// Recipe resolves a paper recipe by name — fast, exact or via — to its
// schedule and its early-stopping patience: ViaPatience for via, 0 (run
// every budget out) for the M1 recipes.
func Recipe(name string) (stages []Stage, patience int, err error) {
	switch name {
	case "fast":
		return FastM1(), 0, nil
	case "exact":
		return ExactM1(), 0, nil
	case "via":
		return Via(), ViaPatience, nil
	}
	return nil, 0, fmt.Errorf("recipe %q is not fast, exact or via", name)
}

// ScaleStages divides every iteration budget by the given factor (rounding
// up, minimum 1 iteration). Reduced-size harnesses and benchmarks use it to
// keep the schedule shape while shrinking wall-clock cost.
func ScaleStages(stages []Stage, div int) []Stage {
	if div <= 1 {
		return stages
	}
	out := make([]Stage, len(stages))
	for i, st := range stages {
		st.Iters = (st.Iters + div - 1) / div
		if st.Iters < 1 {
			st.Iters = 1
		}
		out[i] = st
	}
	return out
}
