package experiments

import (
	"fmt"
	"io"

	"repro/internal/report"
)

// Experiment names accepted by Run and cmd/mltables -exp.
var Names = []string{
	"timing", "itertime", "table1", "table2", "table3", "table4",
	"fig1", "fig4", "fig5", "fig6", "fig7", "fig8",
	"window", "convergence", "viasweep", "verify", "sources", "bossung", "kernels",
}

// Run executes one experiment by name.
func Run(c Config, name string) (*report.Table, error) {
	switch name {
	case "timing":
		return ForwardTiming(c, 0)
	case "itertime":
		return IterationTime(c, 0)
	case "table1":
		return Table1(c)
	case "table2":
		return Table2(c)
	case "table3":
		return Table3(c)
	case "table4":
		return Table4(c)
	case "fig1":
		return Fig1(c)
	case "fig4":
		return Fig4(c)
	case "fig5":
		return Fig5(c)
	case "fig6":
		return Fig6(c)
	case "fig7":
		return Fig7(c)
	case "fig8":
		return Fig8(c)
	case "window":
		return Window(c)
	case "convergence":
		return Convergence(c)
	case "viasweep":
		return ViaSweep(c)
	case "verify":
		return Verify(c)
	case "sources":
		return Sources(c)
	case "bossung":
		return Bossung(c)
	case "kernels":
		return Kernels(c)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names)
	}
}

// RunAll executes every experiment in order, streaming each table to w as
// it completes, and returns all tables.
func RunAll(c Config, w io.Writer) ([]*report.Table, error) {
	var tables []*report.Table
	for _, name := range Names {
		c.logf("=== %s ===", name)
		t, err := Run(c, name)
		if err != nil {
			return tables, fmt.Errorf("%s: %w", name, err)
		}
		tables = append(tables, t)
		if w != nil {
			fmt.Fprintf(w, "%s\n", t.String())
		}
	}
	return tables, nil
}
