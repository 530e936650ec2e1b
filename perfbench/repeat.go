package main

import (
	"context"
	"fmt"
	"io"
)

// deterministicCounts are the traced-run metrics that depend only on the
// seed, never on timing: a later change may rest a claim on them.
var deterministicCounts = []string{
	"core.cost_ratio", "core.ls_rounds", "core.ls_moves", "core.ls_scans",
	"wire.request_kb", "wire.response_kb", "platform.link_procs",
	"solver.plan_hit_ratio", "solver.solve_hit_ratio",
}

// repeatCheck runs the traced workload twice at the seed and once at the
// next seed. Every run must pass its output checks, and the two runs at
// one seed must agree exactly on cost_ratio and the deterministic counts.
func repeatCheck(ctx context.Context, cfg config, stdout, stderr io.Writer) error {
	type outcome struct {
		res       result
		costRatio float64
	}
	var runs []outcome
	for _, seed := range []uint64{cfg.seed, cfg.seed, cfg.seed + 1} {
		b, err := newBench(cfg.workload, seed, cfg.clients, float64(cfg.seconds))
		if err != nil {
			return err
		}
		res, notes, cr, err := b.traced(ctx, cfg.out)
		b.close()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct {
			for _, n := range notes {
				fmt.Fprintln(stderr, n)
			}
			return fmt.Errorf("seed %d: %d of %d ops failed their checks", seed, res.Failed, res.Attempted)
		}
		fmt.Fprintf(stdout, "seed %d: %d ops, all checks passed\n", seed, res.Attempted)
		runs = append(runs, outcome{res, cr})
	}
	a, b := runs[0], runs[1]
	mismatches := 0
	report := func(name string, x, y float64) {
		verdict := "equal"
		if x != y {
			verdict = "DIFFERENT"
			mismatches++
		}
		fmt.Fprintf(stdout, "repeat %-24s %.17g %.17g %s\n", name, x, y, verdict)
	}
	report("cost_ratio", a.costRatio, b.costRatio)
	for _, name := range deterministicCounts {
		report(name, a.res.Metrics[name].Value, b.res.Metrics[name].Value)
	}
	if mismatches > 0 {
		return fmt.Errorf("%d deterministic counts differ between two runs at seed %d", mismatches, cfg.seed)
	}
	return nil
}
