package greenheft

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ceg"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// MapAndSolve is the two-pass mapping search: map the workflow under K
// candidate policies, run the zone-aware CaWoSched scheduler on each
// mapping against the same per-zone supply, and keep the lowest-carbon
// feasible plan. Because the classic EFT mapping is always among the
// candidates, the result is never worse than fixed-mapping scheduling on
// the same instance: a mapping whose ASAP makespan exceeds the horizon is
// simply infeasible and skipped (recorded in-band in Outcomes).

// MapInstance maps the workflow under the given options and builds the
// communication-enhanced scheduling instance from the result — the
// mapping→instance step shared by the solver's plan memo, the facade's
// PlanGreenZones, the experiment drivers, and MapAndSolve below.
func MapInstance(d *dag.DAG, c *platform.Cluster, opt Options) (*ceg.Instance, error) {
	m, err := Schedule(d, c, opt)
	if err != nil {
		return nil, err
	}
	return ceg.Build(d, ceg.FromHEFT(m.Proc, m.Order, m.Finish), c)
}

// MapSolveOptions tunes the two-pass search.
type MapSolveOptions struct {
	// Policies is the candidate set (nil means AllPolicies, which always
	// contains EFT so the fixed-mapping baseline competes too).
	Policies []Policy
	// Alpha is the mapping blend weight (see Options.Alpha).
	Alpha float64
	// Sched selects the CaWoSched variant of the second pass.
	Sched core.Options
	// Marginal switches the second pass to the exact-marginal greedy.
	Marginal bool
	// Workers bounds the candidate fan-out: up to Workers policies are
	// mapped and solved concurrently. Values ≤ 1 evaluate sequentially.
	// Like core.Options.SearchWorkers this is pure mechanism — the
	// winner, outcomes, and errors are reduced in policy order, so the
	// result is identical at any worker count.
	Workers int
}

// PolicyOutcome records one candidate's fate, feasible or not.
type PolicyOutcome struct {
	Policy Policy
	D      int64  // ASAP makespan of the candidate mapping
	Cost   int64  // carbon cost of its schedule (valid when Err == "")
	Err    string // infeasibility or scheduling failure, in-band
}

// MapSolveResult is the winning plan plus the per-candidate audit trail.
type MapSolveResult struct {
	Policy   Policy             // the winning mapping policy
	Inst     *ceg.Instance      // the winning scheduling instance
	Schedule *schedule.Schedule // its carbon-aware schedule
	Stats    core.Stats
	Cost     int64
	D        int64 // ASAP makespan of the winning mapping
	Outcomes []PolicyOutcome
}

// polEval is one candidate's evaluation — mapped, then solved — reduced
// strictly in policy order.
type polEval struct {
	inst   *ceg.Instance
	s      *schedule.Schedule
	st     core.Stats
	d      int64
	mapErr error // structural mapping failure: aborts the whole search
	err    error // per-candidate scheduling failure (or cancellation)
}

// EvalCandidates calls eval(i) for every candidate i in 0..n−1. With
// workers > 1 the calls run on a pool of up to that many goroutines and
// all of them run; otherwise they run in order on the caller's goroutine
// and stop after the first call that returns true. Callers reduce the
// results in index order and return at the first aborting candidate, so
// the outcome is identical at any worker count.
func EvalCandidates(n, workers int, eval func(i int) (stop bool)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if eval(i) {
				return
			}
		}
		return
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				eval(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
}

// MapAndSolve runs the two-pass pipeline for the workflow on the cluster
// against the per-zone supply zs (whose common horizon is the deadline).
// Candidates that cannot meet the deadline are skipped; if none can, the
// first candidate's error is returned. Canceling ctx aborts the search.
//
// With opt.Workers > 1 the candidates are mapped and solved concurrently
// across a bounded pool: a mapping depends only on the workflow, the
// policy and the immutable cluster. The reduction walks the policies in
// order — first strictly lower cost wins, errors surface exactly as in the
// sequential search — so the result is bit-identical at any worker count.
func MapAndSolve(ctx context.Context, d *dag.DAG, c *platform.Cluster, zs *power.ZoneSet, opt MapSolveOptions) (*MapSolveResult, error) {
	policies := opt.Policies
	if len(policies) == 0 {
		policies = AllPolicies()
	}
	if zs == nil {
		return nil, fmt.Errorf("greenheft: MapAndSolve needs a per-zone power supply")
	}

	candidates := obs.MeterFrom(ctx).Counter("schedd_mapsearch_candidates_total",
		"map-search candidate mappings scheduled, by policy and outcome", "policy", "outcome")
	evals := make([]*polEval, len(policies))
	EvalCandidates(len(policies), opt.Workers, func(i int) bool {
		e := &polEval{}
		evals[i] = e
		if e.err = scherr.Canceled(ctx.Err()); e.err != nil {
			return true
		}
		if e.inst, e.mapErr = MapInstance(d, c, Options{Policy: policies[i], Alpha: opt.Alpha, Zones: zs}); e.mapErr != nil {
			return true
		}
		e.d = core.ASAPMakespan(e.inst)
		cctx, csp := obs.Start(ctx, "map-candidate")
		if opt.Marginal {
			e.s, e.st, e.err = core.RunMarginalZones(cctx, e.inst, zs, opt.Sched)
		} else {
			e.s, e.st, e.err = core.RunZones(cctx, e.inst, zs, opt.Sched)
		}
		outcome := "ok"
		if e.err != nil {
			outcome = "error"
		}
		if csp != nil {
			csp.SetAttr("policy", policies[i].String())
			if e.err != nil {
				csp.SetAttr("error", e.err.Error())
			} else {
				csp.SetAttr("cost", e.st.Cost)
			}
			csp.End()
		}
		candidates.With(policies[i].String(), outcome).Inc()
		return errors.Is(e.err, scherr.ErrCanceled)
	})

	res := &MapSolveResult{}
	var firstErr error
	for i, pol := range policies {
		e := evals[i]
		if e.mapErr != nil {
			return nil, e.mapErr
		}
		if errors.Is(e.err, scherr.ErrCanceled) {
			return nil, e.err
		}
		out := PolicyOutcome{Policy: pol, D: e.d}
		if e.err != nil {
			// Typically ErrInfeasibleDeadline: this mapping cannot meet
			// the horizon. Record it and let the other candidates compete.
			out.Err = e.err.Error()
			if firstErr == nil {
				firstErr = e.err
			}
		} else {
			out.Cost = e.st.Cost
			if res.Schedule == nil || e.st.Cost < res.Cost {
				res.Policy, res.Inst, res.Schedule = pol, e.inst, e.s
				res.Stats, res.Cost, res.D = e.st, e.st.Cost, out.D
			}
		}
		res.Outcomes = append(res.Outcomes, out)
	}
	if res.Schedule == nil {
		return nil, fmt.Errorf("greenheft: no candidate mapping is feasible: %w", firstErr)
	}
	return res, nil
}
