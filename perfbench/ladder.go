package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	cawosched "repro"
	"repro/internal/wire"
)

// ladderRow is one solve of the size ladder.
type ladderRow struct {
	Tasks       int                `json:"tasks"`
	Phase       string             `json:"phase"`
	PlanHit     bool               `json:"plan_hit"`
	CacheHit    bool               `json:"cache_hit"`
	StagesUS    map[string]int64   `json:"stages_us"`
	SpansMS     map[string]float64 `json:"spans_ms"`
	Allocs      map[string]int64   `json:"allocs"`
	RequestKiB  float64            `json:"request_kib"`
	ResponseKiB float64            `json:"response_kib"`
}

// ladderSizes are the task counts of the size ladder.
var ladderSizes = []int{200, 1000, 4000, 10000, 20000}

// runLadder is the size-ladder diagnostic: for each size, a cold solve
// (plan and solve miss), a warm-plan solve (new supply, memoized plan)
// and a cached solve (the warm-plan request again), each run the way the
// solve handler runs it — decode, Solve, export, encode — on the 3-zone
// serving cluster. It prints one JSON line per solve.
func runLadder(ctx context.Context, cfg config, stdout io.Writer) error {
	env, _ := json.Marshal(newEnvInfo("ladder", cfg.seed, false, 0, 1))
	fmt.Fprintf(stdout, "env %s\n", env)
	for _, n := range ladderSizes {
		wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, n, derive(cfg.seed, uint64(n)))
		if err != nil {
			return err
		}
		solver := cawosched.NewSolver(cawosched.SmallZonedCluster(derive(cfg.seed, 1), len(zoneScenarios)))
		phases := []struct {
			name string
			seed uint64
		}{{"cold", derive(cfg.seed, 2)}, {"warm-plan", derive(cfg.seed, 3)}, {"cached", derive(cfg.seed, 3)}}
		for _, ph := range phases {
			row, err := ladderSolve(ctx, solver, wf, ph.seed)
			if err != nil {
				return fmt.Errorf("%d tasks, %s: %w", n, ph.name, err)
			}
			row.Tasks, row.Phase = n, ph.name
			line, _ := json.Marshal(row)
			fmt.Fprintf(stdout, "ladder %s\n", line)
		}
	}
	return nil
}

func ladderSolve(ctx context.Context, solver *cawosched.Solver, wf *cawosched.DAG, seed uint64) (ladderRow, error) {
	row := ladderRow{StagesUS: map[string]int64{}, SpansMS: map[string]float64{}, Allocs: map[string]int64{}}
	body, err := json.Marshal(&wire.SolveRequest{Workflow: wire.FromDAG(wf), ZoneScenarios: zoneScenarios, Seed: seed})
	if err != nil {
		return row, err
	}
	t := &tracer{t0: time.Now()}
	var req cawosched.Request
	if err := t.measure(0, "wire.decode", "", func() error {
		var wreq wire.SolveRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wreq); err != nil {
			return err
		}
		req, err = toRequest(&wreq)
		return err
	}); err != nil {
		return row, err
	}
	var resp *cawosched.Response
	if err := t.measure(0, "solver.solve", "", func() error {
		var err error
		resp, err = solver.Solve(ctx, req)
		return err
	}); err != nil {
		return row, err
	}
	var out *wire.SolveResponse
	t.measure(0, "schedule.export", "", func() error { out = exportResponse(resp); return nil })
	var buf bytes.Buffer
	if err := t.measure(0, "wire.encode", "", func() error { return jsonEncode(&buf, out, true) }); err != nil {
		return row, err
	}
	for _, s := range t.spans {
		row.SpansMS[s.Name] = s.Dur
		row.Allocs[s.Name] = s.Allocs
	}
	for _, st := range resp.Timings {
		row.StagesUS[st.Stage] += st.Micros
	}
	row.PlanHit, row.CacheHit = resp.PlanHit, resp.CacheHit
	row.RequestKiB = float64(len(body)) / 1024
	row.ResponseKiB = float64(buf.Len()) / 1024
	return row, nil
}
