package cawosched_test

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"testing"
	"weak"

	cawosched "repro"
	"repro/internal/wire"
)

// TestSolveResponseCache is the acceptance property of the second cache
// level: a repeated identical request is served from the solve-response
// cache (hit counter increments, CacheHit set) with an identical result,
// and the returned schedule is a private copy the caller may mutate.
func TestSolveResponseCache(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Methylseq, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(11))
	req := cawosched.Request{Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S1, Seed: 11}

	first, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first solve reported a response-cache hit")
	}
	second, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("identical request missed the solve-response cache")
	}
	if !second.PlanHit {
		t.Error("cache hit did not also report the plan hit")
	}
	if second.Cost != first.Cost || second.ASAPCost != first.ASAPCost || second.Deadline != first.Deadline {
		t.Errorf("cached response differs: cost %d/%d asap %d/%d deadline %d/%d",
			first.Cost, second.Cost, first.ASAPCost, second.ASAPCost, first.Deadline, second.Deadline)
	}
	for v := range first.Schedule.Start {
		if first.Schedule.Start[v] != second.Schedule.Start[v] {
			t.Fatalf("cached schedule moved node %d: %d → %d", v, first.Schedule.Start[v], second.Schedule.Start[v])
		}
	}
	st := solver.Stats()
	if st.SolveHits != 1 || st.SolveMisses != 1 {
		t.Errorf("stats = %+v, want 1 solve hit, 1 solve miss", st)
	}
	if st.SolveEntries != 1 {
		t.Errorf("cache holds %d entries, want 1", st.SolveEntries)
	}

	// Mutating a returned schedule must not poison the cache.
	second.Schedule.Start[0] += 1_000_000
	third, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit {
		t.Error("third request missed")
	}
	if third.Schedule.Start[0] != first.Schedule.Start[0] {
		t.Error("caller mutation leaked into the cached schedule")
	}
}

// TestSolveResponseCacheKeying: different variants, profiles (seed or
// scenario), deadlines, greedy flavors, and tuning parameters must key
// separately; Options with explicit paper defaults must key like the
// implicit defaults.
func TestSolveResponseCacheKeying(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(3))
	base := cawosched.Request{Workflow: wf, Variant: "press", Scenario: cawosched.S1, Seed: 3}
	if _, err := solver.Solve(context.Background(), base); err != nil {
		t.Fatal(err)
	}

	distinct := []cawosched.Request{
		{Workflow: wf, Variant: "slack", Scenario: cawosched.S1, Seed: 3},
		{Workflow: wf, Variant: "press", Scenario: cawosched.S2, Seed: 3},
		{Workflow: wf, Variant: "press", Scenario: cawosched.S1, Seed: 4},
		{Workflow: wf, Variant: "press", Scenario: cawosched.S1, Seed: 3, DeadlineFactor: 3},
		{Workflow: wf, Variant: "press", Scenario: cawosched.S1, Seed: 3, Marginal: true},
		{Workflow: wf, Options: &cawosched.Options{Score: cawosched.ScorePressure, Mu: 20, LocalSearch: true}, Scenario: cawosched.S1, Seed: 3},
	}
	for i, req := range distinct {
		res, err := solver.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("distinct request %d: %v", i, err)
		}
		if res.CacheHit {
			t.Errorf("distinct request %d wrongly hit the cache", i)
		}
	}

	// Explicit defaults key like implicit ones: press == Options{pressure, K=3, Mu=10}.
	explicit := cawosched.Request{
		Workflow: wf,
		Options:  &cawosched.Options{Score: cawosched.ScorePressure, K: 3, Mu: 10},
		Scenario: cawosched.S1, Seed: 3,
	}
	res, err := solver.Solve(context.Background(), explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("explicit paper defaults missed the cache entry of the implicit defaults")
	}
}

// TestSolverPlanOrderIndependence pins the shared-cluster determinism the
// service depends on: the response for a workflow — cost, start times and
// the encoded wire body — must not depend on which other workflows were
// planned or solved on the same cluster first. Each case warms a shared
// solver, then compares its answer with a fresh solver's. (Profile
// corridors once summed every link of the shared cluster, and link ids
// once followed the cluster's first-use order, so plan history leaked into
// costs and then into start times and processor ids.)
func TestSolverPlanOrderIndependence(t *testing.T) {
	ctx := context.Background()
	gen := func(f cawosched.Family, n int, seed uint64) *cawosched.DAG {
		t.Helper()
		wf, err := cawosched.GenerateWorkflow(f, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		return wf
	}
	solve := func(s *cawosched.Solver, req cawosched.Request) *cawosched.Response {
		t.Helper()
		res, err := s.Solve(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fixed := func(wf *cawosched.DAG) cawosched.Request {
		return cawosched.Request{Workflow: wf, Variant: "pressWR-LS", Scenario: cawosched.S2, Seed: 5}
	}
	zones3 := []cawosched.Scenario{cawosched.S1, cawosched.S2, cawosched.S3}
	methyl80, eager70 := gen(cawosched.Methylseq, 80, 1), gen(cawosched.Eager, 70, 2)
	methyl200, bacass200 := gen(cawosched.Methylseq, 200, 1), gen(cawosched.Bacass, 200, 2)
	atac120 := gen(cawosched.Atacseq, 120, 3)

	cases := []struct {
		name    string
		cluster func() *cawosched.Cluster
		warm    func(s *cawosched.Solver)
		req     cawosched.Request
	}{
		{"solve-a-then-b", func() *cawosched.Cluster { return cawosched.SmallCluster(6) },
			func(s *cawosched.Solver) { solve(s, fixed(methyl80)) }, fixed(eager70)},
		{"solve-b-then-a", func() *cawosched.Cluster { return cawosched.SmallCluster(6) },
			func(s *cawosched.Solver) { solve(s, fixed(eager70)) }, fixed(methyl80)},
		{"plan-then-solve", func() *cawosched.Cluster { return cawosched.SmallCluster(6) },
			func(s *cawosched.Solver) {
				if _, _, err := s.Plan(ctx, methyl200); err != nil {
					t.Fatal(err)
				}
			}, fixed(bacass200)},
		{"map-search-then-solve", func() *cawosched.Cluster { return cawosched.SmallZonedCluster(4, 3) },
			func(s *cawosched.Solver) {
				req := fixed(methyl200)
				req.MapSearch, req.ZoneScenarios = true, zones3
				solve(s, req)
			},
			cawosched.Request{Workflow: atac120, Variant: "pressWR-LS", ZoneScenarios: zones3, Seed: 7}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			shared := cawosched.NewSolver(c.cluster())
			c.warm(shared)
			got := solve(shared, c.req)
			want := solve(cawosched.NewSolver(c.cluster()), c.req)
			if got.Cost != want.Cost || got.ASAPCost != want.ASAPCost || got.Deadline != want.Deadline {
				t.Errorf("cost %d/%d asap %d/%d deadline %d/%d after warm-up, want fresh-solver values",
					got.Cost, want.Cost, got.ASAPCost, want.ASAPCost, got.Deadline, want.Deadline)
			}
			if !slices.Equal(got.Schedule.Start, want.Schedule.Start) {
				t.Error("start times depend on the solver's plan history")
			}
			if !bytes.Equal(encodeUntimed(t, got), encodeUntimed(t, want)) {
				t.Error("encoded response depends on the solver's plan history")
			}
		})
	}
}

// encodeUntimed encodes a response the way the solve endpoint does, minus
// the wall-clock timings and the cache flags, which legitimately differ
// between a warmed and a fresh solver.
func encodeUntimed(t *testing.T, res *cawosched.Response) []byte {
	t.Helper()
	zones := cawosched.CostBreakdownZones(res.Instance, res.Schedule, res.Zones)
	out := wire.SolveResponse{
		Variant:      res.Variant,
		Mapping:      res.Mapping,
		ASAPMakespan: res.D,
		Deadline:     res.Deadline,
		Cost:         res.Cost,
		ASAPCost:     res.ASAPCost,
		Schedule:     cawosched.ExportSchedule(res.Instance, res.Schedule),
		Zones:        zones,
	}
	if res.Zones.Single() {
		out.Intervals = zones[0].Intervals
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSolveResponseCacheEviction pins the LRU bound: with a limit of 2,
// the least-recently-used entry is evicted, recently-touched entries stay.
// Shard count 1 so recency is global — the exact pre-sharding LRU — since
// a 2-entry cache split across many shards would pick victims per shard.
func TestSolveResponseCacheEviction(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Eager, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallCluster(5), cawosched.WithCacheShards(1))
	solver.SetSolveCacheLimit(2)
	reqFor := func(variant string) cawosched.Request {
		return cawosched.Request{Workflow: wf, Variant: variant, Scenario: cawosched.S4, Seed: 5}
	}

	must := func(variant string) *cawosched.Response {
		t.Helper()
		res, err := solver.Solve(context.Background(), reqFor(variant))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	must("slack") // cache: [slack]
	must("press") // cache: [press slack]
	if !must("slack").CacheHit {
		t.Error("slack evicted while cache not full")
	} // cache: [slack press]
	must("slackW") // evicts press → [slackW slack]
	if st := solver.Stats(); st.SolveEntries != 2 {
		t.Errorf("cache holds %d entries, want 2", st.SolveEntries)
	}
	if must("press").CacheHit {
		t.Error("press survived eviction beyond the limit")
	}
	if !must("slackW").CacheHit {
		t.Error("recently inserted slackW was evicted")
	}

	solver.ResetSolveCache()
	if st := solver.Stats(); st.SolveEntries != 0 {
		t.Errorf("reset left %d entries", st.SolveEntries)
	}
	if must("slackW").CacheHit {
		t.Error("hit after ResetSolveCache")
	}

	solver.SetSolveCacheLimit(0) // disable
	must("press")
	if must("press").CacheHit {
		t.Error("disabled cache returned a hit")
	}
}

// TestSolveCacheRetainsNoRequestDAG: once a workflow's plan is memoized,
// the solve cache, the flights and the later plan lookups key on the
// memo's copy, so a request that brings an equal but distinct decoded DAG
// leaves nothing pinning that copy — neither the fixed-mapping entry its
// solve miss stores nor the zone-aware plans a map-search builds.
func TestSolveCacheRetainsNoRequestDAG(t *testing.T) {
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wire.FromDAG(wf))
	if err != nil {
		t.Fatal(err)
	}
	decode := func() *cawosched.DAG {
		var w wire.DAG
		if err := json.Unmarshal(body, &w); err != nil {
			t.Fatal(err)
		}
		d, err := w.ToDAG()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	solver := cawosched.NewSolver(cawosched.SmallZonedCluster(5, 3))
	ctx := context.Background()
	if _, err := solver.Solve(ctx, cawosched.Request{Workflow: decode(), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// solveCopy solves req with a freshly decoded copy of the workflow
	// and returns only a weak pointer to that copy.
	solveCopy := func(req cawosched.Request) weak.Pointer[cawosched.DAG] {
		req.Workflow = decode()
		resp, err := solver.Solve(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.PlanHit || resp.CacheHit {
			t.Fatalf("seed %d: plan_hit=%v cache_hit=%v, want a plan hit and a solve miss", req.Seed, resp.PlanHit, resp.CacheHit)
		}
		return weak.Make(req.Workflow)
	}
	// The fixed-mapping request also brings its own explicit supply, which
	// the stored entry must not retain either (it keeps a clone).
	inst, _, err := solver.Plan(ctx, wf)
	if err != nil {
		t.Fatal(err)
	}
	explicit := func() (cawosched.Request, weak.Pointer[cawosched.ZoneSet]) {
		zones, err := solver.ZonesFor(ctx, inst, cawosched.Request{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		return cawosched.Request{Zones: zones, Seed: 2}, weak.Make(zones)
	}
	req, zonesPtr := explicit()
	copies := []weak.Pointer[cawosched.DAG]{
		solveCopy(req),
		solveCopy(cawosched.Request{Seed: 3, MapSearch: true}),
	}
	if n := solver.Stats().SolveEntries; n != 3 {
		t.Fatalf("solve cache holds %d entries, want 3", n)
	}
	runtime.GC()
	runtime.GC()
	for i, p := range copies {
		if p.Value() != nil {
			t.Errorf("request %d: the decoded DAG is still reachable after GC", i+1)
		}
	}
	if zonesPtr.Value() != nil {
		t.Error("the explicit zone set of request 1 is still reachable after GC")
	}
	runtime.KeepAlive(solver) // its caches are what must not pin the copies
}
