package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	cawosched "repro"
	"repro/internal/ceg"
	"repro/internal/core"
	"repro/internal/heft"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/wire"
)

// span is one timed call. Spans of one op share its id; the load pass
// holds the traced window's ops, the replay pass the single-client replay
// of the same ops.
type span struct {
	Op     int              `json:"op"`
	Pass   string           `json:"pass"`
	Name   string           `json:"name"`
	Parent string           `json:"parent,omitempty"`
	Start  float64          `json:"start_ms"` // from the pass's start
	Dur    float64          `json:"dur_ms"`
	Allocs int64            `json:"allocs,omitempty"` // heap objects allocated (replay only)
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

const (
	passLoad   = "load"
	passReplay = "replay"
)

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// measure runs f as one replay span of op, recording its duration and
// the heap objects it allocated. ReadMemStats stops the world, which is
// acceptable only because the replay runs on a single goroutine against
// an otherwise idle process.
func (t *tracer) measure(op int, name, parent string, f func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := f()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	t.spans = append(t.spans, span{
		Op: op, Pass: passReplay, Name: name, Parent: parent,
		Start: ms(start.Sub(t.t0)), Dur: ms(d), Allocs: int64(m1.Mallocs - m0.Mallocs),
	})
	return err
}

// stageSpan names the span of a solver stage timing.
func stageSpan(stage string) string {
	if stage == "map" {
		return "greenheft.map"
	}
	return "solver." + stage
}

// solverStages are the span names of the stages Solve reports in
// Response.Timings; together they cover the whole Solve call.
var solverStages = []string{"solver.plan", "solver.supply", "solver.cache", "solver.coalesce", "solver.tier", "greenheft.map", "solver.schedule"}

// loadSpans turns the traced window's ops into spans: a root per op (the
// HTTP round trip, or the in-process op of solve-large) with the stage
// timings the solver returned as children. The server reports only stage
// durations, so children are laid end to end from the root's start.
func (b *bench) loadSpans(recs []opRecord) []span {
	var out []span
	for i := range recs {
		r := &recs[i]
		root := span{Op: r.id, Pass: passLoad, Name: "server.roundtrip", Start: ms(r.at), Dur: ms(r.lat)}
		cursor := r.at
		if !b.http {
			root.Name = "solve-large.op"
			root.Attrs = map[string]int64{
				"ls_rounds": int64(r.stats.LSRounds), "ls_moves": int64(r.stats.LSMoves),
				"ls_scans": int64(r.stats.LSScans), "cost": r.stats.Cost, "greedy_cost": r.stats.GreedyCost,
			}
			out = append(out, root, span{Op: r.id, Pass: passLoad, Name: "platform.cluster_build", Parent: root.Name, Start: ms(cursor), Dur: ms(r.cluster)})
			cursor += r.cluster
		} else {
			out = append(out, root)
		}
		for _, t := range r.sum.Timings {
			d := time.Duration(t.Micros) * time.Microsecond
			out = append(out, span{Op: r.id, Pass: passLoad, Name: stageSpan(t.Stage), Parent: root.Name, Start: ms(cursor), Dur: ms(d)})
			cursor += d
		}
	}
	return out
}

// mirrors returns solvers warmed the way set-up warmed the system under
// test, indexed by the peer the stream sends ops to. The replay pass
// solves against them instead of the servers, whose caches the windows
// have changed.
func (b *bench) mirrors(ctx context.Context) (map[int]*cawosched.Solver, error) {
	out := make(map[int]*cawosched.Solver)
	switch b.name {
	case serveHot, serveCold:
		s, err := b.warmedSolver(ctx)
		if err != nil {
			return nil, fmt.Errorf("warming the mirror: %w", err)
		}
		out[0] = s
	case fleetTier:
		for p := 1; p < fleetPeers; p++ {
			tier, err := cawosched.NewPeerTier(b.sys.hosts, cawosched.PeerTierOptions{})
			if err != nil {
				return nil, err
			}
			s, err := b.warmedSolver(ctx, cawosched.WithCacheTier(tier))
			if err != nil {
				return nil, fmt.Errorf("warming the mirror: %w", err)
			}
			out[p] = s
		}
	}
	return out, nil
}

// replayed is what the replay of one op measured beyond its spans.
type replayed struct {
	cost, asap int64
	stats      cawosched.Stats // of the replayed greedy and local search
	linkProcs  int
	respBytes  int // encoded response without its timings
}

// replay runs the given ops again on one goroutine, one span per public
// call the serving path makes, against the mirrors (HTTP workloads) or a
// fresh cluster (solve-large). An op whose replay fails, or replays to
// another cost than the one served, is failed.
func (b *bench) replay(ctx context.Context, mirrors map[int]*cawosched.Solver, recs []opRecord, t *tracer) (map[int]replayed, cawosched.SolverStats) {
	out := make(map[int]replayed, len(recs))
	var stats cawosched.SolverStats
	before := make(map[int]cawosched.SolverStats)
	for p, s := range mirrors {
		before[p] = s.Stats()
	}
	for i := range recs {
		r := &recs[i]
		var rp replayed
		err := t.measure(r.id, "replay.op", "", func() error {
			var err error
			if b.http {
				rp, err = b.replayHTTP(ctx, mirrors[r.peer], r, t)
			} else {
				var st cawosched.SolverStats
				rp, st, err = b.replayLarge(ctx, r, t)
				stats = addStats(stats, st, cawosched.SolverStats{})
			}
			return err
		})
		if err == nil && rp.cost != r.sum.Cost {
			err = fmt.Errorf("cost %d, served %d", rp.cost, r.sum.Cost)
		}
		if err != nil && r.err == nil {
			r.err = fmt.Errorf("replay: %w", err)
		}
		out[r.id] = rp
	}
	for p, s := range mirrors {
		stats = addStats(stats, s.Stats(), before[p])
	}
	return out, stats
}

// replayHTTP replays one op the way the solve handler runs it: strict
// decode and ToDAG, Solve, export, indented encode.
func (b *bench) replayHTTP(ctx context.Context, mirror *cawosched.Solver, r *opRecord, t *tracer) (replayed, error) {
	var rp replayed
	body := b.body(r.key)
	var req cawosched.Request
	err := t.measure(r.id, "wire.decode", "replay.op", func() error {
		var wreq wire.SolveRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wreq); err != nil {
			return err
		}
		var err error
		req, err = toRequest(&wreq)
		return err
	})
	if err != nil {
		return rp, err
	}
	t.measure(r.id, "dag.fingerprint", "replay.op", func() error { req.Workflow.Fingerprint(); return nil })
	var resp *cawosched.Response
	if err := t.measure(r.id, "solver.solve", "replay.op", func() error {
		var err error
		resp, err = mirror.Solve(ctx, req)
		return err
	}); err != nil {
		return rp, err
	}
	if resp.CacheHit != b.wantHit {
		return rp, fmt.Errorf("mirror cache_hit %v, want %v", resp.CacheHit, b.wantHit)
	}
	var out *wire.SolveResponse
	t.measure(r.id, "schedule.export", "replay.op", func() error { out = exportResponse(resp); return nil })
	var buf bytes.Buffer
	if err := t.measure(r.id, "wire.encode", "replay.op", func() error { return jsonEncode(&buf, out, true) }); err != nil {
		return rp, err
	}
	rp.respBytes = buf.Len()
	if i := bytes.LastIndex(buf.Bytes(), []byte(",\n  \"timings\"")); i >= 0 {
		rp.respBytes = i + len("\n}\n")
	}
	rp.cost, rp.asap = resp.Cost, resp.ASAPCost
	if !resp.CacheHit { // the scheduler ran for this op
		rp.stats, err = b.replayCore(ctx, r.id, resp, t)
	}
	return rp, err
}

// replayLarge replays one solve-large op: the planning calls on a fresh
// cluster, the Solve on another fresh cluster, and the core scheduler on
// the solved instance.
func (b *bench) replayLarge(ctx context.Context, r *opRecord, t *tracer) (replayed, cawosched.SolverStats, error) {
	var rp replayed
	req := b.request(r.key)
	var cluster *cawosched.Cluster
	t.measure(r.id, "platform.cluster_build", "replay.op", func() error {
		cluster = cawosched.LargeZonedCluster(r.key.cluster, 1)
		return nil
	})
	var h *heft.Result
	if err := t.measure(r.id, "heft.schedule", "replay.op", func() error {
		var err error
		h, err = heft.Schedule(req.Workflow, cluster)
		return err
	}); err != nil {
		return rp, cawosched.SolverStats{}, err
	}
	if err := t.measure(r.id, "ceg.build", "replay.op", func() error {
		_, err := ceg.Build(req.Workflow, ceg.FromHEFT(h.Proc, h.Order, h.Finish), cluster)
		return err
	}); err != nil {
		return rp, cawosched.SolverStats{}, err
	}
	rp.linkProcs = cluster.NumProcs()
	t.measure(r.id, "dag.fingerprint", "replay.op", func() error { req.Workflow.Fingerprint(); return nil })
	solver := cawosched.NewSolver(cawosched.LargeZonedCluster(r.key.cluster, 1))
	var resp *cawosched.Response
	if err := t.measure(r.id, "solver.solve", "replay.op", func() error {
		var err error
		resp, err = solver.Solve(ctx, req)
		return err
	}); err != nil {
		return rp, cawosched.SolverStats{}, err
	}
	rp.cost, rp.asap = resp.Cost, resp.ASAPCost
	var err error
	rp.stats, err = b.replayCore(ctx, r.id, resp, t)
	return rp, solver.Stats(), err
}

// replayCore reruns the scheduler's two phases on the solved instance and
// supply; the result must cost exactly what the solver returned.
func (b *bench) replayCore(ctx context.Context, op int, resp *cawosched.Response, t *tracer) (cawosched.Stats, error) {
	var st core.Stats
	opt, err := cawosched.LookupVariant(resp.Variant)
	if err != nil {
		return st, err
	}
	var s *schedule.Schedule
	if err := t.measure(op, "core.greedy", "replay.op", func() error {
		var err error
		s, err = core.GreedyZones(ctx, resp.Instance, resp.Zones, opt, &st)
		return err
	}); err != nil {
		return st, err
	}
	if opt.LocalSearch {
		if err := t.measure(op, "core.local_search", "replay.op", func() error {
			return core.LocalSearchZonesWorkers(ctx, resp.Instance, resp.Zones, s, opt.EffectiveMu(), opt.SearchWorkers, &st)
		}); err != nil {
			return st, err
		}
	}
	if c := schedule.CarbonCostZones(resp.Instance, s, resp.Zones); c != resp.Cost {
		return st, fmt.Errorf("replayed greedy and local search cost %d, Solve returned %d", c, resp.Cost)
	}
	return st, nil
}

// toRequest converts a decoded wire request into a solver request, as the
// solve handler does, for the fields the benchmark sends.
func toRequest(w *wire.SolveRequest) (cawosched.Request, error) {
	var req cawosched.Request
	if w.Workflow == nil {
		return req, errors.New("missing workflow")
	}
	if len(w.Zones) > 0 || w.Profile != nil {
		return req, errors.New("explicit supplies are not replayed")
	}
	wf, err := w.Workflow.ToDAG()
	if err != nil {
		return req, err
	}
	req.Workflow = wf
	req.Variant = w.Variant
	req.Marginal = w.Marginal
	if req.MappingPolicy, req.MapSearch, err = cawosched.ParseMapping(w.Mapping); err != nil {
		return req, err
	}
	req.DeadlineFactor = w.DeadlineFactor
	req.Intervals = w.Intervals
	req.Seed = w.Seed
	if w.Scenario != "" {
		if req.Scenario, err = power.ParseScenario(w.Scenario); err != nil {
			return req, err
		}
	}
	for _, name := range w.ZoneScenarios {
		sc, err := power.ParseScenario(name)
		if err != nil {
			return req, err
		}
		req.ZoneScenarios = append(req.ZoneScenarios, sc)
	}
	return req, nil
}

// exportResponse flattens a solver response for the wire the way the solve
// handler does: per-zone cost breakdown plus the exported schedule.
func exportResponse(res *cawosched.Response) *wire.SolveResponse {
	zones := cawosched.CostBreakdownZones(res.Instance, res.Schedule, res.Zones)
	out := &wire.SolveResponse{
		Variant:      res.Variant,
		Mapping:      res.Mapping,
		ASAPMakespan: res.D,
		Deadline:     res.Deadline,
		Cost:         res.Cost,
		ASAPCost:     res.ASAPCost,
		PlanCacheHit: res.PlanHit,
		CacheHit:     res.CacheHit,
		Coalesced:    res.Coalesced,
		Schedule:     schedule.Export(res.Instance, res.Schedule),
		Zones:        zones,
	}
	if res.Zones.Single() {
		out.Intervals = zones[0].Intervals
	}
	for _, t := range res.Timings {
		out.Timings = append(out.Timings, wire.StageTiming{Stage: t.Stage, Micros: t.Micros})
	}
	return out
}

// jsonEncode writes v as one line of JSON, or indented as schedd writes
// its responses.
func jsonEncode(w io.Writer, v any, indent bool) error {
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(v)
}

// addStats returns acc + (now − before) for the counters of SolverStats.
func addStats(acc, now, before cawosched.SolverStats) cawosched.SolverStats {
	acc.Solves += now.Solves - before.Solves
	acc.PlanHits += now.PlanHits - before.PlanHits
	acc.PlanMisses += now.PlanMisses - before.PlanMisses
	acc.SolveHits += now.SolveHits - before.SolveHits
	acc.SolveMisses += now.SolveMisses - before.SolveMisses
	acc.SolveCoalesced += now.SolveCoalesced - before.SolveCoalesced
	acc.TierHits += now.TierHits - before.TierHits
	acc.PlanContention += now.PlanContention - before.PlanContention
	acc.SolveContention += now.SolveContention - before.SolveContention
	return acc
}

// tierTotals sums the peer-tier counters of every peer (zero without a
// system, as on solve-large).
func (s *system) tierTotals() cawosched.PeerStats {
	var out cawosched.PeerStats
	if s == nil {
		return out
	}
	for _, p := range s.peers {
		if p.tier == nil {
			continue
		}
		for _, ps := range p.tier.Stats() {
			out.Gets += ps.Gets
			out.Hits += ps.Hits
			out.Errors += ps.Errors
			out.Timeouts += ps.Timeouts
			out.Puts += ps.Puts
			out.Drops += ps.Drops
		}
	}
	return out
}

// solverTotals sums the solver counters of every peer.
func (s *system) solverTotals() cawosched.SolverStats {
	var out cawosched.SolverStats
	if s == nil {
		return out
	}
	for _, p := range s.peers {
		out = addStats(out, p.solver.Stats(), cawosched.SolverStats{})
	}
	return out
}

// rtSnap is a runtime/metrics reading.
type rtSnap struct {
	objects, bytes  uint64
	gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return rtSnap{objects: uint64(val(0)), bytes: uint64(val(1)), gcCPU: val(2), totalCPU: val(3)}
}

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// writeSpans writes the spans as JSON lines to dir/spans-<workload>-seed<n>.jsonl.
func writeSpans(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for i := range spans {
		if err := jsonEncode(w, &spans[i], false); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
