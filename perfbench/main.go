// Command perfbench is the repository's benchmark: one process drives one
// workload against schedd (over loopback) or the solver (in-process),
// checks every output, and prints its metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 1
//	bash perfbench/run.sh --repeat-check --workload solve-large --seed 1
//	bash perfbench/run.sh --ladder
//
// An untraced run (--trace 0) sets the system up three times, then
// measures a closed loop of --clients clients for --seconds and prints the
// end-to-end metrics. A traced run (--trace 1) measures the same stream
// with one span per op and the solver's stage timings as child spans,
// then an untraced stretch for the tracing overhead, then replays a prefix
// of the ops on one goroutine with one span per public call, and prints
// the per-layer metrics. The last line of standard output is always the
// JSON result; README.md describes every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	cawosched "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload    string
	seed        uint64
	seconds     int
	trace       int
	clients     int
	out         string
	ladder      bool
	repeatCheck bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: serve-hot | serve-cold | solve-large | fleet-tier")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every input is generated from it")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.IntVar(&cfg.clients, "clients", min(2, runtime.NumCPU()), "closed-loop clients (at most nproc)")
	fs.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for the span files of traced runs")
	fs.BoolVar(&cfg.ladder, "ladder", false, "run the size-ladder diagnostic instead of a workload")
	fs.BoolVar(&cfg.repeatCheck, "repeat-check", false, "run the traced workload twice at --seed and once at --seed+1 and check that its counts repeat")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx := context.Background()
	var err error
	switch {
	case cfg.ladder:
		err = runLadder(ctx, cfg, stdout)
	case cfg.repeatCheck:
		err = repeatCheck(ctx, cfg, stdout, stderr)
	default:
		var res result
		if res, err = runWorkload(ctx, cfg, stdout); err == nil {
			err = json.NewEncoder(stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func (c config) validate() error {
	if n := runtime.NumCPU(); c.clients < 1 || c.clients > n {
		return fmt.Errorf("--clients %d: want 1..nproc (%d); more clients than cores measure the client, not the server", c.clients, n)
	}
	if c.ladder {
		return nil
	}
	if _, ok := specs[c.workload]; !ok {
		return fmt.Errorf("--workload %q: want one of %v", c.workload, workloadNames)
	}
	if c.seconds < 1 || c.trace < 0 || c.trace > 1 {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	return nil
}

// runWorkload runs one untraced or traced run and returns its result,
// printing the environment record and a readable summary first.
func runWorkload(ctx context.Context, cfg config, stdout io.Writer) (result, error) {
	env := newEnvInfo(cfg.workload, cfg.seed, cfg.trace == 1, cfg.seconds, cfg.clients)
	line, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", line)
	b, err := newBench(cfg.workload, cfg.seed, cfg.clients, float64(cfg.seconds))
	if err != nil {
		return result{}, err
	}
	defer b.close()
	var res result
	var notes []string
	if cfg.trace == 1 {
		res, notes, _, err = b.traced(ctx, cfg.out)
	} else {
		res, notes, err = b.untraced(ctx)
	}
	if err != nil {
		return result{}, err
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	defs := endToEnd
	if cfg.trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(stdout, "metric %-26s %14.4f %s\n", d.name, m.Value, m.Unit)
	}
	return res, nil
}

// setupRuns is how many times an untraced run sets the system up;
// setup_s is the median, so that one slow set-up does not move it.
const setupRuns = 3

// untraced sets the system up setupRuns times (keeping the last),
// measures one window and checks every op.
func (b *bench) untraced(ctx context.Context) (result, []string, error) {
	var setupTimes []float64
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		if err := b.setup(ctx); err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	minOps := max(minSamples(b.tailPct), b.quality)
	recs, elapsed := b.window(ctx, 0, minOps, time.Duration(b.seconds*float64(time.Second)), false)
	heap := liveHeapMB()
	b.close()
	b.verify(ctx, recs)

	lats := make([]float64, len(recs))
	for i := range recs {
		lats[i] = ms(recs[i].lat)
	}
	vals := map[string]float64{
		"throughput_ops_s": float64(len(recs)) / elapsed.Seconds(),
		"cost_ratio":       b.costRatio(recs),
		"setup_s":          median(setupTimes),
		"live_heap_mb":     heap,
		"ok_ratio":         1 - errorRatio(recs),
	}
	for name, pct := range map[string]int{"latency_p50_ms": 50, "latency_p90_ms": 90, "latency_tail_ms": b.tailPct} {
		v, err := percentile(lats, pct)
		if err != nil {
			return result{}, nil, err
		}
		vals[name] = v
	}
	attempted, failed := tally(recs)
	notes := []string{
		fmt.Sprintf("ops %d in %.3fs, failed %d (error_ratio %.4f), above ASAP cost %d; latency_tail_ms is p%d of %d samples; setup_s over %d set-ups %v",
			attempted, elapsed.Seconds(), failed, errorRatio(recs), aboveASAP(recs), b.tailPct, len(lats), setupRuns, setupTimes),
	}
	notes = append(notes, failures(recs)...)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: fill(endToEnd, vals)}, notes, nil
}

// failures describes up to five failed ops.
func failures(recs []opRecord) []string {
	var out []string
	for i := range recs {
		if recs[i].err != nil && len(out) < 5 {
			out = append(out, fmt.Sprintf("failed op %d: %v", recs[i].id, recs[i].err))
		}
	}
	return out
}

// traced runs the traced window, an untraced window of the same length
// for the overhead ratio, and the replay of the first ops; it returns the
// per-layer metrics and the run's cost_ratio, which the repeat check
// compares across runs.
func (b *bench) traced(ctx context.Context, outDir string) (result, []string, float64, error) {
	if err := b.setup(ctx); err != nil {
		return result{}, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	linkProcs := 0
	if b.http {
		linkProcs = b.sys.cluster.NumProcs()
	}
	mirrors, err := b.mirrors(ctx)
	if err != nil {
		return result{}, nil, 0, err
	}
	half := time.Duration(b.seconds * float64(time.Second) / 2)

	solver0, tier0, rt0 := b.sys.solverTotals(), b.sys.tierTotals(), readRuntime()
	load, loadDur := b.window(ctx, 0, max(b.replayOps, b.quality), half, true)
	solver1, tier1, rt1 := b.sys.solverTotals(), b.sys.tierTotals(), readRuntime()
	plain, plainDur := b.window(ctx, load[len(load)-1].id+1, 1, half, false)

	t := &tracer{t0: time.Now()}
	joined := load[:min(b.replayOps, len(load))]
	reps, repStats := b.replay(ctx, mirrors, joined, t)
	b.close()
	all := append(load[:len(load):len(load)], plain...)
	b.verify(ctx, all) // one reference history for both windows

	spans := append(b.loadSpans(load), t.spans...)
	vals := b.layerValues(joined, reps, spans)
	ops := float64(len(load))
	vals["platform.link_procs"] = float64(linkProcs)
	if !b.http {
		vals["platform.link_procs"] = meanOf(joined, func(r *opRecord) float64 { return float64(reps[r.id].linkProcs) })
	}
	vals["solver.plan_hit_ratio"] = ratio(repStats.PlanHits, repStats.PlanHits+repStats.PlanMisses)
	vals["solver.solve_hit_ratio"] = ratio(repStats.SolveHits, repStats.SolveHits+repStats.SolveMisses)
	ds := addStats(cawosched.SolverStats{}, solver1, solver0)
	vals["solver.coalesced_ratio"] = float64(ds.SolveCoalesced) / ops
	vals["solver.contention_per_op"] = float64(ds.PlanContention+ds.SolveContention) / ops
	vals["tier.gets_per_op"] = float64(tier1.Gets-tier0.Gets) / ops
	vals["tier.hit_ratio"] = ratio(tier1.Hits-tier0.Hits, tier1.Gets-tier0.Gets)
	vals["tier.errors"] = float64(tier1.Errors - tier0.Errors)
	vals["tier.timeouts"] = float64(tier1.Timeouts - tier0.Timeouts)
	vals["tier.put_drops"] = float64(tier1.Drops - tier0.Drops)
	vals["runtime.allocs_per_op"] = float64(rt1.objects-rt0.objects) / ops
	vals["runtime.alloc_kb_per_op"] = float64(rt1.bytes-rt0.bytes) / 1024 / ops
	vals["runtime.gc_cpu_share"] = 0
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		vals["runtime.gc_cpu_share"] = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	loadThr := float64(len(load)) / loadDur.Seconds()
	plainThr := float64(len(plain)) / plainDur.Seconds()
	vals["trace.overhead_ratio"] = plainThr / loadThr

	path, err := writeSpans(outDir, b.name, b.seed, spans)
	if err != nil {
		return result{}, nil, 0, fmt.Errorf("writing spans: %w", err)
	}
	attempted, failed := tally(all)
	notes := []string{
		fmt.Sprintf("traced window: %d ops in %.3fs (%.2f ops/s); untraced window: %d ops in %.3fs (%.2f ops/s); replayed ops 0..%d; failed %d, above ASAP cost %d",
			len(load), loadDur.Seconds(), loadThr, len(plain), plainDur.Seconds(), plainThr, len(joined)-1, failed, aboveASAP(all)),
		fmt.Sprintf("spans written to %s", path),
	}
	if b.http {
		notes = append(notes, b.sumNote(vals))
	}
	for _, d := range perLayer {
		notes = append(notes, fmt.Sprintf("layer %-26s moves %-46q exercised by %-11s bypassed by %s", d.name, d.moves, d.exercised, d.bypassed))
	}
	notes = append(notes, failures(all)...)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: fill(perLayer, vals)}
	return res, notes, b.costRatio(load), nil
}
