package greenheft

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/wfgen"
)

// TestMapAndSolveWorkersIdentical pins that the candidate fan-out is pure
// mechanism: MapAndSolve at any Workers count returns the same winning
// policy, instance shape, schedule, stats, and per-candidate audit trail
// as the sequential search. Every run maps on one shared cluster, which
// is immutable, so concurrent candidate mapping is safe and no run sees
// another's history.
func TestMapAndSolveWorkersIdentical(t *testing.T) {
	ctx := context.Background()
	d, err := wfgen.Generate(wfgen.Methylseq, 100, 5)
	if err != nil {
		t.Fatal(err)
	}

	c := platform.SmallZoned(5, 3)
	inst0, err := MapInstance(d, c, Options{Policy: EFT})
	if err != nil {
		t.Fatal(err)
	}
	T := 2 * core.ASAPMakespan(inst0)
	specs := make([]power.ZoneSpec, 3)
	for z := range specs {
		gmin, gmax := power.PlatformBounds(inst0.ZoneIdlePower(z), c.ZoneComputeWork(z))
		specs[z] = power.ZoneSpec{Name: string(rune('a' + z)), Scenario: power.Scenarios()[z%4], Gmin: gmin, Gmax: gmax}
	}
	zs, err := power.GenerateZones(specs, T, 24, 5)
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) *MapSolveResult {
		t.Helper()
		res, err := MapAndSolve(ctx, d, c, zs, MapSolveOptions{
			Sched:   core.Options{Score: core.ScorePressureW, Refined: true, LocalSearch: true, SearchWorkers: workers},
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}

	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if got.Policy != want.Policy || got.Cost != want.Cost || got.D != want.D {
			t.Fatalf("workers=%d: winner (%v, %d, %d) != sequential (%v, %d, %d)",
				workers, got.Policy, got.Cost, got.D, want.Policy, want.Cost, want.D)
		}
		if got.Stats != want.Stats {
			t.Fatalf("workers=%d: stats %+v != sequential %+v", workers, got.Stats, want.Stats)
		}
		if len(got.Schedule.Start) != len(want.Schedule.Start) {
			t.Fatalf("workers=%d: schedule sizes differ", workers)
		}
		for v := range want.Schedule.Start {
			if got.Schedule.Start[v] != want.Schedule.Start[v] {
				t.Fatalf("workers=%d: node %d start %d != sequential %d",
					workers, v, got.Schedule.Start[v], want.Schedule.Start[v])
			}
		}
		// Identical processor assignment, link ids included, pins that
		// concurrent mapping builds the sequential search's instances.
		for v := range want.Inst.Proc {
			if got.Inst.Proc[v] != want.Inst.Proc[v] {
				t.Fatalf("workers=%d: node %d on proc %d != sequential %d",
					workers, v, got.Inst.Proc[v], want.Inst.Proc[v])
			}
		}
		if len(got.Outcomes) != len(want.Outcomes) {
			t.Fatalf("workers=%d: %d outcomes != %d", workers, len(got.Outcomes), len(want.Outcomes))
		}
		for i := range want.Outcomes {
			if got.Outcomes[i] != want.Outcomes[i] {
				t.Fatalf("workers=%d: outcome %d %+v != sequential %+v",
					workers, i, got.Outcomes[i], want.Outcomes[i])
			}
		}
	}
}
