package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strconv"
	"testing"

	cawosched "repro"
)

// solved returns a real solve of a small workflow and its encoded body.
func solved(t *testing.T) (*cawosched.Response, []byte) {
	t.Helper()
	wf, err := cawosched.GenerateWorkflow(cawosched.Bacass, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	solver := cawosched.NewSolver(cawosched.SmallZonedCluster(5, 3))
	resp, err := solver.Solve(context.Background(), cawosched.Request{
		Workflow: wf, ZoneScenarios: []cawosched.Scenario{cawosched.S1, cawosched.S3, cawosched.S2}, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jsonEncode(&buf, exportResponse(resp), true); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// judge runs one response through the same checks an op gets: the
// in-window check, the schedule decode, and the reference comparison.
func judge(status int, body []byte, wantHit bool, ref *cawosched.Response) opRecord {
	var rec opRecord
	rec.sum, rec.err = checkResponse(status, body, wantHit, true)
	if rec.err == nil {
		rec.entries, rec.err = decodeSchedule(body)
	}
	if rec.err == nil {
		rec.err = checkAgainst(&rec, ref)
	}
	return rec
}

func TestCheckerCountsEveryBadResponseAsFailed(t *testing.T) {
	ref, body := solved(t)
	costField := []byte(`"cost": ` + itoa(ref.Cost))
	if !bytes.Contains(body, costField) {
		t.Fatalf("body lacks %s", costField)
	}
	cases := []struct {
		name    string
		status  int
		body    []byte
		wantHit bool
		fail    bool
	}{
		{"correct response", http.StatusOK, body, false, false},
		{"changed cost", http.StatusOK, bytes.Replace(body, costField, []byte(`"cost": `+itoa(ref.Cost-1)), 1), false, true},
		{"wrong cache_hit", http.StatusOK, body, true, true},
		{"non-200 status", http.StatusInternalServerError, []byte(`{"error": {"code": "internal", "message": "boom"}}`), false, true},
		{"undecodable body", http.StatusOK, []byte("<html>bad gateway</html>"), false, true},
		{"truncated body", http.StatusOK, body[:len(body)/2], false, true},
		{"moved schedule entry", http.StatusOK, bytes.Replace(body, []byte(`"start": 0,`), []byte(`"start": 1,`), 1), false, true},
	}
	var recs []opRecord
	for _, c := range cases {
		rec := judge(c.status, c.body, c.wantHit, ref)
		if got := rec.err != nil; got != c.fail {
			t.Errorf("%s: failed = %v (%v), want %v", c.name, got, rec.err, c.fail)
		}
		recs = append(recs, rec)
	}
	attempted, failed := tally(recs)
	if attempted != len(cases) || failed != len(cases)-1 {
		t.Errorf("tally = %d attempted, %d failed; want %d, %d", attempted, failed, len(cases), len(cases)-1)
	}
	if got, want := errorRatio(recs), float64(len(cases)-1)/float64(len(cases)); got != want {
		t.Errorf("error ratio %v, want %v", got, want)
	}
}

func TestCheckerReadsTimingsAndFlagsAboveASAP(t *testing.T) {
	ref, body := solved(t)
	sum, err := checkResponse(http.StatusOK, body, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cost != ref.Cost || sum.ASAPCost != ref.ASAPCost || len(sum.Timings) != len(ref.Timings) {
		t.Errorf("summary %+v does not match the response (cost %d, asap %d, %d timings)", sum, ref.Cost, ref.ASAPCost, len(ref.Timings))
	}
	above := bytes.Replace(body, []byte(`"asap_cost": `+itoa(ref.ASAPCost)), []byte(`"asap_cost": `+itoa(ref.Cost-1)), 1)
	sum, err = checkResponse(http.StatusOK, above, false, false)
	if err != nil || !sum.AboveASAP {
		t.Errorf("cost above asap_cost: AboveASAP %v, err %v; want true, nil", sum.AboveASAP, err)
	}
}

func TestPercentileRefusesSmallTail(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct{ pct, enough int }{{99, 1000}, {95, 200}, {90, 100}} {
		if got := minSamples(c.pct); got != c.enough {
			t.Errorf("minSamples(%d) = %d, want %d", c.pct, got, c.enough)
		}
		if _, err := percentile(sample(c.enough-1), c.pct); !errors.Is(err, errSmallSample) {
			t.Errorf("p%d of %d samples: err %v, want errSmallSample", c.pct, c.enough-1, err)
		}
		v, err := percentile(sample(c.enough), c.pct)
		if err != nil {
			t.Errorf("p%d of %d samples: %v", c.pct, c.enough, err)
		}
		if beyond := c.enough - int(v); beyond != minBeyond {
			t.Errorf("p%d of %d samples = %v leaves %d beyond, want %d", c.pct, c.enough, v, beyond, minBeyond)
		}
	}
	if v, err := percentile([]float64{3, 1, 2}, 50); err != nil || v != 2 {
		t.Errorf("p50 of {3,1,2} = %v, %v; want 2", v, err)
	}
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
