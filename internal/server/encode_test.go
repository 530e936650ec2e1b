package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	cawosched "repro"
	"repro/internal/wire"
)

// TestSolveBodiesMatchEncodingJSON pins the solve endpoints' hand-written
// encoder to its specification. For a single-zone, a 3-zone and a
// map-search request, the /v1/solve and /v1/solve/batch bodies must equal
// what json.Encoder with SetIndent("", "  ") writes for the same
// wire.SolveResponse / wire.BatchResponse, with a matching
// Content-Length. The response a body decodes to is first checked against
// an independent in-process solve, so the comparison covers the values as
// well as the layout.
func TestSolveBodiesMatchEncodingJSON(t *testing.T) {
	zoned := pinnedWireRequest(t)
	zoned.Scenario = ""
	zoned.ZoneScenarios = []string{"S1", "S3", "S2"}
	mapSearch := *zoned
	mapSearch.Mapping = "map-search"
	cases := []struct {
		name    string
		cluster func() *cawosched.Cluster
		req     *wire.SolveRequest
	}{
		{"single-zone", func() *cawosched.Cluster { return cawosched.SmallCluster(7) }, pinnedWireRequest(t)},
		{"3-zone", func() *cawosched.Cluster { return cawosched.SmallZonedCluster(7, 3) }, zoned},
		{"map-search", func() *cawosched.Cluster { return cawosched.SmallZonedCluster(7, 3) }, &mapSearch},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(New(cawosched.NewSolver(c.cluster()), Config{}))
			t.Cleanup(ts.Close)
			ref := New(cawosched.NewSolver(c.cluster()), Config{})
			want, werr := ref.solveOne(context.Background(), c.req)
			if werr != nil {
				t.Fatalf("reference solve: %+v", werr)
			}

			var got wire.SolveResponse
			body := postBody(t, ts.URL+"/v1/solve", c.req, &got)
			want.Timings = got.Timings
			if !reflect.DeepEqual(&got, want) {
				t.Fatalf("served response differs from the reference solve:\n%+v\nvs\n%+v", got, *want)
			}
			if enc := encodeIndented(t, &got); !bytes.Equal(body, enc) {
				t.Fatalf("/v1/solve body differs from encoding/json:\n%s\nvs\n%s", body, enc)
			}

			// The batch repeats the request (now a cache hit) next to an
			// in-band error item.
			var batch wire.BatchResponse
			body = postBody(t, ts.URL+"/v1/solve/batch", &wire.BatchRequest{
				Requests: []wire.SolveRequest{*c.req, {Variant: "pressWR-LS"}},
			}, &batch)
			if len(batch.Results) != 2 || batch.Results[0].Response == nil || !batch.Results[0].Response.CacheHit || batch.Results[1].Error == nil {
				t.Fatalf("unexpected batch outcome: %s", body)
			}
			if enc := encodeIndented(t, &batch); !bytes.Equal(body, enc) {
				t.Fatalf("/v1/solve/batch body differs from encoding/json:\n%s\nvs\n%s", body, enc)
			}
		})
	}
}

// postBody posts req, requires a 200 with an exact Content-Length, decodes
// the body into out and returns it.
func postBody(t *testing.T, url string, req, out any) []byte {
	t.Helper()
	resp, body := postJSON(t, http.DefaultClient, url, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, len(body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatal(err)
	}
	return body
}

// encodeIndented renders v the way writeJSON does.
func encodeIndented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
