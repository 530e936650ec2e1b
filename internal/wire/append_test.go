package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/schedule"
)

// encodeIndented is the appender's specification: what a json.Encoder
// with SetIndent(prefix, "  ") writes for v.
func encodeIndented(t testing.TB, v any, prefix string) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent(prefix, "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// largeResponse is a response shaped like a real n-task, k-zone solve:
// task and comm entries with generated names, 24 intervals per zone, the
// single-zone top-level interval list, and per-stage timings.
func largeResponse(n, k int) *SolveResponse {
	r := &SolveResponse{
		Variant: "pressWR-LS", Mapping: "heft",
		ASAPMakespan: 1234, Deadline: 2468, Cost: 98765, ASAPCost: 123456,
		PlanCacheHit: true, CacheHit: true,
		Timings: []StageTiming{{Stage: "plan", Micros: 12}, {Stage: "supply", Micros: 3}, {Stage: "cache", Micros: 40}},
	}
	for v := 0; v < n; v++ {
		e := schedule.Entry{Node: v, Name: fmt.Sprintf("v%d", v), Kind: "task", Proc: v % 7, Start: int64(v * 3), End: int64(v*3 + 11)}
		if v%3 == 2 {
			e.Name, e.Kind, e.Proc = fmt.Sprintf("comm_%d_%d", v-2, v-1), "comm", 100+v%13
		}
		r.Schedule = append(r.Schedule, e)
	}
	for z := 0; z < k; z++ {
		zc := schedule.ZoneCost{Zone: fmt.Sprintf("z%d", z), Cost: int64(1000 * z)}
		for j := 0; j < 24; j++ {
			zc.Intervals = append(zc.Intervals, schedule.IntervalCost{
				Start: int64(100 * j), End: int64(100 * (j + 1)), Budget: int64(50 + j),
				Energy: int64(9000 + j), Green: int64(5000 - j), Brown: int64(4000 + 2*j - z),
			})
		}
		r.Zones = append(r.Zones, zc)
	}
	if k == 1 {
		r.Intervals = r.Zones[0].Intervals
	}
	return r
}

func TestAppendSolveResponseMatchesEncoder(t *testing.T) {
	odd := []string{
		"", "plain", `quo"te`, `back\slash`, "<tag>&amp;", "tab\there", "nl\nx", "\x00\x1f\x7f",
		"caf\u00e9", "line\u2028sep\u2029", "bad\xffutf8", "emoji \U0001F600", "comm_3_4", "{}[],:",
		"a&b", "x>y", "p<q", "del\x7f", "~ !",
	}
	cases := map[string]*SolveResponse{
		"nil":                nil,
		"zero":               {},
		"empty slices":       {Schedule: []schedule.Entry{}, Intervals: []schedule.IntervalCost{}, Zones: []schedule.ZoneCost{}, Timings: []StageTiming{}},
		"coalesced":          {Variant: "slack", Mapping: "map-search", Coalesced: true, Cost: -5, ASAPCost: -9223372036854775808},
		"zone nil intervals": {Zones: []schedule.ZoneCost{{Zone: "a", Cost: 1}, {Zone: "b", Intervals: []schedule.IntervalCost{}}}},
		"single zone":        largeResponse(30, 1),
		"three zones":        largeResponse(1000, 3),
	}
	for i, s := range odd {
		cases[fmt.Sprintf("odd string %d", i)] = &SolveResponse{
			Variant: s, Mapping: s,
			Schedule: []schedule.Entry{{Name: s, Kind: s}},
			Zones:    []schedule.ZoneCost{{Zone: s}},
			Timings:  []StageTiming{{Stage: s}},
		}
	}
	for name, r := range cases {
		for _, prefix := range []string{"", "  ", "\t>"} {
			want := encodeIndented(t, r, prefix)
			got := AppendSolveResponse([]byte("keep:"), r, prefix)
			if !bytes.Equal(got[5:], want) || string(got[:5]) != "keep:" {
				t.Errorf("%s, prefix %q:\ngot  %q\nwant %q", name, prefix, got, want)
			}
		}
	}
}

func TestAppendBatchResponseMatchesEncoder(t *testing.T) {
	cases := map[string]*BatchResponse{
		"nil":         nil,
		"nil results": {},
		"empty":       {Results: []BatchItem{}},
		"mixed": {Results: []BatchItem{
			{Index: 0, Response: largeResponse(9, 3)},
			{Index: 1, Error: &Error{Code: "invalid_request", Message: `bad "field" <x> & y`}},
			{Index: 2},
			{Index: 3, Response: &SolveResponse{Coalesced: true}, Error: &Error{}},
			{Index: 4, Response: largeResponse(4, 1)},
		}},
	}
	for name, r := range cases {
		want := encodeIndented(t, r, "")
		if got := AppendBatchResponse(nil, r); !bytes.Equal(got, want) {
			t.Errorf("%s:\ngot  %q\nwant %q", name, got, want)
		}
	}
}

// TestAppendSolveResponseAllocs: appending into a buffer that already has
// room allocates nothing.
func TestAppendSolveResponseAllocs(t *testing.T) {
	for _, k := range []int{1, 3} {
		r := largeResponse(1000, k)
		buf := AppendSolveResponse(nil, r, "")
		if allocs := testing.AllocsPerRun(20, func() { buf = AppendSolveResponse(buf[:0], r, "") }); allocs != 0 {
			t.Errorf("%d zones: %v allocs per append, want 0", k, allocs)
		}
	}
}

// FuzzAppendSolveResponse: for arbitrary names, zone and stage strings
// (any bytes), nil versus empty slices, the coalesced flag, single-zone
// intervals, timings and a prefix, the appender writes exactly what
// json.Encoder with SetIndent(prefix, "  ") writes.
func FuzzAppendSolveResponse(f *testing.F) {
	f.Add("v0", "z0", "plan", "", uint8(0), uint8(3), int64(7))
	f.Add("comm_1_2", "west", "cache", "  ", uint8(0x2a), uint8(5), int64(-1))
	f.Add("<&>", "\u2028", "\x00", "\t", uint8(0xff), uint8(2), int64(1<<62))
	f.Add("bad\xff", "", "", "p", uint8(0x91), uint8(0), int64(0))
	f.Fuzz(func(t *testing.T, name, zone, stage, prefix string, flags, n uint8, x int64) {
		r := &SolveResponse{
			Variant: name, Mapping: zone,
			ASAPMakespan: x, Deadline: -x, Cost: x / 3, ASAPCost: x ^ 0x5555,
			PlanCacheHit: flags&1 != 0, CacheHit: flags&2 != 0, Coalesced: flags&4 != 0,
		}
		switch (flags >> 3) & 3 {
		case 1:
			r.Schedule = []schedule.Entry{}
		case 2, 3:
			for i := 0; i < 1+int(n%4); i++ {
				r.Schedule = append(r.Schedule, schedule.Entry{Node: i, Name: name, Kind: stage, Proc: -i, Start: x + int64(i), End: int64(n)})
			}
		}
		var ivs []schedule.IntervalCost
		if flags&0x20 != 0 {
			ivs = []schedule.IntervalCost{}
		}
		for j := 0; j < int(n%3); j++ {
			ivs = append(ivs, schedule.IntervalCost{Start: int64(j), End: x, Budget: int64(n), Energy: -x, Green: x >> 1, Brown: x << 1})
		}
		switch (flags >> 6) & 3 {
		case 1:
			r.Zones = []schedule.ZoneCost{}
		case 2:
			r.Zones = []schedule.ZoneCost{{Zone: zone, Cost: x, Intervals: ivs}}
			r.Intervals = ivs
		case 3:
			for z := 0; z < 3; z++ {
				r.Zones = append(r.Zones, schedule.ZoneCost{Zone: zone + name, Cost: int64(z), Intervals: ivs})
			}
		}
		if n&0x80 != 0 {
			r.Timings = []StageTiming{{Stage: stage, Micros: x}, {Stage: name, Micros: int64(n)}}
		}
		want := encodeIndented(t, r, prefix)
		if got := AppendSolveResponse(nil, r, prefix); !bytes.Equal(got, want) {
			t.Fatalf("mismatch:\ngot  %q\nwant %q", got, want)
		}
		b := &BatchResponse{Results: []BatchItem{{Index: int(n), Response: r}, {Index: 1, Error: &Error{Code: stage, Message: name}}}}
		if got, want := AppendBatchResponse(nil, b), encodeIndented(t, b, ""); !bytes.Equal(got, want) {
			t.Fatalf("batch mismatch:\ngot  %q\nwant %q", got, want)
		}
	})
}

// BenchmarkEncodeSolveResponse compares the appender with the
// json.Encoder it replaces on a 1,000-task, 3-zone response.
func BenchmarkEncodeSolveResponse(b *testing.B) {
	r := largeResponse(1000, 3)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		buf := AppendSolveResponse(nil, r, "")
		for b.Loop() {
			buf = AppendSolveResponse(buf[:0], r, "")
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for b.Loop() {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
