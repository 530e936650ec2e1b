package wire

import (
	"encoding/json"
	"strconv"

	"repro/internal/schedule"
)

// indentUnit is the per-level indent of every body the server writes
// (json.Encoder.SetIndent's indent argument).
const indentUnit = "  "

// AppendSolveResponse appends r to dst exactly as a json.Encoder with
// SetIndent(prefix, "  ") writes it: the same field order, omitempty
// rules, null for nil slices and [] for empty ones, the same string
// escaping and the trailing newline. It walks the struct directly — no
// reflection, no re-indent pass, no allocation once dst has room — so a
// 1,000-task schedule costs a fraction of the Encoder's time.
// encoding/json is its specification: the tests and the fuzz target
// compare the two byte for byte.
func AppendSolveResponse(dst []byte, r *SolveResponse, prefix string) []byte {
	a := appender{b: dst, prefix: prefix}
	a.solveResponse(r)
	return append(a.b, '\n')
}

// AppendBatchResponse appends r to dst exactly as a json.Encoder with
// SetIndent("", "  ") writes it; each item's response goes through the
// same walk as AppendSolveResponse.
func AppendBatchResponse(dst []byte, r *BatchResponse) []byte {
	a := appender{b: dst}
	if r == nil {
		a.null()
		return append(a.b, '\n')
	}
	a.openObject()
	a.key("results")
	if a.openArray(r.Results == nil, len(r.Results)) {
		for i := range r.Results {
			a.next(i)
			a.batchItem(&r.Results[i])
		}
		a.closeArray()
	}
	a.closeObject()
	return append(a.b, '\n')
}

// appender writes indented JSON the way json.Indent lays it out: an
// opening brace or bracket raises the depth, every member and element
// starts on a new line of prefix + depth×indentUnit, and the closing
// brace or bracket drops back to its opener's depth. The first line
// carries no prefix, as with json.Encoder.
type appender struct {
	b      []byte
	prefix string
	depth  int
	first  bool // the next key is the first of its object: no comma
}

func (a *appender) newline() {
	a.b = append(a.b, '\n')
	a.b = append(a.b, a.prefix...)
	for i := 0; i < a.depth; i++ {
		a.b = append(a.b, indentUnit...)
	}
}

// openObject starts an object; every caller writes at least one member,
// so the empty-object form "{}" never arises.
func (a *appender) openObject() {
	a.b = append(a.b, '{')
	a.depth++
	a.first = true
}

func (a *appender) closeObject() {
	a.depth--
	a.newline()
	a.b = append(a.b, '}')
	a.first = false
}

// key starts an object member. name must need no escaping (every key is
// a Go struct tag of this package or of internal/schedule).
func (a *appender) key(name string) {
	if !a.first {
		a.b = append(a.b, ',')
	}
	a.first = false
	a.newline()
	a.b = append(a.b, '"')
	a.b = append(a.b, name...)
	a.b = append(a.b, '"', ':', ' ')
}

func (a *appender) null() { a.b = append(a.b, "null"...) }

func (a *appender) num(x int64) { a.b = strconv.AppendInt(a.b, x, 10) }

func (a *appender) flag(x bool) { a.b = strconv.AppendBool(a.b, x) }

// str appends s as a JSON string. Printable ASCII other than the bytes
// encoding/json escapes ('"', '\\', and the HTML-sensitive '<', '>', '&')
// is copied between quotes; any other string is marshaled by
// encoding/json itself, so escaping (HTML escapes, U+2028/U+2029, invalid
// UTF-8, control bytes) can never drift from it.
func (a *appender) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			a.b = append(a.b, q...)
			return
		}
	}
	a.b = append(a.b, '"')
	a.b = append(a.b, s...)
	a.b = append(a.b, '"')
}

// openArray starts an array of n elements: it writes null when isNil and
// [] when n is 0, reporting false (nothing follows); otherwise it opens
// the bracket, and the caller writes each element after next(i) and ends
// with closeArray. (A generic helper taking the element writer as a func
// value would cost an allocation per call: the appender would escape
// through the indirect call.)
func (a *appender) openArray(isNil bool, n int) bool {
	switch {
	case isNil:
		a.null()
		return false
	case n == 0:
		a.b = append(a.b, '[', ']')
		return false
	}
	a.b = append(a.b, '[')
	a.depth++
	return true
}

// next starts array element i.
func (a *appender) next(i int) {
	if i > 0 {
		a.b = append(a.b, ',')
	}
	a.newline()
}

func (a *appender) closeArray() {
	a.depth--
	a.newline()
	a.b = append(a.b, ']')
}

// solveResponse writes the members of SolveResponse in struct order.
func (a *appender) solveResponse(r *SolveResponse) {
	if r == nil {
		a.null()
		return
	}
	a.openObject()
	a.key("variant")
	a.str(r.Variant)
	a.key("mapping")
	a.str(r.Mapping)
	a.key("asap_makespan")
	a.num(r.ASAPMakespan)
	a.key("deadline")
	a.num(r.Deadline)
	a.key("cost")
	a.num(r.Cost)
	a.key("asap_cost")
	a.num(r.ASAPCost)
	a.key("plan_cache_hit")
	a.flag(r.PlanCacheHit)
	a.key("cache_hit")
	a.flag(r.CacheHit)
	if r.Coalesced {
		a.key("coalesced")
		a.flag(true)
	}
	a.key("schedule")
	if a.openArray(r.Schedule == nil, len(r.Schedule)) {
		for i := range r.Schedule {
			a.next(i)
			a.entry(&r.Schedule[i])
		}
		a.closeArray()
	}
	if len(r.Intervals) > 0 {
		a.key("intervals")
		if a.openArray(r.Intervals == nil, len(r.Intervals)) {
			for i := range r.Intervals {
				a.next(i)
				a.intervalCost(&r.Intervals[i])
			}
			a.closeArray()
		}
	}
	if len(r.Zones) > 0 {
		a.key("zones")
		if a.openArray(r.Zones == nil, len(r.Zones)) {
			for i := range r.Zones {
				a.next(i)
				a.zoneCost(&r.Zones[i])
			}
			a.closeArray()
		}
	}
	if len(r.Timings) > 0 {
		a.key("timings")
		if a.openArray(r.Timings == nil, len(r.Timings)) {
			for i := range r.Timings {
				a.next(i)
				a.stageTiming(&r.Timings[i])
			}
			a.closeArray()
		}
	}
	a.closeObject()
}

func (a *appender) entry(e *schedule.Entry) {
	a.openObject()
	a.key("node")
	a.num(int64(e.Node))
	a.key("name")
	a.str(e.Name)
	a.key("kind")
	a.str(e.Kind)
	a.key("proc")
	a.num(int64(e.Proc))
	a.key("start")
	a.num(e.Start)
	a.key("end")
	a.num(e.End)
	a.closeObject()
}

func (a *appender) intervalCost(c *schedule.IntervalCost) {
	a.openObject()
	a.key("start")
	a.num(c.Start)
	a.key("end")
	a.num(c.End)
	a.key("budget")
	a.num(c.Budget)
	a.key("energy")
	a.num(c.Energy)
	a.key("green")
	a.num(c.Green)
	a.key("brown")
	a.num(c.Brown)
	a.closeObject()
}

func (a *appender) zoneCost(z *schedule.ZoneCost) {
	a.openObject()
	a.key("zone")
	a.str(z.Zone)
	a.key("cost")
	a.num(z.Cost)
	a.key("intervals")
	if a.openArray(z.Intervals == nil, len(z.Intervals)) {
		for i := range z.Intervals {
			a.next(i)
			a.intervalCost(&z.Intervals[i])
		}
		a.closeArray()
	}
	a.closeObject()
}

func (a *appender) stageTiming(t *StageTiming) {
	a.openObject()
	a.key("stage")
	a.str(t.Stage)
	a.key("micros")
	a.num(t.Micros)
	a.closeObject()
}

func (a *appender) batchItem(it *BatchItem) {
	a.openObject()
	a.key("index")
	a.num(int64(it.Index))
	if it.Response != nil {
		a.key("response")
		a.solveResponse(it.Response)
	}
	if it.Error != nil {
		a.key("error")
		a.openObject()
		a.key("code")
		a.str(it.Error.Code)
		a.key("message")
		a.str(it.Error.Message)
		a.closeObject()
	}
	a.closeObject()
}
