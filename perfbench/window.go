package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// window runs the bench's closed loop from op id first (see closedLoop).
// Serve-cold's map-search tickets of ids below first are spent.
func (b *bench) window(ctx context.Context, first, minOps int, dur time.Duration, traced bool) ([]opRecord, time.Duration) {
	b.turn.reset(first / 4)
	return closedLoop(b.clients, first, minOps, b.streamLen(), dur, func(i int) opRecord { return b.op(ctx, i, traced) })
}

// closedLoop drives a closed loop: each of the clients takes the next op
// id, runs it, and only then takes another. Ids start at first. The loop
// lasts dur, and longer if needed to complete at least minOps ops (so
// percentiles and the quality prefix rest on enough samples); it ends
// early when a bounded stream (limit > 0) runs out. Ids are taken in
// order and a client stops only once both conditions hold, so the ops run
// are exactly first..first+n-1. It returns them sorted by id, with their
// start times set, and the loop's length.
func closedLoop(clients, first, minOps, limit int, dur time.Duration, op func(i int) opRecord) ([]opRecord, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	perClient := make([][]opRecord, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				if i-first >= minOps && time.Since(start) >= dur {
					return
				}
				at := time.Since(start)
				rec := op(i)
				rec.at = at
				perClient[c] = append(perClient[c], rec)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var recs []opRecord
	for _, rs := range perClient {
		recs = append(recs, rs...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	return recs, elapsed
}
