package main

import (
	"sync"
	"testing"
	"time"
)

// TestClosedLoopRunsContiguousOpsAndOrdersTickets drives the loop with
// several clients, every 4th op holding a turnstile ticket as serve-cold's
// map-search requests do, across two consecutive windows.
func TestClosedLoopRunsContiguousOpsAndOrdersTickets(t *testing.T) {
	var turn turnstile
	var mu sync.Mutex
	var ticketOrder []int
	op := func(i int) opRecord {
		if i%4 == 3 {
			turn.wait(i / 4)
			mu.Lock()
			ticketOrder = append(ticketOrder, i)
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
			turn.done()
		}
		return opRecord{id: i}
	}
	first := 0
	for w := 0; w < 2; w++ {
		turn.reset(first / 4)
		recs, _ := closedLoop(4, first, 50, 0, 20*time.Millisecond, op)
		if len(recs) < 50 {
			t.Fatalf("window %d ran %d ops, want at least minOps 50", w, len(recs))
		}
		for j, r := range recs {
			if r.id != first+j {
				t.Fatalf("window %d: op %d has id %d, want %d (ids must be contiguous)", w, j, r.id, first+j)
			}
		}
		first = recs[len(recs)-1].id + 1
	}
	for j := 1; j < len(ticketOrder); j++ {
		if ticketOrder[j] != ticketOrder[j-1]+4 {
			t.Fatalf("ticket ops ran in order %v, want stream order", ticketOrder)
		}
	}
	recs, _ := closedLoop(3, 0, 0, 10, time.Hour, func(i int) opRecord { return opRecord{id: i} })
	if len(recs) != 10 {
		t.Errorf("bounded stream of 10 ran %d ops", len(recs))
	}
}
