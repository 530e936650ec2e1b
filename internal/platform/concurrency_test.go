package platform

import (
	"sync"
	"testing"
)

// TestClusterConcurrentLinkMaterialization pins the cluster's concurrency
// contract (run with -race): many goroutines resolving overlapping links
// and reading processors must neither race nor disagree — the same
// (src, dst) always resolves to one id with one deterministic power draw.
func TestClusterConcurrentLinkMaterialization(t *testing.T) {
	c := Small(3)
	const workers = 16
	ids := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := (w + i) % c.NumCompute()
				dst := (src + 1 + i%7) % c.NumCompute()
				if src == dst {
					continue
				}
				id := c.Link(src, dst)
				ids[w] = append(ids[w], id)
				if p := c.Proc(id); !p.IsLink() || p.Src != src || p.Dst != dst {
					t.Errorf("link %d→%d resolved to wrong processor %+v", src, dst, p)
					return
				}
				_ = c.NumProcs()
				_ = c.ExecTime(100, src)
			}
		}(w)
	}
	wg.Wait()

	// Every (src, dst) pair must have exactly one id across all workers.
	byPair := map[[2]int]int{}
	for w := range ids {
		for _, id := range ids[w] {
			p := c.Proc(id)
			key := [2]int{p.Src, p.Dst}
			if prev, ok := byPair[key]; ok && prev != id {
				t.Fatalf("link %v resolved to two ids %d and %d", key, prev, id)
			}
			byPair[key] = id
		}
	}
	// And its power must match a fresh single-threaded cluster's.
	ref := Small(3)
	for pair, id := range byPair {
		want := ref.Proc(ref.Link(pair[0], pair[1])).Type
		if got := c.Proc(id).Type; got.Idle != want.Idle || got.Work != want.Work {
			t.Errorf("link %v power %+v, want %+v", pair, got, want)
		}
	}
}
