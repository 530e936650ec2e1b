package cawosched_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	cawosched "repro"
)

// startDigest is a 64-bit FNV-1a digest of a schedule's start times, so a
// pinned expectation covers every node's placement, not just the cost.
func startDigest(s *cawosched.Schedule) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, st := range s.Start {
		for i := range buf {
			buf[i] = byte(uint64(st) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestFreshClusterSchedulesPinned pins the cost and start times of
// fixed-mapping solves on a fresh cluster. They must not depend on how
// link processors are numbered: the tie-breaks that see processors (the
// local search's visit order, the link-ordering edges of the enhanced
// DAG) follow the instance's own first use of each link, not link ids.
func TestFreshClusterSchedulesPinned(t *testing.T) {
	type tc struct {
		zones   int // 1: LargeZonedCluster(·, 1); 3: SmallZonedCluster(·, 3)
		family  cawosched.Family
		n       int
		variant string
		policy  cawosched.MappingPolicy
		seed    uint64
		cost    int64
		digest  uint64
	}
	cases := []tc{
		{1, cawosched.Methylseq, 200, "pressWR-LS", cawosched.MapEFT, 1, 12, 0xba4015121d1df77a},
		{1, cawosched.Eager, 150, "pressWR-LS", cawosched.MapEFT, 2, 1451, 0x726b6941a019e1f2},
		{1, cawosched.Bacass, 200, "slackW-LS", cawosched.MapEFT, 3, 1918, 0xc7180f7cb7106561},
		{1, cawosched.Atacseq, 120, "press-LS", cawosched.MapEFT, 4, 400, 0xfbc82edc89a0c3a2},
		{1, cawosched.Methylseq, 300, "slack", cawosched.MapEFT, 5, 3040, 0xf757166017203bc1},
		{1, cawosched.Eager, 250, "pressW-LS", cawosched.MapEFT, 6, 1566, 0xe267f9924456fdf1},
		{1, cawosched.Bacass, 100, "pressWR", cawosched.MapEFT, 7, 0, 0x5cef2f4add7b9d57},
		{1, cawosched.Atacseq, 200, "pressWR-LS", cawosched.MapEFT, 8, 1903, 0x3e1b0ffa21faaa3f},
		{3, cawosched.Methylseq, 200, "pressWR-LS", cawosched.MapEFT, 1, 4578, 0xbd05bec2220299b6},
		{3, cawosched.Eager, 150, "pressWR-LS", cawosched.MapEFT, 2, 2080, 0xc74df16fb72b1c85},
		{3, cawosched.Bacass, 200, "slackW-LS", cawosched.MapEFT, 3, 6433, 0xf2de4fdcf1d78979},
		{3, cawosched.Atacseq, 120, "press-LS", cawosched.MapEFT, 4, 3689, 0xb2b197e683047c20},
		{3, cawosched.Methylseq, 300, "slack", cawosched.MapEFT, 5, 16742, 0xd383fb8a571d8043},
		{3, cawosched.Eager, 250, "pressW-LS", cawosched.MapZoneGreen, 6, 2542, 0x8ab8cfd27c73ca92},
		{3, cawosched.Bacass, 100, "pressWR", cawosched.MapEFT, 7, 701, 0x410667e55dfa2a26},
		{3, cawosched.Atacseq, 200, "pressWR-LS", cawosched.MapEFT, 8, 4678, 0x855cb233ced68751},
		{1, cawosched.Eager, 400, "pressWR-LS", cawosched.MapEFT, 9, 717, 0x405322778dca1c26},
		{3, cawosched.Methylseq, 400, "pressWR-LS", cawosched.MapZoneGreen, 9, 12374, 0x6febcfdb30b62885},
	}
	for _, c := range cases {
		name := fmt.Sprintf("z%d/%s-%d/%s/%s/seed%d", c.zones, c.family, c.n, c.variant, c.policy, c.seed)
		wf, err := cawosched.GenerateWorkflow(c.family, c.n, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		cluster := cawosched.LargeZonedCluster(c.seed, 1)
		req := cawosched.Request{Workflow: wf, Variant: c.variant, MappingPolicy: c.policy, Scenario: cawosched.S2, Seed: c.seed}
		if c.zones == 3 {
			cluster = cawosched.SmallZonedCluster(c.seed, 3)
			req.ZoneScenarios = []cawosched.Scenario{cawosched.S1, cawosched.S2, cawosched.S3}
		}
		res, err := cawosched.NewSolver(cluster).Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := startDigest(res.Schedule); res.Cost != c.cost || d != c.digest {
			t.Errorf("%s: cost %d digest %#x, want cost %d digest %#x", name, res.Cost, d, c.cost, c.digest)
		}
	}
}
