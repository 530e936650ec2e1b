package main

import "fmt"

// layerValues computes the span-based per-layer metrics over the joined
// ops (the traced window's first ops, replayed one by one). Times are
// mean self time per op, so that on the HTTP workloads the layers plus
// server.unaccounted_ms add up to server.roundtrip_ms exactly; a layer an
// op does not reach counts 0 for that op (the map-search quarter of
// serve-cold shows as a quarter of its map time). Allocation counts are
// medians over the calls made.
func (b *bench) layerValues(joined []opRecord, reps map[int]replayed, spans []span) map[string]float64 {
	inJoin := make(map[int]bool, len(joined))
	for i := range joined {
		inJoin[joined[i].id] = true
	}
	total := make(map[string]float64) // pass/name → summed duration over joined ops
	allocs := make(map[string][]float64)
	for _, s := range spans {
		if !inJoin[s.Op] {
			continue
		}
		total[s.Pass+"/"+s.Name] += s.Dur
		if s.Pass == passReplay {
			allocs[s.Name] = append(allocs[s.Name], float64(s.Allocs))
		}
	}
	n := float64(len(joined))
	per := func(pass, name string) float64 { return total[pass+"/"+name] / n }
	v := map[string]float64{
		"server.roundtrip_ms":       per(passLoad, "server.roundtrip"),
		"wire.decode_ms":            per(passReplay, "wire.decode"),
		"wire.encode_ms":            per(passReplay, "wire.encode"),
		"schedule.export_ms":        per(passReplay, "schedule.export"),
		"dag.fingerprint_ms":        per(passReplay, "dag.fingerprint"),
		"solver.plan_ms":            per(passLoad, "solver.plan"),
		"solver.supply_ms":          per(passLoad, "solver.supply"),
		"solver.cache_ms":           per(passLoad, "solver.cache"),
		"solver.coalesce_ms":        per(passLoad, "solver.coalesce"),
		"solver.tier_ms":            per(passLoad, "solver.tier"),
		"greenheft.map_ms":          per(passLoad, "greenheft.map"),
		"solver.schedule_ms":        per(passLoad, "solver.schedule"),
		"platform.cluster_build_ms": per(passLoad, "platform.cluster_build"),
		"heft.schedule_ms":          per(passReplay, "heft.schedule"),
		"ceg.build_ms":              per(passReplay, "ceg.build"),
		"core.greedy_ms":            per(passReplay, "core.greedy"),
		"core.local_search_ms":      per(passReplay, "core.local_search"),
		"wire.decode_allocs":        median(allocs["wire.decode"]),
		"wire.encode_allocs":        median(allocs["wire.encode"]),
		"schedule.export_allocs":    median(allocs["schedule.export"]),
		"dag.fingerprint_allocs":    median(allocs["dag.fingerprint"]),
		"solver.solve_allocs":       median(allocs["solver.solve"]),
	}
	v["server.unaccounted_ms"] = 0
	if b.http {
		rest := v["server.roundtrip_ms"] - v["wire.decode_ms"] - v["schedule.export_ms"] - v["wire.encode_ms"]
		for _, st := range solverStages {
			rest -= per(passLoad, st)
		}
		v["server.unaccounted_ms"] = rest
	}
	v["wire.request_kb"] = meanOf(joined, func(r *opRecord) float64 { return float64(r.reqBytes) / 1024 })
	v["wire.response_kb"] = meanOf(joined, func(r *opRecord) float64 { return float64(reps[r.id].respBytes) / 1024 })
	v["core.ls_rounds"] = meanOf(joined, func(r *opRecord) float64 { return float64(reps[r.id].stats.LSRounds) })
	v["core.ls_moves"] = meanOf(joined, func(r *opRecord) float64 { return float64(reps[r.id].stats.LSMoves) })
	v["core.ls_scans"] = meanOf(joined, func(r *opRecord) float64 { return float64(reps[r.id].stats.LSScans) })
	seen := make(map[reqKey]bool)
	var cost, asap int64
	for i := range joined {
		if k := joined[i].key; !seen[k] {
			seen[k] = true
			cost += reps[joined[i].id].cost
			asap += reps[joined[i].id].asap
		}
	}
	v["core.cost_ratio"] = ratio(cost, asap)
	return v
}

// sumNote shows the round-trip decomposition of an HTTP workload, summed
// from the reported metrics.
func (b *bench) sumNote(v map[string]float64) string {
	var stages float64
	for _, st := range solverStages {
		stages += v[st+"_ms"]
	}
	decode, export, encode, rest := v["wire.decode_ms"], v["schedule.export_ms"], v["wire.encode_ms"], v["server.unaccounted_ms"]
	return fmt.Sprintf("round trip %.4f ms = decode %.4f + solver stages %.4f + export %.4f + encode %.4f + unaccounted %.4f (sum %.4f)",
		v["server.roundtrip_ms"], decode, stages, export, encode, rest, decode+stages+export+encode+rest)
}

func meanOf(recs []opRecord, f func(*opRecord) float64) float64 {
	xs := make([]float64, len(recs))
	for i := range recs {
		xs[i] = f(&recs[i])
	}
	return mean(xs)
}

// ratio is num ÷ den, or 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
