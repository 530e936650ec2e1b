package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	cawosched "repro"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/wire"
)

// Workload names.
const (
	serveHot   = "serve-hot"
	serveCold  = "serve-cold"
	solveLarge = "solve-large"
	fleetTier  = "fleet-tier"
)

var workloadNames = []string{serveHot, serveCold, solveLarge, fleetTier}

// spec fixes the shape of one workload.
type spec struct {
	name string
	// http: ops are POST /v1/solve round trips (solve-large solves
	// in-process).
	http bool
	// wantHit is the cache_hit every op's response must carry.
	wantHit bool
	// tailPct is the percentile reported as latency_tail_ms: the highest
	// one a default-length run leaves ten samples beyond.
	tailPct int
	// quality is the op-stream prefix whose distinct requests define
	// cost_ratio; every run serves it whole.
	quality int
	// replayOps is the op-stream prefix the traced run replays layer by
	// layer.
	replayOps int
	// tasks is the size of every workflow.
	tasks int
	// variant is the requested scheduling variant ("" = the server's
	// default, pressWR-LS).
	variant string
}

var specs = map[string]spec{
	serveHot:   {name: serveHot, http: true, wantHit: true, tailPct: 99, quality: 32, replayOps: 96, tasks: 1000},
	serveCold:  {name: serveCold, http: true, wantHit: false, tailPct: 95, quality: 128, replayOps: 32, tasks: 1000},
	solveLarge: {name: solveLarge, http: false, wantHit: false, tailPct: 95, quality: 128, replayOps: 16, tasks: 1000},
	fleetTier:  {name: fleetTier, http: true, wantHit: true, tailPct: 99, quality: 256, replayOps: 96, tasks: 200},
}

// zoneScenarios is the per-zone supply shape of the 3-zone serving cluster.
var zoneScenarios = []string{"S1", "S3", "S2"}

const (
	serveWorkflows = 8 // 4 families × 2 workflow seeds
	hotSupplies    = 4 // supply seeds per workflow on serve-hot
	fleetWorkflows = 4
	fleetPeers     = 3
	largeKeys      = 128 // distinct (workflow, scenario, cluster) ops of solve-large
	largeWarmOps   = 4   // solve-large ops run during set-up
	// fleetKeysPerSecond sizes the fleet-tier stream: each key is sent to
	// two peers, so the stream lasts a window only while the fleet
	// serves fewer than 2×fleetKeysPerSecond ops/s (it serves about 560
	// on 2 cores). A faster fleet ends the window early, when the stream
	// runs out.
	fleetKeysPerSecond = 350
)

// reqKey identifies one distinct solve request of a workload.
type reqKey struct {
	wf        int    // index into bench.wfs
	seed      uint64 // supply seed
	mapSearch bool
	scenario  cawosched.Scenario // solve-large: the single-zone scenario
	cluster   uint64             // solve-large: the op's cluster seed
}

// bench is one workload instance: its inputs, all drawn from the seed,
// and the system under test of its latest set-up.
type bench struct {
	spec
	seed    uint64
	clients int
	seconds float64

	wfs    []*cawosched.DAG
	wfJSON [][]byte // wire encoding of each workflow
	sys    *system

	seenMu sync.Mutex
	seen   map[reqKey]bool // requests whose schedule an op already decoded

	turn turnstile // orders serve-cold's map-search requests
}

// system is the running system under test: one schedd peer, or three on
// a peer-tier ring (none on solve-large).
type system struct {
	cluster *cawosched.Cluster
	peers   []*peer
	hosts   []string // the peers' loopback addresses, in ring order
}

type peer struct {
	solver *cawosched.Solver
	tier   *cawosched.PeerTier
	url    string
	client *http.Client
	srv    *http.Server
	served chan struct{} // closed when Serve returns
}

func newBench(name string, seed uint64, clients int, seconds float64) (*bench, error) {
	sp, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return &bench{spec: sp, seed: seed, clients: clients, seconds: seconds}, nil
}

// derive draws an independent 64-bit value for tag from the workload seed
// (splitmix64 finalizer).
func derive(seed, tag uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + tag*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// families is the rotation of workflow families.
var families = []cawosched.Family{cawosched.Methylseq, cawosched.Bacass, cawosched.Atacseq, cawosched.Eager}

// genWorkflows generates the workload's workflows and their wire bodies:
// each family with workflow seeds 1 and 2 (seed 1 only on fleet-tier).
// They do not vary with the workload seed, which draws the cluster, the
// supplies and the op order: a run then averages over the same workflow
// mix whatever the seed, so its figures spread less across seeds.
func (b *bench) genWorkflows() error {
	n := serveWorkflows
	if b.name == fleetTier {
		n = fleetWorkflows
	}
	b.wfs = make([]*cawosched.DAG, n)
	b.wfJSON = make([][]byte, n)
	for i := range b.wfs {
		wf, err := cawosched.GenerateWorkflow(families[i%len(families)], b.tasks, uint64(1+i/len(families)))
		if err != nil {
			return fmt.Errorf("generating workflow %d: %w", i, err)
		}
		b.wfs[i] = wf
		var buf bytes.Buffer
		if err := jsonEncode(&buf, wire.FromDAG(wf), false); err != nil {
			return err
		}
		b.wfJSON[i] = bytes.TrimRight(buf.Bytes(), "\n")
	}
	return nil
}

func (b *bench) clusterSeed() uint64 { return derive(b.seed, 1) }

// keyOf returns the request of op i of the stream.
func (b *bench) keyOf(i int) reqKey {
	switch b.name {
	case serveHot:
		// Cycles through the 32 hot requests, each cycle in its own
		// seeded order.
		perm := permutation(serveWorkflows*hotSupplies, derive(b.seed, 600+uint64(i/(serveWorkflows*hotSupplies))))
		return b.hotKey(perm[i%len(perm)])
	case serveCold:
		return reqKey{
			wf:        int(derive(b.seed, 700+uint64(i)) % serveWorkflows),
			seed:      derive(b.seed, 1<<32+uint64(i)),
			mapSearch: i%4 == 3,
		}
	case fleetTier:
		k := uint64(i / 2)
		return reqKey{wf: int(k % fleetWorkflows), seed: derive(b.seed, 1<<33+k)}
	default: // solveLarge
		j := i % largeKeys
		return reqKey{
			wf:       j % serveWorkflows,
			scenario: cawosched.Scenario(1 + j/serveWorkflows%4),
			seed:     derive(b.seed, 1000+uint64(j)),
			cluster:  derive(b.seed, 1100+uint64(j)),
		}
	}
}

func (b *bench) hotKey(j int) reqKey {
	return reqKey{wf: j / hotSupplies, seed: derive(b.seed, 500+uint64(j%hotSupplies))}
}

// peerOf returns the peer op i is sent to: peers 1 and 2 alternate on
// fleet-tier, so each key reaches both once; the other HTTP workloads
// have one peer.
func (b *bench) peerOf(i int) int {
	if b.name == fleetTier {
		return 1 + i%2
	}
	return 0
}

// streamLen bounds the op stream (0 = unbounded).
func (b *bench) streamLen() int {
	if b.name == fleetTier {
		return 2 * b.fleetKeys()
	}
	return 0
}

func (b *bench) fleetKeys() int { return int(b.seconds*fleetKeysPerSecond) + b.quality }

// permutation returns a seeded Fisher–Yates shuffle of 0..n-1.
func permutation(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(derive(seed, uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// request is the in-process form of a key's request.
func (b *bench) request(k reqKey) cawosched.Request {
	r := cawosched.Request{Workflow: b.wfs[k.wf], Variant: b.variant, Seed: k.seed, MapSearch: k.mapSearch}
	if b.name == solveLarge {
		r.Scenario = k.scenario
		return r
	}
	for _, name := range zoneScenarios {
		sc, err := power.ParseScenario(name)
		if err != nil {
			panic(err) // zoneScenarios holds valid names only
		}
		r.ZoneScenarios = append(r.ZoneScenarios, sc)
	}
	return r
}

// body is the JSON body of a key's POST /v1/solve, assembled around the
// pre-encoded workflow.
func (b *bench) body(k reqKey) []byte {
	wf := b.wfJSON[k.wf]
	buf := make([]byte, 0, len(wf)+128)
	buf = append(buf, `{"workflow":`...)
	buf = append(buf, wf...)
	if b.variant != "" {
		buf = append(buf, `,"variant":"`...)
		buf = append(buf, b.variant...)
		buf = append(buf, '"')
	}
	if k.mapSearch {
		buf = append(buf, `,"mapping":"map-search"`...)
	}
	buf = append(buf, `,"zone_scenarios":[`...)
	for i, name := range zoneScenarios {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendQuote(buf, name)
	}
	buf = append(buf, `],"seed":`...)
	buf = strconv.AppendUint(buf, k.seed, 10)
	return append(buf, '}')
}

// setup builds the system under test from scratch: inputs, cluster,
// servers, warm caches. It replaces (and closes) the previous system.
func (b *bench) setup(ctx context.Context) error {
	b.close()
	b.seen = make(map[reqKey]bool)
	if err := b.genWorkflows(); err != nil {
		return err
	}
	err := b.boot(ctx)
	b.seen = make(map[reqKey]bool) // warm-up ops do not count as sightings
	return err
}

func (b *bench) boot(ctx context.Context) error {
	switch b.name {
	case serveHot, serveCold:
		sys, err := startSystem(cawosched.SmallZonedCluster(b.clusterSeed(), len(zoneScenarios)), 1, b.clients)
		if err != nil {
			return err
		}
		b.sys = sys
		for _, k := range b.warmKeys() {
			if err := b.warmPost(sys.peers[0], k); err != nil {
				return err
			}
		}
		return nil
	case fleetTier:
		sys, err := startSystem(cawosched.SmallZonedCluster(b.clusterSeed(), len(zoneScenarios)), fleetPeers, b.clients)
		if err != nil {
			return err
		}
		b.sys = sys
		return b.warmFleet(ctx)
	default: // solveLarge: page in the whole path and grow the heap.
		for i := 0; i < largeWarmOps; i++ {
			if rec := b.largeOp(ctx, i, false); rec.err != nil {
				return fmt.Errorf("warm-up solve: %w", rec.err)
			}
		}
		return nil
	}
}

// warmKeys are the requests set-up sends: every hot key on serve-hot (so
// every timed op is a solve-cache hit), one map-search per workflow on
// serve-cold (so every plan the timed ops reuse is memoized).
func (b *bench) warmKeys() []reqKey {
	var keys []reqKey
	switch b.name {
	case serveHot:
		for j := 0; j < serveWorkflows*hotSupplies; j++ {
			keys = append(keys, b.hotKey(j))
		}
	case serveCold:
		for w := 0; w < serveWorkflows; w++ {
			keys = append(keys, reqKey{wf: w, seed: derive(b.seed, 800+uint64(w)), mapSearch: true})
		}
	}
	return keys
}

func (b *bench) warmPost(p *peer, k reqKey) error {
	status, raw, err := p.post(b.body(k))
	if err != nil {
		return fmt.Errorf("warm-up request: %w", err)
	}
	if _, err := checkResponse(status, raw, false, false); err != nil {
		return fmt.Errorf("warm-up request: %w", err)
	}
	return nil
}

// warmFleet plans every workflow on every peer (a tier hit re-plans on a
// plan miss), solves every key on peer 0 only, and waits until each
// key's record has reached its ring owner.
func (b *bench) warmFleet(ctx context.Context) error {
	for _, p := range b.sys.peers {
		for _, wf := range b.wfs {
			if _, _, err := p.solver.Plan(ctx, wf); err != nil {
				return fmt.Errorf("planning: %w", err)
			}
		}
	}
	keys := b.fleetKeys()
	errs := make([]error, b.clients)
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < keys; k += b.clients {
				if _, err := b.sys.peers[0].solver.Solve(ctx, b.request(b.keyOf(2*k))); err != nil {
					errs[c] = fmt.Errorf("warming fleet key %d: %w", k, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		total := 0
		for _, p := range b.sys.peers {
			total += p.tier.Local().Len()
		}
		if total >= keys {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d fleet records reached their ring owners", total, keys)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startSystem boots n schedd peers over loopback listeners; with n > 1
// they share one peer-tier ring, as in schedbench -scenario fleet.
func startSystem(cluster *cawosched.Cluster, n, clients int) (*system, error) {
	sys := &system{cluster: cluster, hosts: make([]string, n)}
	for i := 0; i < n; i++ {
		var tier *cawosched.PeerTier
		var opts []cawosched.SolverOption
		cfg := server.Config{}
		if n > 1 {
			var err error
			if tier, err = cawosched.NewPeerTier(nil, cawosched.PeerTierOptions{}); err != nil {
				sys.close()
				return nil, err
			}
			opts = append(opts, cawosched.WithCacheTier(tier))
			cfg.PeerTier = tier
		}
		solver := cawosched.NewSolver(cluster, opts...)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("listening on loopback: %w", err)
		}
		p := &peer{
			solver: solver,
			tier:   tier,
			url:    "http://" + ln.Addr().String(),
			client: &http.Client{Transport: &http.Transport{
				MaxIdleConns:        clients + 2,
				MaxIdleConnsPerHost: clients + 2,
				DisableCompression:  true,
			}},
			srv:    &http.Server{Handler: server.New(solver, cfg)},
			served: make(chan struct{}),
		}
		go func() {
			defer close(p.served)
			p.srv.Serve(ln) // returns http.ErrServerClosed once close runs
		}()
		sys.peers = append(sys.peers, p)
		sys.hosts[i] = ln.Addr().String()
	}
	if n > 1 {
		for _, p := range sys.peers {
			if err := p.tier.SetPeers(sys.hosts); err != nil {
				sys.close()
				return nil, err
			}
		}
	}
	return sys, nil
}

// close stops every server and waits for its Serve loop to return.
func (s *system) close() {
	for _, p := range s.peers {
		p.srv.Close()
		<-p.served
		p.client.CloseIdleConnections()
	}
}

func (b *bench) close() {
	if b.sys != nil {
		b.sys.close()
		b.sys = nil
	}
}

// post sends one POST /v1/solve and reads the whole response.
func (p *peer) post(body []byte) (int, []byte, error) {
	resp, err := p.client.Post(p.url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// opRecord is one op of a timed window.
type opRecord struct {
	id   int
	key  reqKey
	peer int
	at   time.Duration // start, from the window's start
	lat  time.Duration
	// reqBytes and respBytes are the HTTP body sizes.
	reqBytes, respBytes int
	sum                 summary
	// entries is the served schedule, kept for the first op of each
	// distinct request.
	entries []servedEntry
	// cluster is the cluster-build share of a solve-large op.
	cluster time.Duration
	stats   cawosched.Stats // solve-large: the solver's returned Stats
	err     error
}

// serialized reports whether k is one of serve-cold's map-search
// requests. Each builds plans for the zone-aware mapping policies, which
// number new link processors on the shared cluster; two such requests in
// flight at once would number them in an order no reference solver can
// reproduce. The clients therefore send them one at a time, in stream
// order (op i is the (i/4)-th), and the reference solves them in that
// order too.
func (b *bench) serialized(k reqKey) bool { return k.mapSearch }

// turnstile lets ticket n proceed only after tickets below it are done.
type turnstile struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
}

// reset makes next the first ticket to proceed.
func (t *turnstile) reset(next int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cond == nil {
		t.cond = sync.NewCond(&t.mu)
	}
	t.next = next
}

func (t *turnstile) wait(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.next != n {
		t.cond.Wait()
	}
}

func (t *turnstile) done() {
	t.mu.Lock()
	t.next++
	t.mu.Unlock()
	t.cond.Broadcast()
}

// firstSight reports whether k has not been seen by an op yet, and marks
// it seen.
func (b *bench) firstSight(k reqKey) bool {
	b.seenMu.Lock()
	defer b.seenMu.Unlock()
	if b.seen[k] {
		return false
	}
	b.seen[k] = true
	return true
}

// op runs op i of the stream and records it.
func (b *bench) op(ctx context.Context, i int, traced bool) opRecord {
	if !b.http {
		return b.largeOp(ctx, i, traced)
	}
	k := b.keyOf(i)
	rec := opRecord{id: i, key: k, peer: b.peerOf(i)}
	body := b.body(k)
	if b.serialized(k) {
		b.turn.wait(i / 4)
		defer b.turn.done()
	}
	start := time.Now()
	status, raw, err := b.sys.peers[rec.peer].post(body)
	rec.lat = time.Since(start)
	rec.reqBytes, rec.respBytes = len(body), len(raw)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.sum, rec.err = checkResponse(status, raw, b.wantHit, traced)
	if rec.err == nil && b.firstSight(k) {
		rec.entries, rec.err = decodeSchedule(raw)
	}
	return rec
}

// largeOp is one solve-large op: a fresh large cluster and solver, then
// one solve — what cmd/cawosched and every sweep job do.
func (b *bench) largeOp(ctx context.Context, i int, traced bool) opRecord {
	k := b.keyOf(i)
	rec := opRecord{id: i, key: k}
	start := time.Now()
	cluster := cawosched.LargeZonedCluster(k.cluster, 1)
	rec.cluster = time.Since(start)
	resp, err := cawosched.NewSolver(cluster).Solve(ctx, b.request(k))
	rec.lat = time.Since(start)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.sum = summary{Cost: resp.Cost, ASAPCost: resp.ASAPCost, CacheHit: resp.CacheHit, AboveASAP: resp.Cost > resp.ASAPCost}
	rec.stats = resp.Stats
	if traced {
		for _, t := range resp.Timings {
			rec.sum.Timings = append(rec.sum.Timings, wire.StageTiming{Stage: t.Stage, Micros: t.Micros})
		}
	}
	switch {
	case resp.CacheHit:
		rec.err = errors.New("cache_hit true on a fresh solver")
	case b.firstSight(k):
		rec.entries = make([]servedEntry, len(resp.Schedule.Start))
		for v, s := range resp.Schedule.Start {
			rec.entries[v] = servedEntry{Node: v, Start: s, End: s + resp.Instance.Dur[v]}
		}
	}
	return rec
}

// warmedSolver returns a solver on a fresh copy of the system's cluster,
// warmed the way set-up warmed the system under test and in the same
// order. The order matters: the cluster numbers link processors in the
// order plans first use them, and a request's schedule can depend on that
// numbering, so a solver with another plan history may answer the same
// request with another (equally valid) schedule.
func (b *bench) warmedSolver(ctx context.Context, opts ...cawosched.SolverOption) (*cawosched.Solver, error) {
	s := cawosched.NewSolver(cawosched.SmallZonedCluster(b.clusterSeed(), len(zoneScenarios)), opts...)
	if b.name == fleetTier {
		for _, wf := range b.wfs {
			if _, _, err := s.Plan(ctx, wf); err != nil {
				return nil, fmt.Errorf("planning: %w", err)
			}
		}
		return s, nil
	}
	for _, k := range b.warmKeys() {
		if _, err := s.Solve(ctx, b.request(k)); err != nil {
			return nil, fmt.Errorf("warm-up solve: %w", err)
		}
	}
	return s, nil
}

// verify checks every op against a reference solve of its request by a
// separate in-process solver, after the window (the reference solves
// would otherwise compete with the system under test for the cores).
// Failures are recorded on the ops. Map-search requests, which build new
// plans, are solved one at a time in stream order, as the server saw
// them (see serialized); the rest in parallel.
func (b *bench) verify(ctx context.Context, recs []opRecord) {
	byKey := make(map[reqKey][]int)
	var ordered, parallel []reqKey
	for i := range recs {
		k := recs[i].key
		if _, ok := byKey[k]; !ok {
			if b.serialized(k) {
				ordered = append(ordered, k)
			} else {
				parallel = append(parallel, k)
			}
		}
		byKey[k] = append(byKey[k], i)
	}
	var ref *cawosched.Solver
	if b.http {
		var err error
		if ref, err = b.warmedSolver(ctx); err != nil {
			for i := range recs {
				recs[i].err = fmt.Errorf("reference solver: %w", err)
			}
			return
		}
	}
	check := func(k reqKey) {
		solver := ref
		if solver == nil {
			solver = cawosched.NewSolver(cawosched.LargeZonedCluster(k.cluster, 1))
		}
		resp, err := solver.Solve(ctx, b.request(k))
		for _, i := range byKey[k] {
			r := &recs[i]
			switch {
			case r.err != nil:
			case err != nil:
				r.err = fmt.Errorf("reference solve: %w", err)
			default:
				r.err = checkAgainst(r, resp)
			}
		}
	}
	next := make(chan reqKey)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, k := range ordered {
			check(k)
		}
	}()
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				check(k)
			}
		}()
	}
	for _, k := range parallel {
		next <- k
	}
	close(next)
	wg.Wait()
}

// costRatio is Σ cost ÷ Σ ASAP cost over the distinct requests of the
// stream's quality prefix.
func (b *bench) costRatio(recs []opRecord) float64 {
	seen := make(map[reqKey]bool)
	var cost, asap int64
	for i := range recs {
		r := &recs[i]
		if r.id >= b.quality || seen[r.key] {
			continue
		}
		seen[r.key] = true
		cost += r.sum.Cost
		asap += r.sum.ASAPCost
	}
	if asap == 0 {
		return 0
	}
	return float64(cost) / float64(asap)
}
