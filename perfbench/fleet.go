package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hscsim/internal/engine"
	"hscsim/internal/fleet"
	"hscsim/internal/stats"
)

// fleetMix is the fleet-mix workload: three fleet nodes on 127.0.0.1 in
// this process, wired as cmd/hscserve wires them (one engine worker, a
// TieredCache over the local cache, a Ring over all three). Set-up warms
// a grid of cheap scale-1 cells with one sweep; each pass is then a
// round of seeded requests sent by two closed-loop clients:
//
//	sweep  POST /sweeps of a 12-cell slice of the warm grid to a rotating
//	       entry node, with fresh point labels so every sweep is a new
//	       sweep ID over cached cells (non-home cells take the proxy path)
//	read   GET /jobs/{hash}/result of a warm cell at a non-home node,
//	       which reads through the peer cache tier
//	fresh  POST /jobs?wait=1 of a spec whose seed was never used, which
//	       the cell's home node simulates and memoizes
//
// Every response is checked byte for byte against engine.Execute of the
// same spec in this process.
type fleetMix struct {
	cfg  config
	acct *accounting
	cur  atomic.Pointer[phase] // the stretch being measured
	subs *submitted            // fresh jobs, for queue wait and span parents

	grid   engine.SweepSpec
	cells  []engine.Spec
	ref    map[string][]byte // engine.Execute bytes per grid cell hash
	nodes  []*fleetNode
	ring   *fleet.Ring
	client *http.Client // the load generator's

	round     int
	freshK    atomic.Int64
	mu        sync.Mutex
	fresh     []freshResult // checked after measuring
	prevFresh []freshResult // the last round's, read back in the next
}

type fleetNode struct {
	url   string
	srv   *http.Server
	eng   *engine.Engine
	reg   *stats.Registry
	peers *http.Transport
	done  chan struct{} // closed when Serve returns
}

type freshResult struct {
	spec engine.Spec
	body []byte
}

const (
	spanHeader = "X-Bench-Span" // "<op>-<parent span>" across loopback hops
	roundOps   = 20             // requests per round: 14 sweeps, 4 reads, 2 fresh
)

// freshBenches are the cheap workloads fresh jobs draw from.
var freshBenches = []string{"bs", "pad"}

// fleetCounters are the registry counters summed over the nodes.
var fleetCounters = []string{
	"engine.cache_hits", "engine.jobs_done", "engine.queue_rejects",
	"sweep.cells_proxied", "sweep.cells_peer_fallback",
	"fleet.peer_hits", "fleet.peer_misses", "fleet.peer_errors",
	"fleet.fills_pushed", "fleet.fills_dropped",
}

func newFleetMix(cfg config, acct *accounting) *fleetMix {
	f := &fleetMix{cfg: cfg, acct: acct, subs: newSubmitted(), ref: make(map[string][]byte)}
	f.cur.Store(newPhase(nil))
	return f
}

// prepare builds the warm grid and its reference bytes, computed in
// process on two goroutines.
func (f *fleetMix) prepare() error {
	variants := []string{"baseline", "ownerTracking", "sharersTracking"}
	f.grid = engine.SweepSpec{
		Benches: []string{"bs", "pad", "tq", "sc"},
		Points: []engine.SweepPoint{
			{Label: "base"},
			{Label: "pairs2", Topology: engine.TopologySpec{NumCorePairs: 2}, Threads: 4},
			{Label: "banks2", Topology: engine.TopologySpec{DirBanks: 2}},
		},
		Scale: 1,
		Seed:  f.cfg.seed,
	}
	if f.cfg.minimal {
		f.grid.Benches, f.grid.Points, variants = f.grid.Benches[:2], f.grid.Points[:2], variants[:2]
	}
	for _, v := range variants {
		p, err := engine.NamedVariant(v)
		if err != nil {
			return err
		}
		f.grid.Variants = append(f.grid.Variants, p)
	}
	cells, err := f.grid.Cells()
	if err != nil {
		return err
	}
	f.cells = cells
	refs, err := executeAll(cells)
	if err != nil {
		return err
	}
	for i, c := range cells {
		f.ref[c.Hash()] = refs[i]
	}
	return nil
}

// executeAll runs engine.Execute over specs on two goroutines.
func executeAll(specs []engine.Spec) ([][]byte, error) {
	out := make([][]byte, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(specs); i = int(next.Add(1) - 1) {
				out[i], errs[i] = engine.Execute(context.Background(), specs[i])
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// setup starts the three nodes and warms the grid with one sweep.
func (f *fleetMix) setup() error {
	f.cur.Store(newPhase(nil))
	if err := f.startNodes(); err != nil {
		return err
	}
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: time.Minute}
	if err := f.sweep(f.cur.Load(), f.nodes[0].url, f.grid, 0, 0); err != nil {
		f.acct.fail("warm-up sweep: %v", err)
	} else {
		f.acct.ok()
	}
	return nil
}

func (f *fleetMix) startNodes() error {
	var lns []net.Listener
	var urls []string
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	f.ring = fleet.NewRing(urls[0], urls)
	for i, ln := range lns {
		local, _ := engine.NewCache(0, "") // fails only when creating a cache directory
		ring := fleet.NewRing(urls[i], urls)
		peers := &http.Transport{MaxIdleConnsPerHost: 16}
		client := fleet.NewClient(30 * time.Second)
		client.HTTP.Transport = peerTransport{base: peers, f: f}
		reg := stats.NewRegistry()
		tiered := fleet.NewTieredCache(local, ring, client, reg)
		eng := engine.New(engine.Config{
			Workers:  1,
			Cache:    timedCache{ResultCache: tiered, cur: &f.cur, subs: f.subs},
			Registry: reg,
			Exec:     execFunc(&f.cur, f.subs, false),
		})
		node := fleet.New(eng, ring, tiered, fleet.Options{Client: client})
		n := &fleetNode{
			url:   urls[i],
			srv:   &http.Server{Handler: f.handler(node.Handler())},
			eng:   eng,
			reg:   reg,
			peers: peers,
			done:  make(chan struct{}),
		}
		f.nodes = append(f.nodes, n)
		go func() {
			defer close(n.done)
			_ = n.srv.Serve(ln) // returns ErrServerClosed at teardown
		}()
	}
	return nil
}

// teardown stops the nodes and waits for their servers and workers.
func (f *fleetMix) teardown() {
	for _, n := range f.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = n.srv.Shutdown(ctx) // a timeout leaves Close below to cut connections
		cancel()
		n.srv.Close()
		<-n.done
		n.eng.Close()
		n.peers.CloseIdleConnections()
	}
	f.nodes = nil
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

type opKind int

const (
	opSweep opKind = iota
	opRead
	opFresh
)

// request is one load-generator request of a round.
type request struct {
	kind opKind
	read readTarget // opRead only
}

// readTarget is a cell to GET at a node that is not its home.
type readTarget struct {
	node, hash string
	want       []byte
}

// pass runs one round: the seeded requests of round f.round, pulled by
// two closed-loop clients.
func (f *fleetMix) pass(ph *phase) error {
	f.cur.Store(ph)
	reqs := f.roundRequests()
	before := f.counters()
	firstFresh := len(f.fresh)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				f.do(ph, reqs[i], f.round*roundOps+i)
			}
		}()
	}
	wg.Wait()
	after := f.counters()
	for _, k := range fleetCounters {
		ph.sample(k, float64(after[k]-before[k]))
	}
	f.acct.retried.Add(int64(after["engine.queue_rejects"] - before["engine.queue_rejects"]))
	ph.addOps(len(reqs))
	f.prevFresh = append([]freshResult(nil), f.fresh[firstFresh:]...)
	sort.Slice(f.prevFresh, func(i, j int) bool { return f.prevFresh[i].spec.Seed < f.prevFresh[j].spec.Seed })
	f.round++
	return nil
}

// roundRequests is round f.round's requests in seeded order: 14 sweeps,
// 4 reads and 2 fresh jobs.
func (f *fleetMix) roundRequests() []request {
	rng := f.rng(-1)
	reqs := make([]request, 0, roundOps)
	for i := 0; i < 14; i++ {
		reqs = append(reqs, request{kind: opSweep})
	}
	for _, t := range f.readTargets(rng) {
		reqs = append(reqs, request{kind: opRead, read: t})
	}
	reqs = append(reqs, request{kind: opFresh}, request{kind: opFresh})
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// readTargets are a round's 4 reads: the previous round's fresh results
// at their two non-home nodes, whose local tiers never held them, so
// each read goes through the peer cache tier; warm grid cells at a
// non-home node make up the rest (round 0, or a failed fresh job).
func (f *fleetMix) readTargets(rng *rand.Rand) []readTarget {
	var out []readTarget
	for _, r := range f.prevFresh {
		h := r.spec.Hash()
		for _, n := range f.nonHome(h) {
			out = append(out, readTarget{n, h, r.body})
		}
	}
	for len(out) < 4 {
		h := f.cells[rng.Intn(len(f.cells))].Hash()
		others := f.nonHome(h)
		out = append(out, readTarget{others[rng.Intn(len(others))], h, f.ref[h]})
	}
	return out[:4]
}

// nonHome lists the nodes that are not hash's home.
func (f *fleetMix) nonHome(hash string) []string {
	var out []string
	home := f.ring.Home(hash)
	for _, n := range f.nodes {
		if n.url != home {
			out = append(out, n.url)
		}
	}
	return out
}

// rng is the seeded source for request i of the current round (i = -1
// for the round itself).
func (f *fleetMix) rng(i int) *rand.Rand {
	return rand.New(rand.NewSource(f.cfg.seed*1_000_003 + int64(f.round)*(roundOps+1) + int64(i) + 1))
}

func (f *fleetMix) counters() map[string]uint64 {
	out := make(map[string]uint64)
	for _, n := range f.nodes {
		for _, k := range fleetCounters {
			out[k] += n.reg.Get(k)
		}
	}
	return out
}

// do sends one request as operation seq and checks its answer.
func (f *fleetMix) do(ph *phase, req request, seq int) {
	kind := req.kind
	rng := f.rng(seq % roundOps)
	entry := f.nodes[seq%len(f.nodes)].url
	tr := ph.tr
	op, root := tr.id(), tr.id()
	t0 := time.Now()
	var name string
	var err error
	switch kind {
	case opSweep:
		name = "sweep_ms"
		err = f.sweep(ph, entry, f.slice(rng, seq), op, root)
	case opRead:
		name = "read_ms"
		err = f.read(req.read, op, root)
	case opFresh:
		name = "fresh_ms"
		err = f.submitFresh(entry, op, root)
	}
	t1 := time.Now()
	tr.record("op", root, 0, op, t0, t1)
	if err != nil {
		f.acct.fail("%s: %v", strings.TrimSuffix(name, "_ms"), err)
		return
	}
	ph.sample(name, ms(t1.Sub(t0)))
	if kind == opSweep {
		ph.unit(ms(t1.Sub(t0)))
	}
	if kind != opFresh { // fresh results are judged after measuring
		f.acct.ok()
	}
}

// slice picks 2 benches × all variants × 2 points of the grid (12 cells
// at full size) and labels the points afresh for request seq.
func (f *fleetMix) slice(rng *rand.Rand, seq int) engine.SweepSpec {
	s := f.grid
	b := rng.Perm(len(s.Benches))
	p := rng.Perm(len(s.Points))
	s.Benches = []string{s.Benches[b[0]], s.Benches[b[1]]}
	s.Points = nil
	for _, i := range p[:2] {
		pt := f.grid.Points[i]
		pt.Label = pt.Label + "/" + strconv.Itoa(seq)
		s.Points = append(s.Points, pt)
	}
	return s
}

// sweep POSTs a sweep and checks the NDJSON stream to its summary.
func (f *fleetMix) sweep(ph *phase, entry string, spec engine.SweepSpec, op, root uint64) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := f.send(http.MethodPost, entry+"/sweeps", body, op, root)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	cells := 0
	for sc.Scan() {
		// Cell and summary lines both carry "cached", as a bool and as a
		// count, so each line is decoded by its type.
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			return fmt.Errorf("sweep stream: %w", err)
		}
		switch head.Type {
		case "cell":
			var c struct {
				Hash   string          `json:"hash"`
				State  string          `json:"state"`
				Error  string          `json:"error"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
				return fmt.Errorf("sweep stream: %w", err)
			}
			cells++
			if c.State != "done" {
				return fmt.Errorf("sweep cell %s: %s %s", c.Hash, c.State, c.Error)
			}
			if !bytes.Equal(f.cfg.output(c.Result), f.ref[c.Hash]) {
				return fmt.Errorf("sweep cell %s: bytes differ from engine.Execute", c.Hash)
			}
		case "summary":
			var s struct {
				Total  int `json:"total"`
				Failed int `json:"failed"`
				Cached int `json:"cached"`
			}
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				return fmt.Errorf("sweep stream: %w", err)
			}
			if s.Total != cells || s.Failed != 0 {
				return fmt.Errorf("sweep summary: %d cells, %d failed; stream carried %d", s.Total, s.Failed, cells)
			}
			ph.sample("sweep.cells", float64(cells))
			ph.sample("sweep.cached", float64(s.Cached))
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("sweep stream: %w", err)
	}
	return errors.New("sweep stream ended before its summary")
}

// read GETs a cell's result at a node that is not its home.
func (f *fleetMix) read(t readTarget, op, root uint64) error {
	resp, err := f.send(http.MethodGet, t.node+"/jobs/"+t.hash+"/result", nil, op, root)
	if err != nil {
		return err
	}
	b, err := readOK(resp)
	if err != nil {
		return err
	}
	if !bytes.Equal(f.cfg.output(b), t.want) {
		return fmt.Errorf("read %s: bytes differ from the reference", t.hash)
	}
	return nil
}

// submitFresh POSTs a never-seen spec and keeps its result for finish.
func (f *fleetMix) submitFresh(entry string, op, root uint64) error {
	k := f.freshK.Add(1) - 1
	sp := engine.Spec{
		Bench: freshBenches[k%int64(len(freshBenches))],
		Scale: 1,
		Seed:  f.cfg.seed*1_000_003 + 1 + k, // never the grid's seed, never repeated
	}.Normalized()
	f.subs.set(sp.Hash(), submitInfo{at: time.Now(), op: op, root: root})
	resp, err := f.send(http.MethodPost, entry+"/jobs?wait=1", sp.Canonical(), op, root)
	if err != nil {
		return err
	}
	b, err := readOK(resp)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.fresh = append(f.fresh, freshResult{sp, b})
	f.mu.Unlock()
	return nil
}

// send issues a load-generator request as span root of operation op,
// retrying backpressure (429/503) a few times; every retry is counted.
func (f *fleetMix) send(method, url string, body []byte, op, root uint64) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if root != 0 {
			req.Header.Set(spanHeader, strconv.FormatUint(op, 10)+"-"+strconv.FormatUint(root, 10))
		}
		resp, err := f.client.Do(req)
		if err != nil {
			return nil, err
		}
		if (resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable) || attempt == 4 {
			return resp, nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		f.acct.retried.Add(1)
		time.Sleep(20 * time.Millisecond)
	}
}

func readOK(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %.200s", resp.Status, b)
	}
	return b, nil
}

// finish checks every fresh job's bytes against engine.Execute.
func (f *fleetMix) finish() {
	specs := make([]engine.Spec, len(f.fresh))
	for i, r := range f.fresh {
		specs[i] = r.spec
	}
	refs, err := executeAll(specs)
	for i, r := range f.fresh {
		switch {
		case refs[i] == nil:
			f.acct.fail("fresh %s: in-process run failed: %v", r.spec, err)
		case !bytes.Equal(f.cfg.output(r.body), refs[i]):
			f.acct.fail("fresh %s: bytes differ from engine.Execute", r.spec)
		default:
			f.acct.ok()
		}
	}
}

func (f *fleetMix) report(rep *report, un, tr *phase) {
	reqs := float64(un.ops)
	rep.add("fleet_ops_per_s", reqs/sum(un.passes), "1/s", fmt.Sprintf("%.0f requests in %d rounds, 2 closed-loop clients", reqs, len(un.passes)))
	rep.addPct("fleet_sweep_p50_ms", un.by["sweep_ms"], 0.50, "ms")
	rep.addPct("fleet_sweep_p90_ms", un.by["sweep_ms"], 0.90, "ms")
	rep.addPct("fleet_read_p50_ms", un.by["read_ms"], 0.50, "ms")
	rep.addPct("fleet_read_p99_ms", un.by["read_ms"], 0.99, "ms")
	rep.addPct("fleet_fresh_p50_ms", un.by["fresh_ms"], 0.50, "ms")
	if tr == nil {
		return
	}
	l := rep.layer
	layerTimes(l, tr)
	n := tr.npass()
	l["sim.events"] = sum(tr.by["sim.events"]) / n
	if ev := sum(tr.by["sim.events"]); ev > 0 {
		l["sim.ns_per_event"] = sum(tr.by["system.run_ms"]) * 1e6 / ev
	}
	for _, k := range fleetCounters {
		if k != "engine.queue_rejects" {
			l[k] = sum(tr.by[k]) / n
		}
	}
	l["client.retries"] = sum(tr.by["client.retries"]) / n
	if c := sum(tr.by["sweep.cells"]); c > 0 {
		l["fleet.cache_served_ratio"] = sum(tr.by["sweep.cached"]) / c
	}
	for _, k := range []string{"peer.proxy_submit_ms", "peer.cache_fetch_ms", "peer.cache_push_ms",
		"node.handler.sweeps_ms", "node.handler.jobs_ms", "node.handler.result_ms",
		"node.handler.cache_get_ms", "node.handler.cache_post_ms"} {
		l[k] = median(tr.by[k])
	}
}

// spanCtx carries an operation and parent span through a request context.
type spanCtx struct{ op, parent uint64 }

type spanKey struct{}

// handler wraps a node's handler: in a traced phase it records a
// node.handler span per request, parented across the loopback hop by
// the X-Bench-Span header, and passes the span on in the request context.
func (f *fleetMix) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ph := f.cur.Load()
		if ph.tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		var sc spanCtx
		if v := r.Header.Get(spanHeader); v != "" {
			a, b, _ := strings.Cut(v, "-")
			sc.op, _ = strconv.ParseUint(a, 10, 64)
			sc.parent, _ = strconv.ParseUint(b, 10, 64)
		}
		id := ph.tr.id()
		t0 := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanCtx{sc.op, id})))
		t1 := time.Now()
		ph.tr.record("node.handler", id, sc.parent, sc.op, t0, t1)
		ph.sample("node.handler."+route(r)+"_ms", ms(t1.Sub(t0)))
	})
}

// route names a node request for node.handler.<route>_ms.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/sweeps"):
		return "sweeps"
	case strings.HasPrefix(p, "/jobs/") && strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasPrefix(p, "/jobs"):
		return "jobs"
	case strings.HasPrefix(p, "/cache/") && r.Method == http.MethodPost:
		return "cache_post"
	case strings.HasPrefix(p, "/cache/"):
		return "cache_get"
	}
	return "other"
}

// peerTransport is the RoundTripper on every node's fleet.Client. It
// counts responses the client will retry (429/502/503/504) and, in a
// traced phase, records each peer round trip by kind.
type peerTransport struct {
	base *http.Transport
	f    *fleetMix
}

func (t peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ph := t.f.cur.Load()
	if ph.tr == nil {
		resp, err := t.base.RoundTrip(req)
		t.countRetry(ph, resp)
		return resp, err
	}
	sc, _ := req.Context().Value(spanKey{}).(spanCtx)
	id := ph.tr.id()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(sc.op, 10)+"-"+strconv.FormatUint(id, 10))
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	t1 := time.Now()
	kind := "proxy_submit"
	switch {
	case strings.HasPrefix(req.URL.Path, "/cache/") && req.Method == http.MethodGet:
		kind = "cache_fetch"
	case strings.HasPrefix(req.URL.Path, "/cache/"):
		kind = "cache_push"
	}
	ph.tr.record("peer."+kind, id, sc.parent, sc.op, t0, t1)
	ph.sample("peer."+kind+"_ms", ms(t1.Sub(t0)))
	t.countRetry(ph, resp)
	return resp, err
}

func (t peerTransport) countRetry(ph *phase, resp *http.Response) {
	if resp == nil {
		return
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		t.f.acct.retried.Add(1)
		ph.sample("client.retries", 1)
	}
}
