package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
)

// metric is a printed metric's name and unit. The two tables below are
// the benchmark's contract with BENCHMARK.json (selftest_test.go holds
// them equal).
type metric struct{ name, unit string }

// endToEnd is the untraced set every workload prints. Each workload
// gives the generic names its own reading (see NOTES.md):
//
//	pass_s    eval: cold 60-cell sweep; fleet: one 20-request round;
//	          protocol: the verify subset plus Explore
//	p50/p75   eval: one cell's execution; fleet: a cached sweep from POST
//	          to its NDJSON summary; protocol: one Explore BFS level
//	alloc_mb  bytes allocated per pass
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"pass_s", "s"},
	{"p50_ms", "ms"},
	{"p75_ms", "ms"},
	{"alloc_mb", "MB"},
}

// spanNames are the span kinds whose self time is reported, in ms per
// pass, as self.<name>_ms.
var spanNames = []string{
	"op", "engine.queue", "engine.exec", "chai.build", "system.new", "system.run",
	"engine.encode", "cache.get", "cache.put", "peer.proxy_submit", "peer.cache_fetch",
	"peer.cache_push", "node.handler", "verify.run", "reach.explore",
}

// cpuBuckets are the CPU-profile buckets, reported as cpu.<bucket> in % of
// the traced phase's samples.
var cpuBuckets = []string{
	"sim", "noc", "core", "corepair", "gpucache", "gpu", "cpu", "prog", "memdata",
	"cachearray", "msg", "engine", "fleet", "verify", "protocheck", "net_http",
	"encoding_json", "crypto_sha256", "runtime_malloc", "runtime_gc", "runtime_map",
	"runtime_sched", "prog_handoff", "other",
}

// perLayer is the traced set. A layer a workload never reaches reads 0.
var perLayer = func() []metric {
	m := []metric{
		{"engine.queue_wait_ms", "ms"}, {"engine.exec_ms", "ms"}, {"engine.encode_ms", "ms"},
		{"engine.cache_hits", "count"}, {"engine.jobs_done", "count"},
		{"system.new_ms", "ms"}, {"chai.build_ms", "ms"}, {"system.run_ms", "ms"},
		{"sim.events", "count"}, {"sim.ns_per_event", "ns"},
		{"prog.handoffs", "count"}, {"prog.ns_per_handoff", "ns"},
		{"noc.messages", "count"}, {"noc.bytes", "count"}, {"dir.requests", "count"},
		{"dir.probes_sent", "count"}, {"mem.accesses", "count"}, {"cp.l2_misses", "count"},
		{"model.fig4_saved_pct", "%"}, {"model.fig5_mem_reduction_pct", "%"},
		{"model.fig6_saved_pct", "%"}, {"model.fig7_probe_reduction_pct", "%"},
		{"cache.get_us", "us"}, {"cache.put_us", "us"}, {"fleet.cache_served_ratio", "ratio"},
		{"peer.proxy_submit_ms", "ms"}, {"peer.cache_fetch_ms", "ms"}, {"peer.cache_push_ms", "ms"},
		{"node.handler.sweeps_ms", "ms"}, {"node.handler.jobs_ms", "ms"},
		{"node.handler.result_ms", "ms"}, {"node.handler.cache_get_ms", "ms"},
		{"node.handler.cache_post_ms", "ms"},
		{"client.retries", "count"}, {"sweep.cells_proxied", "count"},
		{"sweep.cells_peer_fallback", "count"}, {"fleet.peer_hits", "count"},
		{"fleet.peer_misses", "count"}, {"fleet.peer_errors", "count"},
		{"fleet.fills_pushed", "count"}, {"fleet.fills_dropped", "count"},
		{"verify.states", "count"}, {"verify.paths", "count"}, {"verify.ns_per_state", "ns"},
		{"reach.states", "count"}, {"reach.depth", "count"}, {"reach.ns_per_state", "ns"},
		{"alloc.per_op", "count"}, {"gc.cpu_share", "%"},
		{"failed_ratio", "ratio"}, {"ops.retried", "count"},
		{"trace.overhead_pct", "%"}, {"trace.overhead_p50_pct", "%"},
	}
	for _, s := range spanNames {
		m = append(m, metric{"self." + s + "_ms", "ms"})
	}
	for _, b := range cpuBuckets {
		m = append(m, metric{"cpu." + b, "%"})
	}
	return m
}()

// phase is one measured stretch (untraced or traced) of a run.
type phase struct {
	tr *tracer // nil when untraced

	passes  []float64 // wall of each pass, s
	allocMB []float64 // bytes allocated by each pass, MB
	mallocs uint64
	cpuSec  float64
	gcSec   float64

	mu  sync.Mutex
	lat []float64            // the workload's unit latencies, ms (p50_ms/p75_ms)
	by  map[string][]float64 // other named samples (per-class latencies, layer times)
	ops int                  // units of work, for alloc.per_op
	cpu map[string]float64   // CPU-profile bucket shares, %
}

func newPhase(tr *tracer) *phase { return &phase{tr: tr, by: make(map[string][]float64)} }

// unit records one unit latency.
func (p *phase) unit(ms float64) {
	p.mu.Lock()
	p.lat = append(p.lat, ms)
	p.mu.Unlock()
}

// sample records one value under name.
func (p *phase) sample(name string, v float64) {
	p.mu.Lock()
	p.by[name] = append(p.by[name], v)
	p.mu.Unlock()
}

// addOps counts units of work.
func (p *phase) addOps(n int) {
	p.mu.Lock()
	p.ops += n
	p.mu.Unlock()
}

func (p *phase) npass() float64 { return float64(len(p.passes)) }

// accounting counts operations across a run.
type accounting struct {
	attempted, failed, retried atomic.Int64

	mu       sync.Mutex
	problems []string
}

// ok records a successful operation.
func (a *accounting) ok() { a.attempted.Add(1) }

// fail records a failed operation; the first few reasons are kept.
func (a *accounting) fail(format string, args ...any) {
	a.attempted.Add(1)
	a.failed.Add(1)
	a.mu.Lock()
	if len(a.problems) < 8 {
		a.problems = append(a.problems, fmt.Sprintf(format, args...))
	}
	a.mu.Unlock()
}

// named is one line of the human-readable report.
type named struct {
	name  string
	value float64
	unit  string
	note  string
}

// report is a finished run's output.
type report struct {
	cfg   config
	acct  *accounting
	e2e   map[string]float64
	layer map[string]float64
	lines []named
}

func newReport(cfg config, acct *accounting, setupS float64, un *phase) *report {
	r := &report{cfg: cfg, acct: acct, e2e: make(map[string]float64), layer: make(map[string]float64)}
	att, failed := acct.attempted.Load(), acct.failed.Load()
	r.e2e["setup_s"] = setupS
	r.e2e["ok_ratio"] = float64(att-failed) / float64(max(att, 1))
	for k, v := range genericE2E(un) {
		r.e2e[k] = v
	}
	r.layer["failed_ratio"] = float64(failed) / float64(max(att, 1))
	r.layer["ops.retried"] = float64(acct.retried.Load())
	r.add("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", setupReps))
	r.add("pass_s", r.e2e["pass_s"], "s", fmt.Sprintf("median of %d passes, min %.4g, max %.4g", len(un.passes), quantile(un.passes, 0), quantile(un.passes, 1)))
	r.add("failed_ratio", r.layer["failed_ratio"], "ratio", fmt.Sprintf("%d of %d operations failed, %d retried", failed, att, acct.retried.Load()))
	return r
}

// genericE2E derives the shared end-to-end metrics from a phase.
func genericE2E(p *phase) map[string]float64 {
	return map[string]float64{
		"pass_s":   median(p.passes),
		"p50_ms":   quantile(p.lat, 0.50),
		"p75_ms":   quantile(p.lat, 0.75),
		"alloc_mb": median(p.allocMB),
	}
}

// add appends a human-readable report line.
func (r *report) add(name string, v float64, unit, note string) {
	r.lines = append(r.lines, named{name, v, unit, note})
}

// addPct adds a percentile line, or says why it is withheld: a
// percentile is reported only where at least ten samples lie beyond it.
func (r *report) addPct(name string, xs []float64, q float64, unit string) {
	n := len(xs)
	if beyond(n, q) < 10 {
		r.add(name, math.NaN(), unit, fmt.Sprintf("n=%d: fewer than 10 samples beyond p%g, not reported", n, q*100))
		return
	}
	r.add(name, quantile(xs, q), unit, fmt.Sprintf("n=%d", n))
}

// addTraced adds the common per-layer metrics of a traced run.
func (r *report) addTraced(un, tr *phase) {
	pu, pt := median(un.passes), median(tr.passes)
	r.layer["trace.overhead_pct"] = 100 * (pt/pu - 1)
	if lu := quantile(un.lat, 0.5); lu > 0 {
		r.layer["trace.overhead_p50_pct"] = 100 * (quantile(tr.lat, 0.5)/lu - 1)
	}
	if tr.ops > 0 {
		r.layer["alloc.per_op"] = float64(tr.mallocs) / float64(tr.ops)
	}
	if tr.cpuSec > 0 {
		r.layer["gc.cpu_share"] = 100 * tr.gcSec / tr.cpuSec
	}
	for _, b := range cpuBuckets {
		r.layer["cpu."+b] = tr.cpu[b]
	}
	self := tr.tr.selfTimes()
	for _, s := range spanNames {
		r.layer["self."+s+"_ms"] = self[s].Seconds() * 1e3 / tr.npass()
	}
	ge := genericE2E(tr)
	for _, m := range endToEnd[2:] {
		r.add("traced "+m.name, ge[m.name], m.unit, fmt.Sprintf("untraced %.6g; overhead in trace.overhead_pct", r.e2e[m.name]))
	}
}

// write prints the human-readable report and then the result line.
func (r *report) write(w io.Writer, traced bool) error {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%t\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds.Seconds(), traced)
	for _, l := range r.lines {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", l.name, l.value, l.unit, l.note)
	}
	for _, p := range r.acct.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	set, vals := endToEnd, r.e2e
	if traced {
		set, vals = perLayer, r.layer
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, vals[m.name], m.unit)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.acct.failed.Load() == 0 && r.acct.attempted.Load() > 0,
		Attempted: r.acct.attempted.Load(),
		Failed:    r.acct.failed.Load(),
		Metrics:   make(map[string]value, len(set)),
	}
	for _, m := range set {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	return writeJSONLine(w, out)
}

// median is the middle of xs (mean of the two middles); 0 when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(len(xs), q)]
}

func rank(n int, q float64) int { return max(int(math.Ceil(q*float64(n)))-1, 0) }

// beyond is how many of n samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - 1 - rank(n, q) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runtimeSnap is a reading of the process's allocation and CPU counters.
type runtimeSnap struct {
	allocBytes, mallocs uint64
	cpuSec, gcSec       float64
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	gc := 0.0
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return runtimeSnap{
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		cpuSec:     tv(ru.Utime) + tv(ru.Stime),
		gcSec:      gc,
	}
}
