package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/engine"
	"hscsim/internal/figures"
	"hscsim/internal/system"
)

// evalSweep is the eval-sweep workload: each pass submits the Fig. 4–7
// cell set to a fresh engine (2 workers, empty in-memory cache) and
// waits for every result. The run is cold on purpose: hscfig users pay
// it every time.
type evalSweep struct {
	cfg  config
	acct *accounting

	specs  []engine.Spec
	hashes []string
	ref    map[string][]byte         // first pass's result bytes
	res    map[string]system.Results // first pass's results, by hash
}

func newEvalSweep(cfg config, acct *accounting) *evalSweep {
	return &evalSweep{cfg: cfg, acct: acct, ref: make(map[string][]byte), res: make(map[string]system.Results)}
}

// evalCells is the Fig. 4/5 sweep (10 CHAI benches × the union of the
// Fig. 4 and Fig. 5 variants) plus the Fig. 6/7 sweep (the collaborative
// five × the Fig. 6 variants), deduplicated by hash: 60 cells. seed is
// passed as Spec.Seed (0 = the paper's inputs).
func evalCells(seed int64, minimal bool) []engine.Spec {
	benches, collab := chai.Names(), chai.CollaborativeFive()
	v45 := append(figures.Fig4Variants(), figures.Fig5Variants()...)
	v67 := figures.Fig6Variants()
	if minimal {
		benches, collab, v45, v67 = []string{"bs", "tq"}, []string{"tq"}, v45[:2], v67[:2]
	}
	seen := make(map[string]bool)
	var cells []engine.Spec
	add := func(benches []string, variants []core.Options) {
		for _, b := range benches {
			for _, v := range variants {
				sp := engine.EvalSpec(b, v)
				sp.Seed = seed
				sp = sp.Normalized()
				if h := sp.Hash(); !seen[h] {
					seen[h] = true
					cells = append(cells, sp)
				}
			}
		}
	}
	add(benches, v45)
	add(collab, v67)
	return cells
}

func (e *evalSweep) prepare() error { return nil }

// setup expands and validates the cell set and runs one warm-up cell, so
// the first measured pass does not also pay the process's lazy set-up.
func (e *evalSweep) setup() error {
	e.specs = evalCells(e.cfg.seed, e.cfg.minimal)
	e.hashes = e.hashes[:0]
	for _, sp := range e.specs {
		if err := sp.Validate(); err != nil {
			return err
		}
		e.hashes = append(e.hashes, sp.Hash())
	}
	_, err := engine.Execute(context.Background(), engine.Spec{Bench: "bs", Scale: 1, Seed: e.cfg.seed})
	return err
}

func (e *evalSweep) teardown() {}

func (e *evalSweep) pass(ph *phase) error {
	subs := newSubmitted()
	cache, _ := engine.NewCache(0, "") // fails only when creating a cache directory
	var cur atomic.Pointer[phase]
	cur.Store(ph)
	eng := engine.New(engine.Config{
		Workers: 2,
		Cache:   timedCache{ResultCache: cache, cur: &cur, subs: subs},
		Exec:    execFunc(&cur, subs, true),
	})
	defer eng.Close()

	jobs := make([]*engine.Job, len(e.specs))
	for i, sp := range e.specs {
		op := ph.tr.id()
		subs.set(e.hashes[i], submitInfo{at: time.Now(), op: op, root: ph.tr.id()})
		for {
			j, err := eng.Submit(sp)
			if errors.Is(err, engine.ErrQueueFull) {
				e.acct.retried.Add(1)
				time.Sleep(10 * time.Millisecond)
				continue
			}
			if err != nil {
				return fmt.Errorf("submit %s: %w", sp, err)
			}
			jobs[i] = j
			break
		}
	}
	for i, j := range jobs {
		b, err := j.Wait(context.Background())
		if err != nil {
			e.acct.fail("cell %s: %v", e.specs[i], err)
			continue
		}
		e.check(i, e.cfg.output(b))
	}
	if tr := ph.tr; tr != nil {
		// A cell's operation span runs from its Submit to the end of
		// its execution.
		for _, h := range e.hashes {
			if info, _ := subs.get(h); !info.end.IsZero() {
				tr.record("op", info.root, 0, info.op, info.at, info.end)
			}
		}
	}
	st := eng.Stats()
	ph.sample("engine.jobs_done", float64(st.Done))
	ph.sample("engine.cache_hits", float64(st.CacheHits))
	ph.addOps(len(jobs))
	return nil
}

// check holds every pass's bytes for a cell equal to the first pass's,
// which also holds the traced executor to engine.Execute's output.
func (e *evalSweep) check(i int, b []byte) {
	h := e.hashes[i]
	ref, ok := e.ref[h]
	if !ok {
		res, err := engine.DecodeResult(b)
		if err != nil {
			e.acct.fail("cell %s: %v", e.specs[i], err)
			return
		}
		e.ref[h], e.res[h] = b, res
		e.acct.ok()
		return
	}
	if !bytes.Equal(b, ref) {
		e.acct.fail("cell %s: result bytes differ from the first pass", e.specs[i])
		return
	}
	e.acct.ok()
}

func (e *evalSweep) finish() {}

func (e *evalSweep) report(rep *report, un, tr *phase) {
	rep.add("eval_wall_s", median(un.passes), "s", fmt.Sprintf("n=%d cold sweeps of %d cells", len(un.passes), len(e.specs)))
	rep.addPct("eval_cell_p50_ms", un.lat, 0.5, "ms")
	rep.add("eval_alloc_mb", median(un.allocMB), "MB", fmt.Sprintf("n=%d sweeps", len(un.passes)))

	l := rep.layer
	model := e.modelCounts()
	for k, v := range model {
		l[k] = v
	}
	for _, k := range []string{"model.fig4_saved_pct", "model.fig5_mem_reduction_pct", "model.fig6_saved_pct", "model.fig7_probe_reduction_pct"} {
		rep.add(k, l[k], "%", "paper "+paperFigure[k]+"; the model is unvalidated against hardware, so no error figure is given")
	}
	if tr == nil {
		return
	}
	layerTimes(l, tr)
	n := tr.npass()
	events := sum(tr.by["sim.events"])
	l["sim.events"] = events / n
	if events > 0 {
		l["sim.ns_per_event"] = sum(tr.by["system.run_ms"]) * 1e6 / events
	}
	if h := l["prog.handoffs"] * n; h > 0 {
		l["prog.ns_per_handoff"] = tr.cpu["prog_handoff"] / 100 * tr.cpuSec * 1e9 / h
	}
	l["engine.jobs_done"] = mean(tr.by["engine.jobs_done"])
	l["engine.cache_hits"] = mean(tr.by["engine.cache_hits"])
}

// paperFigure is the paper's headline for each model metric.
var paperFigure = map[string]string{
	"model.fig4_saved_pct":           "1.68",
	"model.fig5_mem_reduction_pct":   "50.38",
	"model.fig6_saved_pct":           "14.4",
	"model.fig7_probe_reduction_pct": "80.3",
}

// modelCounts totals the simulated counts of one pass and derives the
// paper's four headline figures from it.
func (e *evalSweep) modelCounts() map[string]float64 {
	out := make(map[string]float64)
	by := make(map[string]map[string]system.Results) // bench → variant name → result
	for i, h := range e.hashes {
		r, ok := e.res[h]
		if !ok {
			continue
		}
		b := e.specs[i].Bench
		if by[b] == nil {
			by[b] = make(map[string]system.Results)
		}
		by[b][r.Config] = r
		for k, v := range r.Stats {
			f := float64(v)
			switch {
			case k == "noc.messages" || k == "noc.bytes":
				out[k] += f
			case isIndexed(k, "dir", "requests"):
				out["dir.requests"] += f
			case isIndexed(k, "dir", "probes_sent"):
				out["dir.probes_sent"] += f
			case k == "mem.reads" || k == "mem.writes":
				out["mem.accesses"] += f
			case isIndexed(k, "cp", "l2_misses"):
				out["cp.l2_misses"] += f
			case isIndexed(k, "core", "ops") || k == "gpudisp.wave_ops":
				out["prog.handoffs"] += f
			}
		}
	}
	var f4, f5, f6, f7 []float64
	for _, b := range chai.Names() {
		rs, ok := by[b]
		if !ok {
			continue
		}
		base := rs["baseline"]
		for _, v := range []string{"earlyResp", "noWBcleanVic", "llcWB"} {
			if r, ok := rs[v]; ok {
				f4 = append(f4, figures.PercentSaved(base, r))
			}
		}
		if r, ok := rs["llcWB+useL3OnWT"]; ok {
			f5 = append(f5, figures.PercentMemReduction(base, r))
		}
		if r, ok := rs["ownerTracking"]; ok {
			f6 = append(f6, figures.PercentSaved(base, r))
			f7 = append(f7, figures.PercentProbeReduction(base, r))
		}
	}
	out["model.fig4_saved_pct"] = mean(f4)
	out["model.fig5_mem_reduction_pct"] = mean(f5)
	out["model.fig6_saved_pct"] = mean(f6)
	out["model.fig7_probe_reduction_pct"] = mean(f7)
	return out
}

// isIndexed matches "<prefix><digits>.<name>" and "<prefix>.<name>".
func isIndexed(key, prefix, name string) bool {
	scope, field, ok := strings.Cut(key, ".")
	if !ok || field != name || !strings.HasPrefix(scope, prefix) {
		return false
	}
	return strings.Trim(scope[len(prefix):], "0123456789") == ""
}

// layerTimes fills the engine and system layer times (medians per
// execution) and the cache call times of a traced phase.
func layerTimes(l map[string]float64, tr *phase) {
	for _, k := range []string{"engine.queue_wait_ms", "engine.exec_ms", "engine.encode_ms", "system.new_ms", "chai.build_ms", "system.run_ms", "cache.get_us", "cache.put_us"} {
		l[k] = median(tr.by[k])
	}
}
