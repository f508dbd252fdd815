package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hscsim/internal/core"
	"hscsim/internal/protocheck"
	"hscsim/internal/verify"
)

// reachStatelessStates is the reachable state count of the stateless
// abstract model (internal/protocheck); the run fails on any other count.
const reachStatelessStates = 730280

// checkCell is one verify.Run cell: a scenario under a named variant.
type checkCell struct {
	scenario, variant string
	cfg               verify.Config
}

// protocolCheck is the protocol-check workload: each pass runs a fixed
// verify.Run subset on two goroutines, then protocheck.Explore of the
// stateless model with two workers. The work is deterministic, so the
// seed is unused.
type protocolCheck struct {
	cfg  config
	acct *accounting

	cells []checkCell
	first map[string]verify.Result // first pass's result per cell
}

func newProtocolCheck(cfg config, acct *accounting) *protocolCheck {
	return &protocolCheck{cfg: cfg, acct: acct, first: make(map[string]verify.Result)}
}

// checkSubset is the verify subset, longest first so two goroutines
// finish close together: contention on one line, the victim race under
// the baseline and the write-back LLC, and producer-consumer under
// owner tracking.
var checkSubset = [][2]string{
	{"victim-race", "baseline"},
	{"victim-race", "llcWB+useL3OnWT"},
	{"producer-consumer", "ownerTracking"},
	{"single-line-contention", "baseline"},
}

func (p *protocolCheck) prepare() error { return nil }

// setup resolves the subset's scenarios and variants by name and runs a
// small warm-up cell, so the first measured pass does not also pay the
// process's lazy set-up.
func (p *protocolCheck) setup() error {
	subset := checkSubset
	if p.cfg.minimal {
		subset = [][2]string{{"atomic-mix", "sharersTracking"}}
	}
	scenarios := make(map[string]verify.Scenario)
	for _, sc := range verify.Scenarios() {
		scenarios[sc.Name] = sc
	}
	variants := make(map[string]core.Options)
	for _, v := range verify.Variants() {
		variants[v.Named()] = v
	}
	p.cells = p.cells[:0]
	for _, c := range subset {
		sc, ok1 := scenarios[c[0]]
		v, ok2 := variants[c[1]]
		if !ok1 || !ok2 {
			return fmt.Errorf("unknown verify cell %s/%s", c[0], c[1])
		}
		p.cells = append(p.cells, checkCell{c[0], c[1], verify.Config{Opts: v, Scenario: sc}})
	}
	warm := verify.Run(verify.Config{Opts: variants["sharersTracking"], Scenario: scenarios["single-line-contention"]})
	if warm.Violation != nil || warm.Truncated {
		return fmt.Errorf("warm-up cell single-line-contention/sharersTracking did not verify cleanly")
	}
	return nil
}

func (p *protocolCheck) teardown() {}

func (p *protocolCheck) pass(ph *phase) error {
	tr := ph.tr
	op := tr.id()
	root := tr.id()
	t0 := time.Now()

	// The verify subset, pulled by two goroutines.
	results := make([]verify.Result, len(p.cells))
	next := make(chan int, len(p.cells))
	for i := range p.cells {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := time.Now()
				results[i] = verify.Run(p.cells[i].cfg)
				tr.record("verify.run", tr.id(), root, op, s, time.Now())
			}
		}()
	}
	wg.Wait()
	tVerify := time.Now()
	states := 0
	for i, r := range results {
		states += r.States
		p.checkVerify(p.cells[i], r)
	}

	// Explore of the stateless model; each BFS level is a unit.
	last := tVerify
	res, err := protocheck.Explore(protocheck.ModelConfig{Mode: protocheck.ModeStateless}, protocheck.ExploreOpts{
		Workers: 2,
		Progress: func(protocheck.ProgressInfo) {
			now := time.Now()
			ph.unit(ms(now.Sub(last)))
			last = now
		},
	})
	tEnd := time.Now()
	tr.record("reach.explore", tr.id(), root, op, tVerify, tEnd)
	tr.record("op", root, 0, op, t0, tEnd)
	p.checkReach(res, err)

	ph.sample("verify.s", tVerify.Sub(t0).Seconds())
	ph.sample("verify.states", float64(states))
	ph.sample("reach.s", tEnd.Sub(tVerify).Seconds())
	if err == nil {
		ph.sample("reach.states", float64(res.States))
		ph.sample("reach.depth", float64(res.Depth))
		ph.addOps(res.States)
	}
	ph.addOps(states)
	return nil
}

// checkVerify requires a clean, complete exploration whose counts repeat
// the first pass's exactly.
func (p *protocolCheck) checkVerify(c checkCell, r verify.Result) {
	key := c.scenario + "/" + c.variant
	switch {
	case r.Violation != nil:
		p.acct.fail("verify %s: violation: %v", key, r.Violation.Err)
		return
	case r.Truncated:
		p.acct.fail("verify %s: exploration truncated at %d states", key, r.States)
		return
	}
	if f, ok := p.first[key]; !ok {
		p.first[key] = r
	} else if f.States != r.States || f.Paths != r.Paths {
		p.acct.fail("verify %s: %d states / %d paths, first pass had %d / %d", key, r.States, r.Paths, f.States, f.Paths)
		return
	}
	p.acct.ok()
}

func (p *protocolCheck) checkReach(res *protocheck.ReachResult, err error) {
	switch {
	case err != nil:
		p.acct.fail("explore: %v", err)
	case res.Violation != nil:
		p.acct.fail("explore: violation in %s", res.Violation.State)
	case res.States != reachStatelessStates:
		p.acct.fail("explore: %d states, want %d", res.States, reachStatelessStates)
	default:
		p.acct.ok()
	}
}

func (p *protocolCheck) finish() {}

func (p *protocolCheck) report(rep *report, un, tr *phase) {
	vs, rs := sum(un.by["verify.states"]), sum(un.by["reach.states"])
	rep.add("check_wall_s", median(un.passes), "s", fmt.Sprintf("n=%d passes; seed unused", len(un.passes)))
	rep.add("verify_states_per_s", vs/sum(un.by["verify.s"]), "1/s", fmt.Sprintf("%.0f states over %d passes", vs, len(un.passes)))
	rep.add("reach_states_per_s", rs/sum(un.by["reach.s"]), "1/s", fmt.Sprintf("%.0f states over %d passes", rs, len(un.passes)))

	l := rep.layer
	var states, paths int
	keys := make([]string, 0, len(p.first))
	for k := range p.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		states += p.first[k].States
		paths += p.first[k].Paths
		rep.add("verify "+k, float64(p.first[k].States), "states", fmt.Sprintf("%d paths", p.first[k].Paths))
	}
	l["verify.states"] = float64(states)
	l["verify.paths"] = float64(paths)
	if tr == nil {
		return
	}
	l["reach.states"] = median(tr.by["reach.states"])
	l["reach.depth"] = median(tr.by["reach.depth"])
	if s := sum(tr.by["verify.states"]); s > 0 {
		l["verify.ns_per_state"] = sum(tr.by["verify.s"]) * 1e9 / s
	}
	if s := sum(tr.by["reach.states"]); s > 0 {
		l["reach.ns_per_state"] = sum(tr.by["reach.s"]) * 1e9 / s
	}
}
