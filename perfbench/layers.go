package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hscsim/internal/chai"
	"hscsim/internal/engine"
	"hscsim/internal/figures"
	"hscsim/internal/system"
)

// This file holds the instrumentation the benchmark wraps around the
// engine layer: an Exec function and a ResultCache wrapper. Untraced,
// they only time each execution; traced, they record spans and samples.

// submitted remembers, per job hash, when and as which operation the
// benchmark sent a job, so the executor wrapper can measure queue wait
// and parent its spans.
type submitted struct {
	mu sync.Mutex
	m  map[string]submitInfo
}

type submitInfo struct {
	at       time.Time
	op, root uint64
	end      time.Time // when its execution returned (traced phases)
}

func newSubmitted() *submitted { return &submitted{m: make(map[string]submitInfo)} }

func (s *submitted) set(hash string, info submitInfo) {
	s.mu.Lock()
	s.m[hash] = info
	s.mu.Unlock()
}

// done records when hash's execution returned.
func (s *submitted) done(hash string, end time.Time) {
	s.mu.Lock()
	if info, ok := s.m[hash]; ok {
		info.end = end
		s.m[hash] = info
	}
	s.mu.Unlock()
}

func (s *submitted) get(hash string) (submitInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.m[hash]
	return info, ok
}

// execFunc returns the engine.Config.Exec the benchmark installs. It
// records each execution's host time as a unit latency when unit is
// set, and in a traced phase records the queue wait and an engine.exec
// span over tracedExecute.
func execFunc(cur *atomic.Pointer[phase], subs *submitted, unit bool) func(context.Context, engine.Spec) ([]byte, error) {
	return func(ctx context.Context, sp engine.Spec) ([]byte, error) {
		start := time.Now()
		ph := cur.Load()
		if ph.tr == nil {
			b, err := engine.Execute(ctx, sp)
			if unit {
				ph.unit(ms(time.Since(start)))
			}
			return b, err
		}
		tr := ph.tr
		hash := sp.Hash()
		info, known := subs.get(hash)
		if known {
			ph.sample("engine.queue_wait_ms", ms(start.Sub(info.at)))
			tr.record("engine.queue", tr.id(), info.root, info.op, info.at, start)
		}
		id := tr.id()
		b, err := tracedExecute(ctx, sp, ph, id, info.op)
		end := time.Now()
		tr.record("engine.exec", id, info.root, info.op, start, end)
		subs.done(hash, end)
		ph.sample("engine.exec_ms", ms(end.Sub(start)))
		if unit {
			ph.unit(ms(end.Sub(start)))
		}
		return b, err
	}
}

// tracedExecute makes the public calls engine.Execute makes for an
// eval-configuration spec — build the workload, build the system, run
// it, check coherence, encode — with a span around each. The caller
// checks its output bytes against engine.Execute's. Specs with topology
// overrides run through engine.Execute whole.
func tracedExecute(ctx context.Context, sp engine.Spec, ph *phase, parent, op uint64) ([]byte, error) {
	sp = sp.Normalized()
	opts, err := sp.Protocol.Options()
	if err != nil || sp.Config != engine.ConfigEval || sp.Topology != (engine.TopologySpec{}) || sp.Oracle || sp.MaxTicks != 0 {
		return engine.Execute(ctx, sp)
	}
	tr := ph.tr
	step := func(name string, t0 time.Time) time.Time {
		t1 := time.Now()
		tr.record(name, tr.id(), parent, op, t0, t1)
		ph.sample(name+"_ms", ms(t1.Sub(t0)))
		return t1
	}
	t := time.Now()
	w, err := chai.ByName(sp.Bench, chai.Params{Scale: sp.Scale, CPUThreads: sp.Threads, Seed: sp.Seed})
	if err != nil {
		return nil, err
	}
	t = step("chai.build", t)
	cfg := figures.EvalSystemConfig(opts)
	cfg.Interrupt = ctx.Done()
	s := system.New(cfg)
	t = step("system.new", t)
	res, err := s.Run(w)
	if err == nil {
		err = s.CheckCoherence()
	}
	if err != nil {
		return nil, err
	}
	t = step("system.run", t)
	ph.sample("sim.events", float64(s.Engine.Executed()))
	b, err := engine.EncodeResult(res)
	step("engine.encode", t)
	return b, err
}

// timedCache wraps the engine's ResultCache; in a traced phase it
// records each Get and Put as a span and a latency sample.
type timedCache struct {
	engine.ResultCache
	cur  *atomic.Pointer[phase]
	subs *submitted
}

func (c timedCache) Get(key string) ([]byte, bool) {
	ph := c.cur.Load()
	if ph.tr == nil {
		return c.ResultCache.Get(key)
	}
	t0 := time.Now()
	v, ok := c.ResultCache.Get(key)
	c.span(ph, "cache.get", key, t0)
	return v, ok
}

func (c timedCache) Put(key string, val []byte) error {
	ph := c.cur.Load()
	if ph.tr == nil {
		return c.ResultCache.Put(key, val)
	}
	t0 := time.Now()
	err := c.ResultCache.Put(key, val)
	c.span(ph, "cache.put", key, t0)
	return err
}

func (c timedCache) span(ph *phase, name, key string, t0 time.Time) {
	t1 := time.Now()
	info, _ := c.subs.get(key)
	ph.tr.record(name, ph.tr.id(), info.root, info.op, t0, t1)
	ph.sample(name+"_us", float64(t1.Sub(t0).Nanoseconds())/1e3)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
