package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hscsim/internal/protocheck"
	"hscsim/internal/verify"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// result is the last line a run prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// smoke runs a workload at smoke-test size and parses its result line.
func smoke(t *testing.T, cfg config) result {
	t.Helper()
	cfg.seconds, cfg.minimal = 100*time.Millisecond, true
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	var buf bytes.Buffer
	if err := rep.write(&buf, cfg.trace); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", cfg.workload, err)
	}
	return res
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := loadBenchmark(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "eval-sweep,fleet-mix,protocol-check" {
		t.Errorf("workloads = %s", got)
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics; the program prints %d and %d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if f.EndToEnd[i].Name != m.name || f.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %s %s, program prints %s %s", i, f.EndToEnd[i].Name, f.EndToEnd[i].Unit, m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if f.PerLayer[i].Name != m.name || f.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, program prints %s %s", i, f.PerLayer[i].Name, f.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}

// TestWorkloadsPrintEveryMetric runs every workload untraced and traced
// and requires a correct run that prints each metric with its unit.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	f := loadBenchmark(t)
	for _, w := range f.Workloads {
		for _, traced := range []bool{false, true} {
			res := smoke(t, config{workload: w.Name, seed: 3, trace: traced})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s printed as %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced {
				for _, m := range []string{"setup_s", "pass_s", "alloc_mb", "ok_ratio"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.Name, m, res.Metrics[m].Value)
					}
				}
			}
		}
	}
}

// flipAfter returns a corruption that flips one byte of every output
// after the first n.
func flipAfter(n int64) func([]byte) []byte {
	var calls atomic.Int64
	return func(b []byte) []byte {
		if calls.Add(1) > n && len(b) > 0 {
			b[len(b)/2] ^= 0x01
		}
		return b
	}
}

func TestChecksFireOnCorruptOutput(t *testing.T) {
	// Fleet responses are compared with in-process engine.Execute bytes.
	res := smoke(t, config{workload: "fleet-mix", seed: 1, corrupt: flipAfter(0)})
	if res.Correct || res.Failed == 0 {
		t.Errorf("fleet-mix with corrupted responses: correct=%t failed=%d", res.Correct, res.Failed)
	}
	// Eval cells are compared across passes; the traced pass is the second.
	cells := int64(len(evalCells(1, true)))
	res = smoke(t, config{workload: "eval-sweep", seed: 1, trace: true, corrupt: flipAfter(cells)})
	if res.Correct || res.Failed == 0 {
		t.Errorf("eval-sweep with a corrupted second pass: correct=%t failed=%d", res.Correct, res.Failed)
	}
}

func TestProtocolChecksFire(t *testing.T) {
	acct := &accounting{}
	p := newProtocolCheck(config{}, acct)
	p.checkReach(&protocheck.ReachResult{States: reachStatelessStates - 1}, nil)
	c := checkCell{scenario: "s", variant: "v"}
	p.checkVerify(c, verify.Result{States: 10, Paths: 2})
	p.checkVerify(c, verify.Result{States: 11, Paths: 2})
	p.checkVerify(c, verify.Result{States: 10, Paths: 2, Truncated: true})
	if got := acct.failed.Load(); got != 3 {
		t.Errorf("failed = %d, want 3 (state count, count mismatch, truncation): %v", got, acct.problems)
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"hscsim/internal/sim.(*Engine).step", "main.main"}, "sim"},
		{[]string{"runtime.memmove", "hscsim/internal/noc.(*Interconnect).Send"}, "noc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "hscsim/internal/core.f"}, "runtime_malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "hscsim/internal/memdata.(*Memory).Read"}, "runtime_map"},
		{[]string{"runtime.futex", "runtime.selectgo", "hscsim/internal/prog.(*CPUThread).do"}, "prog_handoff"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime_sched"},
		{[]string{"crypto/internal/fips140/sha256.blockAMD64", "hscsim/internal/engine.Spec.Hash"}, "crypto_sha256"},
		{[]string{"encoding/json.(*decodeState).object"}, "encoding_json"},
		{[]string{"net/http.(*conn).serve"}, "net_http"},
		{[]string{"hscsim/internal/chai.f"}, "other"},
		{[]string{"hscsim/internal/cachearray.(*Array[go.shape.struct { State hscsim/internal/corepair.MOESI }]).Peek"}, "cachearray"},
		{[]string{"memeqbody", "runtime.mapaccess2_faststr", "hscsim/internal/verify.f"}, "runtime_map"},
		{[]string{"gcWriteBarrier", "hscsim/internal/core.f"}, "runtime_gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "net.(*conn).Write"}, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr.record("op", 1, 0, 1, at(0), at(100))
	tr.record("engine.exec", 2, 1, 1, at(10), at(60))
	tr.record("cache.put", 3, 1, 1, at(50), at(70)) // overlaps exec by 10
	tr.record("system.run", 4, 2, 1, at(20), at(50))
	self := tr.selfTimes()
	for name, want := range map[string]time.Duration{
		"op": 40 * time.Millisecond, "engine.exec": 20 * time.Millisecond,
		"cache.put": 20 * time.Millisecond, "system.run": 30 * time.Millisecond,
	} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
}
