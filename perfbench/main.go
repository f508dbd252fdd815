// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time inside a single process, checks every output
// the program produces, and prints the metrics BENCHMARK.json names.
//
//	bash perfbench/run.sh --workload eval-sweep --seed 0 --seconds 20 --trace 0
//
// Workloads:
//
//	eval-sweep      cold regeneration of the 60 Fig. 4–7 cells on a fresh
//	                engine (2 workers, empty in-memory cache)
//	fleet-mix       3 loopback fleet nodes serving a seeded closed-loop mix
//	                of cached sweeps, peer-tier reads and fresh jobs
//	protocol-check  a fixed verify.Run subset plus protocheck.Explore of the
//	                stateless model (deterministic; the seed is unused)
//
// With --trace 0 the run is untraced and the last line of standard output
// carries the end-to-end metrics. With --trace 1 the run measures untraced
// for the first half of --seconds and traced for the second half (spans
// around the calls into each layer, the layers' stats registries and a CPU
// profile), and the last line carries the per-layer metrics, including the
// tracing overhead. Earlier lines are a human-readable report that also
// names each workload's metrics as the benchmark's design notes do.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "eval-sweep, fleet-mix or protocol-check")
		seed    = flag.Int64("seed", 0, "workload seed (0 = the paper's inputs)")
		seconds = flag.Float64("seconds", 20, "measured time in seconds")
		trace   = flag.Int("trace", 0, "1 = add a traced half and print the per-layer metrics")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spanDir:  filepath.Join(".bench_build", "spans"),
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// spanDir receives the traced run's spans ("" = keep them in memory only).
	spanDir string
	// minimal shrinks every workload to a smoke-test size.
	minimal bool
	// corrupt, when set, damages each program output before the
	// benchmark checks it, so tests can prove the checks fire.
	corrupt func([]byte) []byte
}

// output returns b as the benchmark's checks see it.
func (c config) output(b []byte) []byte {
	if c.corrupt == nil {
		return b
	}
	return c.corrupt(append([]byte(nil), b...))
}

// workload is one benchmark workload. The harness calls prepare once
// (untimed: inputs and reference outputs), setup several times (timed, the
// last instance is kept), pass repeatedly until the measured time is spent,
// then finish for the post-measurement checks.
type workload interface {
	prepare() error
	setup() error
	teardown()
	// pass runs one pass of the workload's fixed job, records its unit
	// latencies in ph, and counts operations in the run's accounting.
	pass(ph *phase) error
	// report adds the workload's named end-to-end lines (from the
	// untraced phase) and per-layer metrics (from the traced phase).
	report(rep *report, untraced, traced *phase)
	// finish runs the checks that must wait until measuring is over.
	finish()
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

func newWorkload(cfg config, acct *accounting) (workload, error) {
	switch cfg.workload {
	case "eval-sweep":
		return newEvalSweep(cfg, acct), nil
	case "fleet-mix":
		return newFleetMix(cfg, acct), nil
	case "protocol-check":
		return newProtocolCheck(cfg, acct), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want eval-sweep, fleet-mix or protocol-check)", cfg.workload)
}

// run executes one benchmark invocation.
func run(cfg config) (*report, error) {
	acct := &accounting{}
	w, err := newWorkload(cfg, acct)
	if err != nil {
		return nil, err
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", cfg.workload, err)
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	dur := cfg.seconds
	if cfg.trace {
		dur /= 2
	}
	untraced, err := measure(w, nil, dur)
	var traced *phase
	if err == nil && cfg.trace {
		traced, err = measureTraced(w, dur)
	}
	w.teardown()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	w.finish()

	rep := newReport(cfg, acct, median(setups), untraced)
	w.report(rep, untraced, traced)
	if traced != nil {
		rep.addTraced(untraced, traced)
		if cfg.spanDir != "" {
			if err := traced.tr.writeFile(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

// measure runs passes until dur has elapsed (at least one pass).
func measure(w workload, tr *tracer, dur time.Duration) (*phase, error) {
	ph := newPhase(tr)
	start := time.Now()
	for len(ph.passes) == 0 || time.Since(start) < dur {
		before := readRuntime()
		t0 := time.Now()
		if err := w.pass(ph); err != nil {
			return nil, err
		}
		ph.passes = append(ph.passes, time.Since(t0).Seconds())
		after := readRuntime()
		ph.allocMB = append(ph.allocMB, float64(after.allocBytes-before.allocBytes)/1e6)
		ph.mallocs += after.mallocs - before.mallocs
		ph.cpuSec += after.cpuSec - before.cpuSec
		ph.gcSec += after.gcSec - before.gcSec
	}
	return ph, nil
}

// writeJSONLine writes v as one line of JSON.
func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
