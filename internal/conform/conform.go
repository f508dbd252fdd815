// Package conform is the differential conformance harness: it runs
// whole workloads — the 14 CHAI models and random race-free cases —
// under every protocol variant of the paper, with the runtime coherence
// oracle attached, and cross-checks the variants against each other.
//
// The contract it enforces: for the same workload and seed, every
// variant (and every directory organization, monolithic or banked) must
// converge to the identical final memory image and identical
// per-address atomic outcomes. Cycle counts legitimately differ;
// results may not. When a run fails — an oracle violation, a deadlock,
// or an image divergence — the delta-debugging minimizer (minimize.go)
// shrinks the case to a minimal reproducer and converts it into a
// replayable internal/verify checker scenario.
//
// The package also owns the seeded-bug registry (mutate.go), the one
// list of protocol bugs every negative test plants, and the kill matrix
// (killmatrix.go) that runs each of them against every checker.
package conform

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/fsm"
	"hscsim/internal/memdata"
	"hscsim/internal/noc"
	"hscsim/internal/sim"
	"hscsim/internal/system"
	"hscsim/internal/verify"
)

// EvalConfig returns the scaled-down system the conformance campaign
// runs on: small caches so victim and capacity races occur at Scale 1,
// a tick ceiling so seeded deadlocks terminate, and the oracle off (the
// runner switches it on per cell).
func EvalConfig(opts core.Options) system.Config {
	cfg := system.Default()
	cfg.Protocol = opts
	cfg.CorePair.L2SizeBytes = 16 << 10
	cfg.CorePair.L1DSizeBytes = 2 << 10
	cfg.CorePair.L1ISizeBytes = 2 << 10
	cfg.GPU.TCCSizeBytes = 16 << 10
	cfg.GPU.TCPSizeBytes = 2 << 10
	cfg.Geometry.LLCSizeBytes = 64 << 10
	cfg.Geometry.DirEntries = 1 << 10
	cfg.MaxTicks = 200_000_000
	return cfg
}

// Cell is one run of the differential matrix: a protocol variant, a
// directory organization, and optional fault injection.
type Cell struct {
	Opts  core.Options
	Banks int // 0/1 = monolithic
	// GPUWB runs the cell with write-back GPU L2s (gem5 WB_L2), the
	// TCC configuration the paper contrasts with write-through.
	GPUWB bool
	// Mutate seeds a protocol weakening into this cell's interconnect.
	// Only negative tests set it; the oracle and the differential
	// comparison must then catch the cell.
	Mutate noc.Mutator
}

// String names the cell injectively: the paper's variant name, then
// every option the cell sets that Options.Named leaves out.
func (cl Cell) String() string {
	s := cl.Opts.Named()
	if cl.Opts.ReadOnlyElision {
		s += "/readOnlyElision"
	}
	if cl.Opts.KeepDirtySharersOnEvict {
		s += "/keepDirtySharersOnEvict"
	}
	if cl.Opts.DirRepl == core.DirReplFewestSharers {
		s += "/dirRepl=fewestSharers"
	}
	if cl.Opts.LimitedPointers > 0 {
		s += fmt.Sprintf("/limitedPointers=%d", cl.Opts.LimitedPointers)
	}
	if cl.Banks > 1 {
		s = fmt.Sprintf("%s/banks=%d", s, cl.Banks)
	}
	if cl.GPUWB {
		s += "/gpuwb"
	}
	if cl.Mutate != nil {
		s += "/mutated"
	}
	return s
}

// Cells expands variants × bank counts into the standard matrix.
func Cells(variants []core.Options, banks []int) []Cell {
	if len(variants) == 0 {
		variants = verify.Variants()
	}
	if len(banks) == 0 {
		banks = []int{1, 4}
	}
	var out []Cell
	for _, opts := range variants {
		for _, b := range banks {
			out = append(out, Cell{Opts: opts, Banks: b})
		}
	}
	return out
}

// CoverageCells is the cell list of `hscproto -cover`: the standard
// matrix over banks plus cells for the orthogonal options the paper
// variants leave off (write-back GPU L2s, read-only elision, dirty-sharer
// retention), each on the fully optimized tracking variant. The extra
// cells join the differential comparison, so they must agree with the
// reference image too.
func CoverageCells(banks []int) []Cell {
	full := core.Options{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwnerSharers}
	ro, kd := full, full
	ro.ReadOnlyElision = true
	kd.KeepDirtySharersOnEvict = true
	return append(Cells(nil, banks),
		Cell{Opts: full, Banks: 1, GPUWB: true},
		Cell{Opts: ro, Banks: 1},
		Cell{Opts: kd, Banks: 1},
	)
}

// Outcome is what a run must agree on across cells.
type Outcome struct {
	// Image is the final functional-memory image (non-zero words).
	Image map[memdata.Addr]uint64
	// Cycles is informational: cells legitimately disagree on it.
	Cycles uint64
	// OracleChecks counts the oracle's per-delivery sweeps.
	OracleChecks uint64
	// Transitions holds the protocol transitions the run fired, when
	// the caller asked for recording (nil otherwise). Used by
	// cmd/hscproto's static-vs-dynamic coverage cross-check.
	Transitions *fsm.Recorder
}

// runSystem executes one workload on one cell with the oracle on. A
// failed run still reports the cycle it stopped at.
func runSystem(w system.Workload, cl Cell, maxTicks sim.Tick, record bool) (Outcome, error) {
	cfg := EvalConfig(cl.Opts)
	cfg.DirBanks = cl.Banks
	cfg.Oracle = true
	cfg.Mutate = cl.Mutate
	cfg.GPU.WriteBackL2 = cl.GPUWB
	if record {
		cfg.Protocol.Recorder = fsm.NewRecorder()
	}
	if maxTicks > 0 {
		cfg.MaxTicks = maxTicks
	}
	s := system.New(cfg)
	res, err := s.Run(w)
	if err == nil {
		err = s.CheckCoherence()
	}
	if err != nil {
		return Outcome{Cycles: uint64(s.Engine.Now())}, err
	}
	return Outcome{
		Image: s.FuncMem.Snapshot(), Cycles: res.Cycles,
		OracleChecks: s.OracleChecks(), Transitions: cfg.Protocol.Recorder,
	}, nil
}

// Delta is one word on which two cells disagree.
type Delta struct {
	Addr memdata.Addr
	Ref  uint64 // reference cell's value (0 = absent)
	Got  uint64 // diverging cell's value (0 = absent)
}

// diffImages compares two images and returns up to max deltas, sorted
// by address.
func diffImages(ref, got map[memdata.Addr]uint64, max int) []Delta {
	addrs := make(map[memdata.Addr]bool, len(ref)+len(got))
	for a := range ref { //hsclint:deterministic — collected and sorted
		addrs[a] = true
	}
	for a := range got { //hsclint:deterministic — collected and sorted
		addrs[a] = true
	}
	sorted := make([]memdata.Addr, 0, len(addrs))
	for a := range addrs { //hsclint:deterministic — sorted below
		sorted = append(sorted, a)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var out []Delta
	for _, a := range sorted {
		if ref[a] != got[a] {
			out = append(out, Delta{Addr: a, Ref: ref[a], Got: got[a]})
			if len(out) >= max {
				break
			}
		}
	}
	return out
}

// Failure is a failed differential check: either a cell's run errored
// (oracle violation, deadlock, lost transaction) or its outcome
// diverged from the reference cell.
type Failure struct {
	Workload string
	Cell     Cell
	RefCell  Cell
	Err      error   // run error, nil for pure divergences
	Deltas   []Delta // image divergence vs the reference cell
	// AtomicDeltas are the diverging per-address atomic outcomes (the
	// subset of Deltas at known atomic targets; case runs only).
	AtomicDeltas []Delta
}

func (f *Failure) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conform: %s under %s", f.Workload, f.Cell)
	if f.Err != nil {
		fmt.Fprintf(&b, ": %v", f.Err)
		return b.String()
	}
	fmt.Fprintf(&b, ": final memory diverges from %s on %d+ words", f.RefCell, len(f.Deltas))
	for _, d := range f.Deltas {
		fmt.Fprintf(&b, "\n  [%#x] ref=%#x got=%#x", uint64(d.Addr), d.Ref, d.Got)
	}
	if len(f.AtomicDeltas) > 0 {
		fmt.Fprintf(&b, "\n  (%d diverging atomic outcomes)", len(f.AtomicDeltas))
	}
	return b.String()
}

const maxDeltasReported = 8

// DiffWorkload runs one workload build across all cells (the first is
// the reference) and returns the first failure, or nil when every cell
// agrees. The build function is invoked once per cell: workload
// closures carry per-run state and must be rebuilt. Workloads that
// declare UnstableImage still run every cell under the oracle and
// their own Verify, but skip the cross-cell image comparison — their
// output placement is legally scheduling-dependent.
//
// Cells run concurrently on a worker pool (each simulation is
// single-threaded and deterministic; only distinct cells run in
// parallel). The comparison happens in cell order after the pool
// drains, so the reported failure and the returned outcome prefix are
// identical to a sequential sweep.
func DiffWorkload(name string, build func() (system.Workload, error), cells []Cell, maxTicks sim.Tick) (*Failure, []Outcome) {
	return diffWorkload(name, build, cells, maxTicks, 0, false)
}

// cellResult is one cell's run, indexed for deterministic comparison.
type cellResult struct {
	out      Outcome
	err      error
	unstable bool
}

func diffWorkload(name string, build func() (system.Workload, error), cells []Cell,
	maxTicks sim.Tick, workers int, record bool) (*Failure, []Outcome) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	results := make([]cellResult, len(cells))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := &results[i]
				w, err := build()
				if err != nil {
					r.err = err
					continue
				}
				r.unstable = w.UnstableImage
				r.out, r.err = runSystem(w, cells[i], maxTicks, record)
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	// Sequential-order comparison over the completed grid.
	var outcomes []Outcome
	for i, cl := range cells {
		r := results[i]
		if r.err != nil {
			return &Failure{Workload: name, Cell: cl, RefCell: cells[0], Err: r.err}, outcomes
		}
		outcomes = append(outcomes, r.out)
		if i == 0 || r.unstable {
			continue
		}
		if deltas := diffImages(results[0].out.Image, r.out.Image, maxDeltasReported); len(deltas) > 0 {
			return &Failure{Workload: name, Cell: cl, RefCell: cells[0], Deltas: deltas}, outcomes
		}
	}
	return nil, outcomes
}

// DiffCase is DiffWorkload for a conformance case, additionally
// reporting diverging per-address atomic outcomes.
func DiffCase(c Case, cells []Cell, maxTicks sim.Tick) *Failure {
	fail, _ := DiffWorkload(c.Name, func() (system.Workload, error) { return c.Workload(), nil }, cells, maxTicks)
	if fail != nil && len(fail.Deltas) > 0 {
		atomics := make(map[memdata.Addr]bool)
		for _, a := range c.AtomicTargets() {
			atomics[a] = true
		}
		for _, d := range fail.Deltas {
			if atomics[d.Addr] {
				fail.AtomicDeltas = append(fail.AtomicDeltas, d)
			}
		}
	}
	return fail
}

// CampaignConfig scales the CHAI conformance campaign.
type CampaignConfig struct {
	Benchmarks []string // default chai.AllNames()
	Params     chai.Params
	Variants   []core.Options // default verify.Variants()
	Banks      []int          // default {1, 4}
	// Cells, when non-empty, overrides the Variants × Banks matrix with
	// an explicit cell list (hscproto -cover adds GPU write-back and
	// read-only-elision cells this way). Cells[0] is the reference.
	Cells    []Cell
	MaxTicks sim.Tick
	// Workers caps the cell worker pool; 0 means GOMAXPROCS.
	Workers int
	// Record, when non-nil, accumulates every protocol transition the
	// campaign fires, merged across cells in deterministic cell order
	// after each benchmark's pool drains. Feeds hscproto -cover.
	Record *fsm.Recorder
	// Log, when non-nil, receives one line per completed benchmark.
	Log func(format string, args ...interface{})
}

// CampaignResult summarizes one benchmark row of the matrix.
type CampaignResult struct {
	Bench        string
	Cells        int
	OracleChecks uint64 // total across cells
}

// Campaign runs every benchmark across the full cell matrix and
// returns per-benchmark summaries plus every failure (one per
// benchmark at most: the first failing cell).
func Campaign(cfg CampaignConfig) ([]CampaignResult, []*Failure) {
	benches := cfg.Benchmarks
	if len(benches) == 0 {
		benches = chai.AllNames()
	}
	cells := cfg.Cells
	if len(cells) == 0 {
		cells = Cells(cfg.Variants, cfg.Banks)
	}
	var results []CampaignResult
	var failures []*Failure
	for _, bench := range benches {
		bench := bench
		build := func() (system.Workload, error) { return chai.ByName(bench, cfg.Params) }
		fail, outcomes := diffWorkload(bench, build, cells, cfg.MaxTicks, cfg.Workers, cfg.Record != nil)
		res := CampaignResult{Bench: bench, Cells: len(outcomes)}
		for _, o := range outcomes {
			res.OracleChecks += o.OracleChecks
			cfg.Record.Merge(o.Transitions)
		}
		results = append(results, res)
		if fail != nil {
			failures = append(failures, fail)
		}
		if cfg.Log != nil {
			status := "ok"
			if fail != nil {
				status = "FAIL: " + fail.Error()
			}
			cfg.Log("%-6s %3d cells, %12d oracle checks, %s", bench, res.Cells, res.OracleChecks, status)
		}
	}
	return results, failures
}
