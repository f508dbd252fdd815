// Command hscproto is the protocol transition-table toolkit: it
// statically extracts each controller's (state, event) → {next,
// actions} table from the instrumented sources (internal/proto),
// checks it against the hand-written machine specs, renders it, and
// cross-checks the statically declared transitions against the ones
// the dynamic harnesses — the differential conformance matrix, the
// exhaustive model checker, and the HeteroSync lock suite — actually
// fire.
//
// Usage:
//
//	hscproto                      # summary: machines, transitions, static verdict
//	hscproto -table               # print the tables as Markdown
//	hscproto -json                # print the tables as JSON
//	hscproto -write               # regenerate TABLES.md under -dir
//	hscproto -check               # static checks + TABLES.md freshness (CI, per push)
//	hscproto -cover [-quick] [-min 95]   # dynamic coverage cross-check (CI, nightly)
//	hscproto -diff <baseline>     # per-arm deltas vs a committed baseline
//	hscproto -reach [-limit N]    # exhaustive composite-state safety proof (CI, per push)
//	hscproto -live                # liveness: every transient state drains (CI, per push)
//	hscproto -deadlock [-dot]     # message-class dependency graph, fail on cycle (CI, per push)
//	hscproto -stall               # stall/wake liveness lint (CI, per push)
//	hscproto -contain             # observed states ⊆ static reachable set (CI, nightly)
//	hscproto -symcheck            # symmetry reduction exact vs unreduced exploration (CI, nightly)
//	hscproto -killmatrix          # every seeded bug × every checker, as Markdown (CI, nightly)
//
// -diff compares the extracted tables against a baseline file — either
// a TABLES.md rendering or `hscproto -json` output; "-" reads stdin, so
//
//	git show main:TABLES.md | go run ./cmd/hscproto -diff -
//
// prints exactly which transition arms a branch adds, removes or
// reguards. Exits 1 when the tables differ (so it can gate a review),
// 2 on usage errors.
//
// -check exits nonzero when a reachable (state, event) cell has no
// handler and no waiver, when an arm handles a cell the spec declares
// impossible, when the per-variant dir.llc tables diverge from the
// paper's deltas, or when TABLES.md is stale. -cover exits nonzero
// when a transition fires that the static table does not declare
// (an extraction gap), or when fewer than -min percent of the
// non-exempt declared transitions fired — each unfired transition is
// listed by name.
//
// The static safety analyses (internal/protocheck) work on the
// extracted tables and an abstract one-line model of the composite
// system. -reach explores every abstract configuration exhaustively,
// exits nonzero on a safety violation (printing the shortest
// counterexample trace) or on an arm cross-check mismatch against the
// extracted tables. -live proves liveness on the same graph: under
// weak fairness every transient state must drain to quiescence via
// progress moves; a starved state is reported as a shortest lasso
// (stem + cycle) and exits nonzero. -reach and -live combine, sharing
// one exploration. The explorations run the four configurations
// concurrently, expand each BFS frontier across -j workers (default
// GOMAXPROCS), canonicalize states under permutation of the two
// symmetric CPU agents (-nosym disables the reduction for
// cross-checking), and report per-level progress on stderr.
// -deadlock builds the message-class wait-for graph
// from the tables and exits nonzero on a cycle; -dot prints the graph
// in Graphviz DOT form instead of the report. -stall lints stalling
// arms for a matching wake path. -contain runs a contended concrete
// workload per variant under the containment observer and exits
// nonzero if any observed quiescent composite state escapes the
// statically verified reachable set.
//
// -killmatrix runs every entry of the seeded-bug registry
// (conform.Mutants) against every checker that accepts its layer — the
// verify sweep, the quick CHAI campaign, -contain, -reach and -live —
// and prints the mutant × checker table committed as KILLMATRIX.md
// (per-column wall times go to stderr). It exits nonzero when some
// mutant escapes every checker.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hscsim/internal/cachearray"
	"hscsim/internal/chai"
	"hscsim/internal/conform"
	"hscsim/internal/core"
	"hscsim/internal/fsm"
	"hscsim/internal/heterosync"
	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/proto"
	"hscsim/internal/protocheck"
	"hscsim/internal/system"
	"hscsim/internal/verify"
)

func main() {
	dir := flag.String("dir", ".", "module root to extract the controller sources from")
	table := flag.Bool("table", false, "print the transition tables as Markdown")
	jsonOut := flag.Bool("json", false, "print the transition tables as JSON")
	write := flag.Bool("write", false, "regenerate TABLES.md under -dir")
	check := flag.Bool("check", false, "static checks plus TABLES.md freshness; nonzero exit on failure")
	cover := flag.Bool("cover", false, "dynamic coverage cross-check; nonzero exit on gaps")
	diffBase := flag.String("diff", "", "baseline file (TABLES.md or -json output; \"-\" = stdin) to diff the tables against")
	quick := flag.Bool("quick", false, "with -cover: reduced matrix (per-push CI budget)")
	minPct := flag.Float64("min", 95, "with -cover: minimum percentage of non-exempt transitions fired")
	reach := flag.Bool("reach", false, "exhaustive composite-state reachability + safety check; nonzero exit on violation")
	live := flag.Bool("live", false, "liveness: every transient state must drain to quiescence; nonzero exit on a lasso")
	limit := flag.Int("limit", 0, "with -reach/-live: state budget per configuration (0 = default)")
	jobs := flag.Int("j", 0, "frontier-expansion workers per configuration (0 = GOMAXPROCS)")
	nosym := flag.Bool("nosym", false, "disable the agent-permutation symmetry reduction")
	deadlock := flag.Bool("deadlock", false, "message-class deadlock-freedom check; nonzero exit on cycle")
	dot := flag.Bool("dot", false, "with -deadlock: print the wait-for graph as Graphviz DOT")
	stall := flag.Bool("stall", false, "stall/wake liveness lint; nonzero exit on findings")
	contain := flag.Bool("contain", false, "dynamic containment: observed states must be statically reachable")
	symcheck := flag.Bool("symcheck", false, "prove the symmetry reduction exact against an unreduced exploration")
	killmatrix := flag.Bool("killmatrix", false, "run every seeded bug against every checker and print the kill matrix")
	flag.Parse()

	tbl, err := proto.Extract(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hscproto: %v\n", err)
		os.Exit(1)
	}

	tablesPath := filepath.Join(*dir, "TABLES.md")
	switch {
	case *table:
		fmt.Print(tbl.Markdown())
	case *jsonOut:
		b, err := tbl.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hscproto: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(b, '\n'))
	case *write:
		if err := os.WriteFile(tablesPath, []byte(tbl.Markdown()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hscproto: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", tablesPath)
	case *check:
		os.Exit(runCheck(tbl, tablesPath))
	case *cover:
		os.Exit(runCover(tbl, *quick, *minPct))
	case *diffBase != "":
		os.Exit(runDiff(tbl, *diffBase))
	case *reach, *live:
		opts := protocheck.ExploreOpts{
			Limit: *limit, Workers: *jobs, NoSym: *nosym,
			Progress: progressPrinter(),
		}
		os.Exit(runReach(tbl, *reach, *live, opts))
	case *deadlock:
		os.Exit(runDeadlock(tbl, *dot))
	case *stall:
		os.Exit(runStall(tbl))
	case *contain:
		os.Exit(runContain(protocheck.ExploreOpts{Limit: *limit, Workers: *jobs, NoSym: *nosym}))
	case *symcheck:
		os.Exit(runSymCheck(protocheck.ExploreOpts{Limit: *limit, Workers: *jobs, Progress: progressPrinter()}))
	case *killmatrix:
		os.Exit(runKillMatrix(*jobs))
	default:
		summarize(tbl)
	}
}

// summarize prints the per-machine transition counts and the static
// verdict.
func summarize(tbl *proto.Table) {
	total := 0
	for _, m := range tbl.Machines {
		fmt.Printf("%-14s %3d transitions\n", m.Name, len(m.Entries))
		total += len(m.Entries)
	}
	fmt.Printf("%-14s %3d transitions\n", "total", total)
	if problems := proto.CheckStatic(tbl); len(problems) > 0 {
		fmt.Printf("static check: %d problem(s); run -check for details\n", len(problems))
	} else {
		fmt.Println("static check: ok")
	}
}

// runCheck is the per-push CI gate: the extracted table must satisfy
// the machine specs and TABLES.md must be regenerated.
func runCheck(tbl *proto.Table, tablesPath string) int {
	failed := 0
	for _, p := range proto.CheckStatic(tbl) {
		fmt.Fprintf(os.Stderr, "hscproto: %s\n", p)
		failed++
	}
	want := tbl.Markdown()
	got, err := os.ReadFile(tablesPath)
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "hscproto: %s missing (regenerate with hscproto -write): %v\n", tablesPath, err)
		failed++
	case string(got) != want:
		fmt.Fprintf(os.Stderr, "hscproto: %s is stale; regenerate with hscproto -write\n", tablesPath)
		failed++
	}
	if failed > 0 {
		return 1
	}
	fmt.Println("static check ok; TABLES.md up to date")
	return 0
}

// runDiff compares the extracted tables against a committed baseline
// and prints the per-arm deltas.
func runDiff(tbl *proto.Table, path string) int {
	var (
		raw []byte
		err error
	)
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hscproto: baseline: %v\n", err)
		return 2
	}
	baseline, err := proto.ParseBaseline(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hscproto: %v\n", err)
		return 2
	}
	deltas := proto.DiffArms(baseline, tbl.Arms())
	fmt.Print(proto.FormatDiff(deltas))
	if len(deltas) > 0 {
		return 1
	}
	return 0
}

// progressPrinter returns a callback that reports per-level BFS
// progress on stderr. The four configurations explore concurrently, so
// the printer serializes writes and throttles each configuration to
// roughly one line per second (the final level always prints).
func progressPrinter() func(protocheck.ProgressInfo) {
	var mu sync.Mutex
	last := make(map[protocheck.ModelConfig]time.Time)
	return func(p protocheck.ProgressInfo) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if p.Frontier != 0 && now.Sub(last[p.Config]) < time.Second {
			return
		}
		last[p.Config] = now
		fmt.Fprintf(os.Stderr, "  [%s] depth %3d: %8d states, %8.0f st/s, frontier %d\n",
			p.Config, p.Depth, p.States, p.Rate, p.Frontier)
	}
}

// runReach is the per-push static safety and liveness gate: explore
// every abstract configuration exhaustively (concurrently, with
// frontier-parallel BFS), check the safety invariants on every
// reachable composite state, cross-check the animated arms against the
// extracted tables both ways (-reach), and prove every transient state
// drains to quiescence (-live). Both flags share the one exploration.
func runReach(tbl *proto.Table, doReach, doLive bool, opts protocheck.ExploreOpts) int {
	start := time.Now()
	findings, results, err := protocheck.CheckReach(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hscproto: %v\n", err)
		return 1
	}
	fmt.Printf("composite-state reachability, %d abstract configurations:\n", len(results))
	fmt.Print(protocheck.Summarize(results))
	if doReach {
		fmt.Println("variant coverage:")
		for _, opts := range verify.Variants() {
			fmt.Printf("  %-34s → %s\n", opts.Named(), protocheck.ConfigFor(opts))
		}
		findings = append(findings, protocheck.CrossCheckArms(tbl, results)...)
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "hscproto: %s\n", f)
	}
	if len(findings) > 0 {
		return 1
	}
	if doReach {
		fmt.Printf("every reachable state satisfies SWMR, single-owner, no-stale-dirty and inclusivity; arm cross-check clean (%v)\n",
			time.Since(start).Round(time.Millisecond))
	}
	if doLive {
		liveFindings, lives, err := protocheck.CheckLive(results)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hscproto: %v\n", err)
			return 1
		}
		fmt.Println("liveness (drain-reachability under weak fairness):")
		fmt.Print(protocheck.SummarizeLive(lives))
		for _, f := range liveFindings {
			fmt.Fprintf(os.Stderr, "hscproto: %s\n", f)
		}
		if len(liveFindings) > 0 {
			return 1
		}
		fmt.Printf("every transient state drains to quiescence under weak fairness (%v total)\n",
			time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// runDeadlock builds the message-class wait-for graph from the tables
// and fails on any cycle. -dot swaps the report for Graphviz input.
func runDeadlock(tbl *proto.Table, dot bool) int {
	findings, graph := protocheck.CheckDeadlock(tbl)
	if dot {
		fmt.Print(graph.DOT())
	} else {
		fmt.Print(graph.Report())
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "hscproto: %s\n", f)
	}
	if len(findings) > 0 {
		return 1
	}
	if !dot {
		fmt.Println("message-class graph is acyclic: no protocol-level deadlock")
	}
	return 0
}

// runStall lints every stalling arm for a matching wake path.
func runStall(tbl *proto.Table) int {
	findings := protocheck.CheckStall(tbl)
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "hscproto: %s\n", f)
	}
	if len(findings) > 0 {
		return 1
	}
	fmt.Println("stall/wake lint clean: every stalling arm has a wake path")
	return 0
}

// runSymCheck is the nightly symmetry-reduction guard: per
// configuration (sequentially — the unreduced exploration roughly
// doubles the memory footprint), explore reduced and unreduced and
// check the canonical image of the unreduced set is exactly the
// reduced set.
func runSymCheck(opts protocheck.ExploreOpts) int {
	start := time.Now()
	failed := 0
	for _, cfg := range protocheck.Configs() {
		findings, red, unred, err := protocheck.CrossCheckSymmetry(cfg, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hscproto: %v\n", err)
			return 1
		}
		fmt.Printf("  %-26s reduced %8d states, unreduced %8d (%.3f×)\n",
			cfg, red.States, unred.States, float64(unred.States)/float64(red.States))
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "hscproto: %s\n", f)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	fmt.Printf("symmetry reduction is exact for every configuration (%v)\n",
		time.Since(start).Round(time.Millisecond))
	return 0
}

// runContain is the nightly dynamic-containment gate: run a contended
// workload on the concrete simulator for every paper variant and check
// that each observed quiescent composite state is in the statically
// verified reachable set of the variant's abstract configuration.
func runContain(eopts protocheck.ExploreOpts) int {
	start := time.Now()
	explored := make(map[protocheck.ModelConfig]*protocheck.ReachResult)
	failed := 0
	for _, opts := range verify.Variants() {
		mcfg := protocheck.ConfigFor(opts)
		r, ok := explored[mcfg]
		if !ok {
			var err error
			r, err = protocheck.Explore(mcfg, eopts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hscproto: %v\n", err)
				return 1
			}
			if r.Violation != nil {
				fmt.Fprintf(os.Stderr, "hscproto: %s\n", r.Violation)
				return 1
			}
			explored[mcfg] = r
		}
		for _, seed := range []int64{7, 13} {
			sys := system.New(protocheck.ObserverConfig(opts))
			obs, err := protocheck.NewObserver(sys)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hscproto: %v\n", err)
				return 1
			}
			if _, err := sys.Run(protocheck.ContendedWorkload(seed)); err != nil {
				fmt.Fprintf(os.Stderr, "hscproto: %s seed %d: %v\n", opts.Named(), seed, err)
				failed++
				continue
			}
			findings := obs.Contained(r)
			for _, f := range findings {
				fmt.Fprintf(os.Stderr, "hscproto: %s seed %d: %s\n", opts.Named(), seed, f)
				failed++
			}
			states, samples, skipped := obs.Stats()
			fmt.Printf("  %-34s seed %2d: %3d observed states (%d samples, %d busy skips) ⊆ %d stable reachable [%s]\n",
				opts.Named(), seed, states, samples, skipped, len(r.Stable), mcfg)
		}
	}
	if failed > 0 {
		return 1
	}
	fmt.Printf("dynamic containment holds for every variant (%v)\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// runKillMatrix runs the seeded-bug registry against every checker and
// prints the matrix; it fails when a mutant escapes every checker.
func runKillMatrix(workers int) int {
	start := time.Now()
	last := start
	km := conform.RunKillMatrix(workers, func(mutant, checker string, s conform.KillScore) {
		now := time.Now()
		fmt.Fprintf(os.Stderr, "  %-22s %-8s %3d/%-3d killed in %v\n",
			mutant, checker, s.Killed, s.Run, now.Sub(last).Round(time.Millisecond))
		last = now
	})
	fmt.Print(km.Markdown())
	failed := 0
	for i, m := range km.Mutants {
		killed := false
		for _, s := range km.Scores[i] {
			killed = killed || s.Killed > 0
		}
		if !killed {
			fmt.Fprintf(os.Stderr, "hscproto: mutant %s escapes every checker\n", m.Name)
			failed++
		}
	}
	fmt.Fprintf(os.Stderr, "kill matrix: %d mutants in %v\n", len(km.Mutants), time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		return 1
	}
	return 0
}

// runCover drives every dynamic harness with transition recording on,
// then cross-checks the union of fired transitions against the static
// table.
func runCover(tbl *proto.Table, quick bool, minPct float64) int {
	rec := fsm.NewRecorder()
	start := time.Now()
	failed := 0

	fullOpts := core.Options{
		EarlyDirtyResponse: true, LLCWriteBack: true,
		Tracking: core.TrackOwnerSharers,
	}

	// 1. The differential conformance matrix: the six paper variants ×
	// directory bankings, plus coverage cells for the orthogonal options.
	benches := chai.AllNames()
	banks := []int{1, 4}
	if quick {
		benches = chai.Names()
		banks = []int{1}
	}
	roOpts := fullOpts
	roOpts.ReadOnlyElision = true
	kdOpts := fullOpts
	kdOpts.KeepDirtySharersOnEvict = true
	cells := conform.CoverageCells(banks)
	fmt.Printf("conformance matrix: %d benchmarks x %d cells\n", len(benches), len(cells))
	_, failures := conform.Campaign(conform.CampaignConfig{
		Benchmarks: benches,
		Params:     chai.Params{Scale: 1, CPUThreads: 4},
		Cells:      cells,
		Record:     rec,
		Log: func(format string, args ...interface{}) {
			fmt.Printf(format+"\n", args...)
		},
	})
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "FAIL %v\n", f)
		failed++
	}

	// 2. The model checker: every scenario × variant, exploration
	// bounded (coverage needs transitions to fire, not exhaustiveness —
	// the full search runs in the verify test suite).
	maxStates := 20000
	if quick {
		maxStates = 4000
	}
	scenarios := append(verify.Scenarios(), verify.DMAScenarios()...)
	scenarios = append(scenarios, coverageScenarios()...)
	fmt.Printf("model checker: %d scenarios x %d variants, <=%d states each\n",
		len(scenarios), len(verify.Variants()), maxStates)
	for _, opts := range verify.Variants() {
		opts.Recorder = rec
		for _, sc := range scenarios {
			res := verify.Run(verify.Config{Opts: opts, Scenario: sc, MaxStates: maxStates})
			if res.Violation != nil {
				fmt.Fprintf(os.Stderr, "FAIL checker %s under %s: %v\n", sc.Name, opts.Named(), res.Violation)
				failed++
			}
		}
	}

	// 3. The HeteroSync lock suite: fine-grained atomics under the
	// baseline, the fully optimized tracking variant, and the latter
	// with write-back GPU L2s (device-scope atomics on dirty TCC lines).
	hsCells := []struct {
		opts  core.Options
		gpuWB bool
	}{{core.Options{}, false}, {fullOpts, false}, {fullOpts, true}}
	fmt.Printf("heterosync: %d benchmarks x %d variants\n", len(heterosync.Names()), len(hsCells))
	for _, name := range heterosync.Names() {
		for _, hc := range hsCells {
			w, err := heterosync.ByName(name, heterosync.DefaultParams())
			if err == nil {
				err = runRecorded(w, hc.opts, rec, 0, hc.gpuWB)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "FAIL heterosync %s under %s: %v\n", name, hc.opts.Named(), err)
				failed++
			}
		}
	}

	// 4. Targeted directory-pressure runs: a 16-entry directory forces
	// dirty-entry evictions (BackInval) and victims racing replaced
	// entries — transitions a right-sized directory almost never fires.
	// trackONoWB drops LLCWriteBack so pulled-back dirty data takes the
	// write-through BackInval arm.
	trackO := core.Options{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwner}
	trackONoWB := core.Options{EarlyDirtyResponse: true, Tracking: core.TrackOwner}
	for _, opts := range []core.Options{trackO, trackONoWB, fullOpts, kdOpts} {
		for _, bench := range []string{"bs", "hsto", "tq"} {
			w, err := chai.ByName(bench, chai.Params{Scale: 1, CPUThreads: 4})
			if err == nil {
				err = runRecorded(w, opts, rec, 16, false)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "FAIL dir-pressure %s under %s: %v\n", bench, conform.Cell{Opts: opts}, err)
				failed++
			}
		}
	}

	// 5. The coverage workload: GPU barriers, every atomic-scope ×
	// TCC-state pairing, and DMA + instruction fetches over declared
	// read-only ranges. Run write-through under read-only elision (the
	// dir.ro machine) and write-back for the dirty-TCC atomic arms; a
	// UseL3OnWT-without-LLCWriteBack run exercises the write-through LLC
	// insert on TCC write-throughs.
	useL3 := core.Options{UseL3OnWT: true}
	covRuns := []struct {
		name  string
		opts  core.Options
		gpuWB bool
	}{
		{"covmix/ro+wt", roOpts, false},
		{"covmix/full+gpuwb", fullOpts, true},
		{"covmix/useL3OnWT", useL3, false},
	}
	fmt.Printf("coverage workload: %d runs\n", len(covRuns))
	for _, cr := range covRuns {
		if err := runRecorded(coverageWorkload(), cr.opts, rec, 0, cr.gpuWB); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", cr.name, err)
			failed++
		}
	}

	fmt.Printf("harnesses done in %v; %d distinct transitions fired\n\n",
		time.Since(start).Round(time.Millisecond), rec.Len())

	cov := proto.CrossCheck(tbl, rec)
	fmt.Print(proto.Report(cov))
	percent, problems := proto.Summarize(cov, minPct)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "hscproto: %s\n", p)
		failed++
	}
	fmt.Printf("\ncoverage: %.1f%% of non-exempt declared transitions fired (bar: %.0f%%)\n", percent, minPct)
	if failed > 0 {
		return 1
	}
	return 0
}

// runRecorded executes one workload on the conformance-scale system
// with the oracle attached, merging its fired transitions into rec.
func runRecorded(w system.Workload, opts core.Options, rec *fsm.Recorder, dirEntries int, gpuWB bool) error {
	cfg := conform.EvalConfig(opts)
	cfg.Oracle = true
	cfg.GPU.WriteBackL2 = gpuWB
	cfg.Protocol.Recorder = fsm.NewRecorder()
	if dirEntries > 0 {
		cfg.Geometry.DirEntries = dirEntries
		if cfg.Geometry.DirAssoc > dirEntries/4 {
			cfg.Geometry.DirAssoc = dirEntries / 4
		}
	}
	s := system.New(cfg)
	if _, err := s.Run(w); err != nil {
		return err
	}
	if err := s.CheckCoherence(); err != nil {
		return err
	}
	rec.Merge(cfg.Protocol.Recorder)
	return nil
}

// coverageScenarios are model-checker scenarios aimed at specific
// declared-but-rare transitions: instruction fetches (RdBlkS) against
// shared and owned lines, foreign requests (GPU atomic, DMA) against a
// two-sharer line, and a store replaying against its own victim buffer.
// The checker explores every interleaving, so each scenario fires its
// target in at least one execution.
func coverageScenarios() []verify.Scenario {
	const a, b = cachearray.LineAddr(0x10), cachearray.LineAddr(0x12) // same L2 set
	ld := func(l cachearray.LineAddr) verify.AgentOp { return verify.AgentOp{Kind: verify.Load, Line: l} }
	st := func(l cachearray.LineAddr) verify.AgentOp { return verify.AgentOp{Kind: verify.Store, Line: l} }
	ifetch := func(l cachearray.LineAddr) verify.AgentOp { return verify.AgentOp{Kind: verify.IFetch, Line: l} }
	at := func(l cachearray.LineAddr) verify.AgentOp { return verify.AgentOp{Kind: verify.Atomic, Line: l} }
	return []verify.Scenario{
		{ // (I,RdBlkS)->S then (S,RdBlkS)->S in the sequential orders
			Name:  "cov-ifetch-shared",
			Lines: []cachearray.LineAddr{a},
			CPU0:  []verify.AgentOp{ifetch(a)},
			CPU1:  []verify.AgentOp{ifetch(a)},
		},
		{ // dirty owner probed by an ifetch: (O,RdBlkS)->O (fn. h)
			Name:  "cov-ifetch-owned-dirty",
			Lines: []cachearray.LineAddr{a},
			CPU0:  []verify.AgentOp{st(a)},
			CPU1:  []verify.AgentOp{ifetch(a)},
		},
		{ // clean Exclusive owner probed by an ifetch: (O,RdBlkS)->S
			Name:  "cov-ifetch-owned-clean",
			Lines: []cachearray.LineAddr{a},
			CPU0:  []verify.AgentOp{ld(a)},
			CPU1:  []verify.AgentOp{ifetch(a)},
		},
		{ // two sharers, then a system-scope atomic: (S,Atomic)->I
			Name:  "cov-shared-atomic",
			Lines: []cachearray.LineAddr{a},
			CPU0:  []verify.AgentOp{ld(a)},
			CPU1:  []verify.AgentOp{ld(a)},
			GPU:   []verify.AgentOp{at(a)},
		},
		{ // two sharers, then DMA: (S,DMARd)->S and (S,DMAWr)->I
			Name:  "cov-shared-dma",
			Lines: []cachearray.LineAddr{a},
			CPU0:  []verify.AgentOp{ld(a)},
			CPU1:  []verify.AgentOp{ld(a)},
			DMA:   []verify.AgentOp{ld(a), st(a)},
		},
		{ // a store hitting its own victim buffer: (WB,Store)->WB
			Name:  "cov-wb-store",
			Lines: []cachearray.LineAddr{a, b},
			CPU0:  []verify.AgentOp{st(a), st(b), st(a)},
		},
	}
}

// Coverage-workload address map. The per-wave counters live on private
// lines so every final value is schedule-independent; the read-only
// input and the CPU code regions are declared in Workload.ReadOnly so
// a read-only-elision run drives the dir.ro machine with DMA reads and
// instruction fetches.
const (
	covBase    = memdata.Addr(0x1000_0000)
	covROBase  = memdata.Addr(0x2000_0000)
	covROBytes = 1024
	covWaves   = 4
)

// coverageWorkload pairs every atomic scope with every reachable TCC
// line state (fresh, valid, dirty), joins a workgroup barrier, and
// streams a declared read-only range through the DMA engine and the
// CPU L2s.
func coverageWorkload() system.Workload {
	wl := func(w, k int) memdata.Addr { return covBase + memdata.Addr(1+w*5+k)*64 }

	gpuWork := func(wv *prog.Wave) {
		wv.Barrier()
		w := wv.Global
		wv.AtomicSysAdd(covBase, 1) // shared contended counter
		_ = wv.Load(wl(w, 0))       // valid, then system-scope atomic
		wv.AtomicSysAdd(wl(w, 0), 4)
		wv.Store(wl(w, 1), uint64(w)+1) // dirty (WB L2), then system-scope
		wv.AtomicSysAdd(wl(w, 1), 10)
		wv.Store(wl(w, 2), uint64(w)+1) // dirty, then device-scope
		wv.AtomicDevAdd(wl(w, 2), 10)
		wv.AtomicDevAdd(wl(w, 3), 5) // fresh, device-scope
		_ = wv.Load(wl(w, 4))        // valid, then device-scope
		wv.AtomicDevAdd(wl(w, 4), 7)
		wv.Barrier()
	}
	kernel := &prog.Kernel{
		Name: "covmix", Workgroups: 2, WavesPerWG: covWaves / 2,
		CodeAddr: 0xE000_0000, Fn: gpuWork,
	}

	threads := make([]func(*prog.CPUThread), 2)
	threads[0] = func(t *prog.CPUThread) {
		h := t.Launch(kernel)
		t.DMAOut(covROBase, covROBytes) // DMA read of a read-only range
		for i := 0; i < covROBytes/8; i += 8 {
			_ = t.Load(covROBase + memdata.Addr(i)*8)
		}
		t.Wait(h)
	}
	threads[1] = func(t *prog.CPUThread) {
		for i := 0; i < covROBytes/8; i += 4 {
			_ = t.Load(covROBase + memdata.Addr(i)*8)
		}
	}

	return system.Workload{
		Name: "covmix",
		Setup: func(fm *memdata.Memory) {
			fm.Write(covBase, 100)
			for w := 0; w < covWaves; w++ {
				fm.Write(wl(w, 0), 3)
				fm.Write(wl(w, 4), 50)
			}
			for i := 0; i < covROBytes/8; i++ {
				fm.Write(covROBase+memdata.Addr(i)*8, uint64(i)*3+7)
			}
		},
		Threads: threads,
		ReadOnly: [][2]memdata.Addr{
			{covROBase, covROBase + covROBytes},
			// The CPU cores' instruction-fetch regions (disjoint per
			// core, 64 KiB apart starting at 0xF000_0000) — fetched
			// RdBlkS, never written.
			{0xF000_0000, 0xF000_0000 + 8*0x10000},
		},
		Verify: func(fm *memdata.Memory) error {
			if got := fm.Read(covBase); got != 100+covWaves {
				return fmt.Errorf("covmix: shared counter = %d, want %d", got, 100+covWaves)
			}
			for w := 0; w < covWaves; w++ {
				want := []uint64{7, uint64(w) + 11, uint64(w) + 11, 5, 57}
				for k, wv := range want {
					if got := fm.Read(wl(w, k)); got != wv {
						return fmt.Errorf("covmix: wave %d counter %d = %d, want %d", w, k, got, wv)
					}
				}
			}
			for i := 0; i < covROBytes/8; i++ {
				if got := fm.Read(covROBase + memdata.Addr(i)*8); got != uint64(i)*3+7 {
					return fmt.Errorf("covmix: read-only word %d clobbered (= %d)", i, got)
				}
			}
			return nil
		},
	}
}
