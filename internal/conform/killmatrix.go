package conform

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/memdata"
	"hscsim/internal/protocheck"
	"hscsim/internal/system"
	"hscsim/internal/verify"
)

// The kill matrix runs every registry entry against every checker that
// accepts its layer and records which cells caught it. It is the data
// behind deleting a checker: one that never kills anything another
// checker misses is dominated, and a mutant's sole killer must stay.

// killCampaign is the conform column's campaign, and TestQuickCampaign's:
// three benchmarks spanning the sharing patterns under every variant and
// directory organization, with a tick budget of ten times the slowest
// healthy run (hsti, ~200 k cycles), so a wedged cell ends in well
// under a second instead of minutes at EvalConfig's ceiling.
var killCampaign = CampaignConfig{
	Benchmarks: []string{"bs", "tq", "hsti"},
	Params:     chai.Params{Scale: 1, CPUThreads: 4, Seed: 1},
	Banks:      []int{1, 4},
	MaxTicks:   2_000_000,
}

// KillScore is one mutant × checker cell of the matrix.
type KillScore struct {
	Applies bool // the checker accepts the mutant's layer
	Killed  int  // cells that caught the mutant
	Run     int  // cells run
	// Min is the smallest states explored or simulated cycles run
	// before a cell caught the mutant (0 when none did).
	Min uint64
}

// KillColumn describes one checker of the matrix.
type KillColumn struct {
	Name string
	Unit string // what Min counts: "states" or "cycles"
	Doc  string // what the checker's cells are
}

// KillMatrix is the result: one row per registry entry, one column per
// checker.
type KillMatrix struct {
	Mutants []Mutant
	Columns []KillColumn
	Scores  [][]KillScore // [mutant][column]
}

// killCell is one cell's outcome.
type killCell struct {
	killed bool
	n      uint64 // states or cycles at the kill
}

// killChecker is one column: the cells it runs for a mutant of its layer.
type killChecker struct {
	KillColumn
	layer  Layer
	cells  func(Mutant) []func() killCell
	serial bool // cells already use every worker
}

// RunKillMatrix runs every registry entry against every checker.
// workers caps the pool running fabric cells (0 = GOMAXPROCS); the
// model columns hand the same count to protocheck.Explore. progress,
// when non-nil, is called after each mutant × checker cell completes,
// in matrix order.
func RunKillMatrix(workers int, progress func(mutant, checker string, s KillScore)) KillMatrix {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	graphs := &bugGraphs{workers: workers, m: make(map[protocheck.ModelConfig]*protocheck.ReachResult)}
	checkers := []killChecker{
		verifyChecker(),
		campaignChecker(),
		containChecker(workers),
		reachChecker(graphs),
		liveChecker(graphs),
	}
	km := KillMatrix{Mutants: Mutants()}
	for _, c := range checkers {
		km.Columns = append(km.Columns, c.KillColumn)
	}
	for _, m := range km.Mutants {
		row := make([]KillScore, len(checkers))
		for j, c := range checkers {
			if c.layer != m.Layer {
				continue
			}
			pool := workers
			if c.serial {
				pool = 1
			}
			row[j] = score(runCells(c.cells(m), pool))
			if progress != nil {
				progress(m.Name, c.Name, row[j])
			}
		}
		km.Scores = append(km.Scores, row)
	}
	return km
}

// runCells runs independent cells on a worker pool; results keep cell
// order, so the matrix does not depend on scheduling.
func runCells(cells []func() killCell, workers int) []killCell {
	out := make([]killCell, len(cells))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers && w < len(cells); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = cells[i]()
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

func score(cells []killCell) KillScore {
	s := KillScore{Applies: true, Run: len(cells)}
	for _, c := range cells {
		if !c.killed {
			continue
		}
		if s.Killed == 0 || c.n < s.Min {
			s.Min = c.n
		}
		s.Killed++
	}
	return s
}

// verifyChecker is the exhaustive model checker over the standard and
// DMA sweep scenarios under every paper variant.
func verifyChecker() killChecker {
	scenarios := append(verify.Scenarios(), verify.DMAScenarios()...)
	return killChecker{
		KillColumn: KillColumn{Name: "verify", Unit: "states",
			Doc: fmt.Sprintf("`verify.Run`, unordered delivery: %d paper variants × %d sweep scenarios",
				len(verify.Variants()), len(scenarios))},
		layer: Fabric,
		cells: func(m Mutant) []func() killCell {
			var cells []func() killCell
			for _, opts := range verify.Variants() {
				for _, sc := range scenarios {
					cfg := verify.Config{Opts: opts, Scenario: sc, Mutate: m.Mutate}
					cells = append(cells, func() killCell {
						res := verify.Run(cfg)
						return killCell{killed: res.Violation != nil, n: uint64(res.States)}
					})
				}
			}
			return cells
		},
	}
}

// campaignChecker is the CHAI differential campaign with the oracle on:
// a cell catches the mutant when its run fails (oracle violation,
// deadlock, tick budget, workload verification) or its final image
// differs from the unmutated reference.
func campaignChecker() killChecker {
	cc := killCampaign
	cells := Cells(cc.Variants, cc.Banks)
	refs := campaignRefs(cc, cells[0])
	return killChecker{
		KillColumn: KillColumn{Name: "conform", Unit: "cycles",
			Doc: fmt.Sprintf("CHAI campaign, oracle on: %s × %d cells, ≤ %d ticks each",
				strings.Join(cc.Benchmarks, "/"), len(cells), cc.MaxTicks)},
		layer: Fabric,
		cells: func(m Mutant) []func() killCell {
			var out []func() killCell
			for bi, bench := range cc.Benchmarks {
				for _, cl := range cells {
					bench, ref, cl := bench, refs[bi], cl
					cl.Mutate = m.Mutate
					out = append(out, func() killCell {
						w, err := chai.ByName(bench, cc.Params)
						if err != nil {
							panic(err)
						}
						o, err := runSystem(w, cl, cc.MaxTicks, false)
						killed := err != nil || !w.UnstableImage && len(diffImages(ref, o.Image, 1)) > 0
						// The oracle records its first violation and lets
						// the run finish; the kill happened at the former.
						var pv *core.ProtocolViolation
						if errors.As(err, &pv) {
							o.Cycles = uint64(pv.Cycle)
						}
						return killCell{killed: killed, n: o.Cycles}
					})
				}
			}
			return out
		},
	}
}

// campaignRefs runs each benchmark once, unmutated, on the reference
// cell and returns the final images; the harness aborts on a failing
// reference because the column would then measure the protocol, not
// the mutant.
func campaignRefs(cc CampaignConfig, ref Cell) []map[memdata.Addr]uint64 {
	var images []map[memdata.Addr]uint64
	for _, bench := range cc.Benchmarks {
		w, err := chai.ByName(bench, cc.Params)
		var o Outcome
		if err == nil {
			o, err = runSystem(w, ref, cc.MaxTicks, false)
		}
		if err != nil {
			panic(fmt.Sprintf("kill matrix: unmutated %s under %s fails: %v", bench, ref, err))
		}
		images = append(images, o.Image)
	}
	return images
}

// containChecker runs the contended workload of `hscproto -contain`
// under every paper variant: a cell catches the mutant when the run
// fails or an observed quiescent state escapes the variant's healthy
// reachable set.
func containChecker(workers int) killChecker {
	seeds := []int64{7, 13}
	explored := make(map[protocheck.ModelConfig]*protocheck.ReachResult)
	for _, mcfg := range protocheck.Configs() {
		r, err := protocheck.Explore(mcfg, protocheck.ExploreOpts{Workers: workers})
		if err == nil && r.Violation != nil {
			err = errors.New(r.Violation.String())
		}
		if err != nil {
			panic(fmt.Sprintf("kill matrix: healthy exploration of %s: %v", mcfg, err))
		}
		// Containment reads only the stable set; dropping the rest
		// frees the exploration graph.
		explored[mcfg] = &protocheck.ReachResult{Config: r.Config, Stable: r.Stable}
	}
	return killChecker{
		KillColumn: KillColumn{Name: "contain", Unit: "cycles",
			Doc: fmt.Sprintf("`hscproto -contain`: observed quiescent states ⊆ healthy reachable set, %d paper variants × seeds %v",
				len(verify.Variants()), seeds)},
		layer: Fabric,
		cells: func(m Mutant) []func() killCell {
			var out []func() killCell
			for _, opts := range verify.Variants() {
				for _, seed := range seeds {
					opts, seed := opts, seed
					out = append(out, func() killCell {
						cfg := protocheck.ObserverConfig(opts)
						cfg.Mutate = m.Mutate
						return containCell(cfg, seed, explored[protocheck.ConfigFor(opts)])
					})
				}
			}
			return out
		},
	}
}

func containCell(cfg system.Config, seed int64, r *protocheck.ReachResult) killCell {
	sys := system.New(cfg)
	obs, err := protocheck.NewObserver(sys)
	if err != nil {
		panic(err)
	}
	_, err = sys.Run(protocheck.ContendedWorkload(seed))
	killed := err != nil || len(obs.Contained(r)) > 0
	return killCell{killed: killed, n: uint64(sys.Engine.Now())}
}

// bugConfigs returns every abstract configuration with m's Bug set.
func bugConfigs(m Mutant) []protocheck.ModelConfig {
	var out []protocheck.ModelConfig
	for _, cfg := range protocheck.Configs() {
		cfg.Bug = m.Bug.Bug
		out = append(out, cfg)
	}
	return out
}

// bugGraphs hands the explorations of one mutant's configurations
// from the reach column to the live column, which takes (and so frees)
// each one: at most one mutant's graphs are alive at a time. The
// columns run one after the other, so no lock is needed.
type bugGraphs struct {
	workers int
	m       map[protocheck.ModelConfig]*protocheck.ReachResult
}

func (g *bugGraphs) explore(cfg protocheck.ModelConfig) *protocheck.ReachResult {
	r, err := protocheck.Explore(cfg, protocheck.ExploreOpts{Workers: g.workers})
	if err != nil {
		panic(fmt.Sprintf("kill matrix: exploring %s: %v", cfg, err))
	}
	return r
}

func (g *bugGraphs) take(cfg protocheck.ModelConfig) *protocheck.ReachResult {
	r := g.m[cfg]
	delete(g.m, cfg)
	return r
}

// reachChecker is `hscproto -reach` with the mutant's Bug toggled on in
// each abstract configuration.
func reachChecker(g *bugGraphs) killChecker {
	return killChecker{
		KillColumn: KillColumn{Name: "reach", Unit: "states",
			Doc: fmt.Sprintf("`hscproto -reach`: safety over %d abstract configurations", len(protocheck.Configs()))},
		layer: Model, serial: true,
		cells: func(m Mutant) []func() killCell {
			var out []func() killCell
			for _, cfg := range bugConfigs(m) {
				cfg := cfg
				out = append(out, func() killCell {
					r := g.explore(cfg)
					g.m[cfg] = r
					return killCell{killed: r.Violation != nil, n: uint64(r.States)}
				})
			}
			return out
		},
	}
}

// liveChecker is `hscproto -live` with the mutant's Bug toggled on. The
// liveness pass needs a complete graph, so it runs only in the
// configurations whose exploration is safety-clean.
func liveChecker(g *bugGraphs) killChecker {
	return killChecker{
		KillColumn: KillColumn{Name: "live", Unit: "states",
			Doc: "`hscproto -live`: drain proof, in the configurations -reach leaves safety-clean"},
		layer: Model, serial: true,
		cells: func(m Mutant) []func() killCell {
			var out []func() killCell
			for _, cfg := range bugConfigs(m) {
				r := g.take(cfg)
				if r.Violation != nil {
					continue
				}
				out = append(out, func() killCell {
					l, err := r.Liveness()
					if err != nil {
						panic(err)
					}
					return killCell{killed: l.Lasso != nil, n: uint64(l.States)}
				})
			}
			return out
		},
	}
}

// Markdown renders the matrix. The output depends only on the registry,
// the checkers and the deterministic runs, never on timing.
func (km KillMatrix) Markdown() string {
	var b strings.Builder
	b.WriteString("# Kill matrix\n\n")
	b.WriteString("Every seeded bug of the registry (`conform.Mutants()`) against every checker that accepts its layer.\n")
	b.WriteString("Regenerate with `go run ./cmd/hscproto -killmatrix > KILLMATRIX.md`; the nightly CI job diffs the two.\n\n")
	b.WriteString("A cell reads `killed/run, min N unit`: how many of the checker's cells caught the mutant, and the fewest\n")
	b.WriteString("states explored or simulated cycles run before one did. `—` marks a checker that does not run the mutant's\n")
	b.WriteString("layer. *Killers* counts the checkers with at least one kill; a mutant's sole killer must not be deleted.\n\n")
	b.WriteString("| mutant | layer |")
	for _, c := range km.Columns {
		fmt.Fprintf(&b, " %s |", c.Name)
	}
	b.WriteString(" killers |\n|---|---|")
	for range km.Columns {
		b.WriteString("---|")
	}
	b.WriteString("---|\n")
	for i, m := range km.Mutants {
		fmt.Fprintf(&b, "| %s | %s |", m.Name, m.Layer)
		killers := 0
		for j, s := range km.Scores[i] {
			switch {
			case !s.Applies:
				b.WriteString(" — |")
			case s.Killed == 0:
				fmt.Fprintf(&b, " 0/%d |", s.Run)
			default:
				killers++
				fmt.Fprintf(&b, " %d/%d, min %d %s |", s.Killed, s.Run, s.Min, km.Columns[j].Unit)
			}
		}
		fmt.Fprintf(&b, " %d |\n", killers)
	}
	b.WriteString("\nCheckers:\n\n")
	for _, c := range km.Columns {
		fmt.Fprintf(&b, "- **%s** — %s.\n", c.Name, c.Doc)
	}
	b.WriteString("\nMutants:\n\n")
	for _, m := range km.Mutants {
		fmt.Fprintf(&b, "- **%s** — %s.\n", m.Name, m.Doc)
	}
	return b.String()
}
