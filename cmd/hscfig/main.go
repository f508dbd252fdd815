// Command hscfig regenerates the paper's evaluation tables and figures
// (Tables I–III, Figs. 4–7, the energy estimate, the §V HeteroSync and
// extended-CHAI comparisons and the §III-B1/§IV-B/§VII/§IX ablations)
// by sweeping the workloads over the protocol variants. With no flags
// it regenerates everything.
//
// Every requested simulation section is a list of engine.Spec cells;
// the whole list runs as one batch on the job engine (internal/engine),
// so cells execute in parallel on the worker pool (-j), cells shared
// between sections are simulated once, and with -cache every cell is
// memoized across invocations.
//
// Usage:
//
//	hscfig [-fig4] [-fig5] [-fig6] [-fig7] [-table1] [-table2] [-table3] [-energy]
//	       [-heterosync] [-extended] [-ablations] [-csv file] [-cache dir] [-j N]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"hscsim/internal/chai"
	"hscsim/internal/core"
	"hscsim/internal/engine"
	"hscsim/internal/figures"
	"hscsim/internal/heterosync"
	"hscsim/internal/system"
)

// A section is one part of the output: the engine cells it needs and
// how to render their results, which arrive in the cells' order.
type section struct {
	cells  []engine.Spec
	render func(out io.Writer, res []system.Results)
}

// evalCells lists the evaluation cells bench-major — every variant of
// the first bench, then the next — on one topology, the order
// figures.NewSweep expects.
func evalCells(benches []string, variants []core.Options, topo engine.TopologySpec) []engine.Spec {
	var cells []engine.Spec
	for _, b := range benches {
		for _, v := range variants {
			sp := engine.EvalSpec(b, v)
			sp.Topology = topo
			cells = append(cells, sp)
		}
	}
	return cells
}

func main() {
	fig4 := flag.Bool("fig4", false, "regenerate Fig. 4 (optimization speedups)")
	fig5 := flag.Bool("fig5", false, "regenerate Fig. 5 (memory accesses)")
	fig6 := flag.Bool("fig6", false, "regenerate Fig. 6 (state-tracking speedups)")
	fig7 := flag.Bool("fig7", false, "regenerate Fig. 7 (probe reduction)")
	table1 := flag.Bool("table1", false, "regenerate Table I (directory transitions) from the implementation")
	table2 := flag.Bool("table2", false, "print Table II (cache configurations)")
	table3 := flag.Bool("table3", false, "print Table III (system configuration)")
	ablations := flag.Bool("ablations", false, "run the extra ablations (§III-B1, §VII)")
	energyFig := flag.Bool("energy", false, "print the first-order energy estimate")
	hsFlag := flag.Bool("heterosync", false, "run the HeteroSync/Lulesh comparison (§V)")
	extFlag := flag.Bool("extended", false, "run the 4 CHAI benchmarks gem5 could not (§V)")
	csvPath := flag.String("csv", "", "also export the Fig. 4/5 sweep as CSV to this file")
	cacheDir := flag.String("cache", "", "persist sweep results in this directory (re-runs become cache hits)")
	jobs := flag.Int("j", 0, "parallel simulation jobs (0 = GOMAXPROCS)")
	flag.Parse()

	all := !(*fig4 || *fig5 || *fig6 || *fig7 || *table1 || *table2 || *table3 || *ablations || *energyFig || *hsFlag || *extFlag)

	out := os.Stdout
	if all || *table1 {
		core.WriteTableI(out)
	}
	if all || *table2 {
		figures.WriteTable2(out)
	}
	if all || *table3 {
		figures.WriteTable3(out)
	}

	var sections []section
	if all || *fig4 || *fig5 {
		// Figs. 4 and 5 share the baseline/noWBcleanVic/llcWB runs; run
		// the union of their variants once.
		benches := chai.Names()
		variants := []core.Options{
			{},
			{EarlyDirtyResponse: true},
			{NoWBCleanVicToMem: true},
			{LLCWriteBack: true},
			{LLCWriteBack: true, UseL3OnWT: true},
		}
		sections = append(sections, section{evalCells(benches, variants, engine.TopologySpec{}), func(out io.Writer, res []system.Results) {
			sw := figures.NewSweep(benches, variants, res)
			if all || *fig4 {
				figures.WriteFig4(out, sw)
			}
			if all || *fig5 {
				figures.WriteFig5(out, sw)
			}
			if *csvPath != "" {
				f, err := os.Create(*csvPath)
				check(err)
				check(figures.WriteCSV(f, sw))
				check(f.Close())
				fmt.Fprintf(out, "\nCSV sweep written to %s\n", *csvPath)
			}
		}})
	}

	if all || *fig6 || *fig7 || *energyFig {
		benches, variants := chai.CollaborativeFive(), figures.Fig6Variants()
		sections = append(sections, section{evalCells(benches, variants, engine.TopologySpec{}), func(out io.Writer, res []system.Results) {
			sw := figures.NewSweep(benches, variants, res)
			if all || *fig6 {
				figures.WriteFig6(out, sw)
			}
			if all || *fig7 {
				figures.WriteFig7(out, sw)
			}
			if all || *energyFig {
				figures.WriteEnergy(out, sw)
			}
		}})
	}

	if all || *hsFlag {
		hs, collab, variants := heterosync.Names(), chai.CollaborativeFive(), figures.HeteroSyncVariants()
		// HeteroSync runs with a write-back TCC (see WriteHeteroSync).
		cells := evalCells(hs, variants, engine.TopologySpec{GPUWriteBackL2: true})
		n := len(cells)
		cells = append(cells, evalCells(collab, variants, engine.TopologySpec{})...)
		sections = append(sections, section{cells, func(out io.Writer, res []system.Results) {
			figures.WriteHeteroSync(out, figures.NewSweep(hs, variants, res[:n]), figures.NewSweep(collab, variants, res[n:]))
		}})
	}

	if all || *extFlag {
		benches, variants := chai.ExtendedNames(), figures.ExtendedVariants()
		sections = append(sections, section{evalCells(benches, variants, engine.TopologySpec{}), func(out io.Writer, res []system.Results) {
			figures.WriteExtended(out, figures.NewSweep(benches, variants, res))
		}})
	}

	if all || *ablations {
		sections = append(sections, ablationSections()...)
	}

	// Run every section's cells as one batch, then render in order.
	var cells []engine.Spec
	for _, s := range sections {
		cells = append(cells, s.cells...)
	}
	cache, err := engine.NewCache(0, *cacheDir)
	check(err)
	eng := engine.New(engine.Config{Workers: *jobs, Cache: cache})
	defer eng.Close()
	raw, err := eng.RunAll(context.Background(), cells)
	check(err)
	results := make([]system.Results, len(raw))
	for i, b := range raw {
		results[i], err = engine.DecodeResult(b)
		check(err)
	}
	for _, s := range sections {
		s.render(out, results[:len(s.cells)])
		results = results[len(s.cells):]
	}

	if len(cells) > 0 {
		done := eng.Stats().Done
		fmt.Fprintf(os.Stderr, "hscfig: %d cells, %d simulated, %d reused\n",
			len(cells), done, uint64(len(cells))-done)
	}
}

// labelled is an ablation row: a label and its protocol variant.
type labelled struct {
	label string
	opts  core.Options
}

func optionsOf(cases []labelled) []core.Options {
	out := make([]core.Options, len(cases))
	for i, c := range cases {
		out[i] = c.opts
	}
	return out
}

// ablationSections covers the paper's secondary design points: dropping
// clean victims from the LLC entirely (§III-B1), the limited-pointer
// sharer list (§IV-B), the future-work directory replacement policy and
// dirty-sharer deallocation rule (§VII), read-only elision (§IX) and
// the distributed directory (§VII).
func ablationSections() []section {
	tracked := core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true}
	fewest := core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true, DirRepl: core.DirReplFewestSharers}
	keepDirty := core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true, KeepDirtySharersOnEvict: true}
	collab := chai.CollaborativeFive()

	cases := []labelled{
		{"baseline", core.Options{}},
		{"noWBcleanVicLLC (III-B1)", core.Options{NoWBCleanVicToMem: true, NoWBCleanVicToLLC: true}},
		{"sharers, limited-4 ptrs", core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true, LimitedPointers: 4}},
		{"sharers, fewest-sharers repl", fewest},
		{"sharers, keep dirty sharers", keepDirty},
	}
	secondary := section{evalCells(collab, optionsOf(cases), engine.TopologySpec{}), func(out io.Writer, res []system.Results) {
		fmt.Fprintf(out, "\nAblations\n=========\n")
		fmt.Fprintf(out, "%-30s %-8s %12s %10s %10s\n", "variant", "bench", "cycles", "mem", "probes")
		for i, r := range res {
			fmt.Fprintf(out, "%-30s %-8s %12d %10d %10d\n",
				cases[i%len(cases)].label, collab[i/len(cases)], r.Cycles, r.MemAccesses(), r.ProbesSent)
		}
	}}

	// Directory-pressure study (§VII future work): with a directory far
	// smaller than the working set, entry evictions and their backward
	// invalidations dominate, and the replacement policy matters.
	pressure := []labelled{
		{"sharers, tree-PLRU", tracked},
		{"sharers, fewest-sharers repl", fewest},
		{"sharers, keep dirty sharers", keepDirty},
	}
	dirPressure := section{evalCells(collab, optionsOf(pressure), engine.TopologySpec{DirEntries: 512}), func(out io.Writer, res []system.Results) {
		fmt.Fprintf(out, "\nDirectory-pressure ablation (512-entry directory)\n")
		fmt.Fprintf(out, "%-30s %-8s %12s %10s %12s %12s\n",
			"variant", "bench", "cycles", "probes", "dirEvicts", "backInvals")
		for i, r := range res {
			fmt.Fprintf(out, "%-30s %-8s %12d %10d %12d %12d\n",
				pressure[i%len(pressure)].label, collab[i/len(pressure)], r.Cycles, r.ProbesSent,
				r.Stats["dir.entry_evictions"], r.Stats["dir.backward_inval_probes"])
		}
	}}

	// Read-only elision (§IX future work) on the benchmarks with
	// read-only inputs.
	roBenches := []string{"bs", "sc", "hsti", "hsto", "rscd", "rsct"}
	ro := []labelled{
		{"baseline", core.Options{}},
		{"baseline+RO", core.Options{ReadOnlyElision: true}},
		{"sharers", tracked},
		{"sharers+RO", core.Options{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true, ReadOnlyElision: true}},
	}
	readOnly := section{evalCells(roBenches, optionsOf(ro), engine.TopologySpec{}), func(out io.Writer, res []system.Results) {
		fmt.Fprintf(out, "\nRead-only elision ablation (§IX)\n")
		fmt.Fprintf(out, "%-8s %-18s %12s %10s %12s\n", "bench", "variant", "cycles", "probes", "roElided")
		for i, r := range res {
			fmt.Fprintf(out, "%-8s %-18s %12d %10d %12d\n",
				roBenches[i/len(ro)], ro[i%len(ro)].label, r.Cycles, r.ProbesSent, r.Stats["dir.readonly_elided"])
		}
	}}

	// Distributed directory (§VII future work): the tracked protocol
	// over 1/2/4 address-interleaved banks.
	banks := []int{1, 2, 4}
	var bankCells []engine.Spec
	for _, b := range collab {
		for _, n := range banks {
			sp := engine.EvalSpec(b, tracked)
			sp.Topology.DirBanks = n
			bankCells = append(bankCells, sp)
		}
	}
	distributed := section{bankCells, func(out io.Writer, res []system.Results) {
		fmt.Fprintf(out, "\nDistributed-directory ablation (§VII)\n")
		fmt.Fprintf(out, "%-8s %6s %12s %10s %10s\n", "bench", "banks", "cycles", "probes", "mem")
		for i, r := range res {
			fmt.Fprintf(out, "%-8s %6d %12d %10d %10d\n",
				collab[i/len(banks)], banks[i%len(banks)], r.Cycles, r.ProbesSent, r.MemAccesses())
		}
	}}

	return []section{secondary, dirPressure, readOnly, distributed}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hscfig:", err)
		os.Exit(1)
	}
}
