package figures_test

import (
	"context"
	"strings"
	"testing"

	"hscsim/internal/core"
	"hscsim/internal/engine"
	"hscsim/internal/figures"
	"hscsim/internal/system"
)

// runCells simulates every bench × variant cell on the evaluation
// configuration through the job engine, as cmd/hscfig does, and returns
// the results bench-major.
func runCells(t *testing.T, benches []string, variants []core.Options, topo engine.TopologySpec) []system.Results {
	t.Helper()
	var specs []engine.Spec
	for _, b := range benches {
		for _, v := range variants {
			sp := engine.EvalSpec(b, v)
			sp.Topology = topo
			specs = append(specs, sp)
		}
	}
	e := engine.New(engine.Config{Workers: 2})
	defer e.Close()
	raw, err := e.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]system.Results, len(raw))
	for i, b := range raw {
		if out[i], err = engine.DecodeResult(b); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestRunSingle(t *testing.T) {
	res := runCells(t, []string{"bs"}, []core.Options{{}}, engine.TopologySpec{})[0]
	if res.Cycles == 0 || res.MemAccesses() == 0 {
		t.Fatalf("empty results: %+v", res)
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	sp := engine.EvalSpec("nope", core.Options{})
	if err := sp.Validate(); err == nil {
		t.Fatal("unknown benchmark accepted by Validate")
	}
	if _, err := engine.Execute(context.Background(), sp); err == nil {
		t.Fatal("unknown benchmark accepted by Execute")
	}
}

func TestSweepAndWriters(t *testing.T) {
	variants := []core.Options{
		{},
		{Tracking: core.TrackOwner, LLCWriteBack: true, UseL3OnWT: true},
		{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
		{EarlyDirtyResponse: true},
		{NoWBCleanVicToMem: true},
		{LLCWriteBack: true},
		{LLCWriteBack: true, UseL3OnWT: true},
	}
	benches := []string{"tq"}
	sw := figures.NewSweep(benches, variants, runCells(t, benches, variants, engine.TopologySpec{}))
	base := sw.Results["tq"]["baseline"]
	tracked := sw.Results["tq"]["sharersTracking"]
	if figures.PercentProbeReduction(base, tracked) <= 50 {
		t.Fatalf("probe reduction %.1f%% too small — tracking broken?",
			figures.PercentProbeReduction(base, tracked))
	}
	if figures.PercentSaved(base, tracked) <= 0 {
		t.Fatalf("tracking slower than baseline (%.1f%%)", figures.PercentSaved(base, tracked))
	}
	if len(sw.Configs) != len(variants) {
		t.Error("config names lost")
	}

	// WriteExtended and WriteHeteroSync render whatever sweep they are
	// given; a two-variant slice of this one exercises them.
	pair := figures.NewSweep(benches, figures.HeteroSyncVariants(), []system.Results{base, tracked})

	var b strings.Builder
	figures.WriteFig4(&b, sw)
	figures.WriteFig5(&b, sw)
	figures.WriteFig6(&b, sw)
	figures.WriteFig7(&b, sw)
	figures.WriteEnergy(&b, sw)
	figures.WriteExtended(&b, pair)
	figures.WriteHeteroSync(&b, pair, pair)
	figures.WriteTable2(&b)
	figures.WriteTable3(&b)
	if err := figures.WriteCSV(&b, sw); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Energy estimate",
		"Extended CHAI suite", "HeteroSync / Lulesh",
		"Table II", "Table III", "benchmark,config,cycles",
		"tq", "ownerTracking", "sharersTracking",
		"3.5 GHz", "1.1 GHz",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestNewSweepBenchMajor(t *testing.T) {
	variants := figures.HeteroSyncVariants()
	sw := figures.NewSweep([]string{"a", "b"}, variants, []system.Results{
		results(1, 0, 0), results(2, 0, 0), results(3, 0, 0), results(4, 0, 0),
	})
	if got := sw.Results["b"]["sharersTracking"].Cycles; got != 4 {
		t.Fatalf("b/sharersTracking cycles = %d, want 4", got)
	}
	if got := sw.Results["a"]["sharersTracking"].Cycles; got != 2 {
		t.Fatalf("a/sharersTracking cycles = %d, want 2", got)
	}
	if sw.Configs[0] != "baseline" || sw.Configs[1] != "sharersTracking" {
		t.Fatalf("configs = %v", sw.Configs)
	}
}

func TestPercentHelpersZeroBase(t *testing.T) {
	var zero, some = results(0, 0, 0), results(10, 10, 10)
	if figures.PercentSaved(zero, some) != 0 || figures.PercentProbeReduction(zero, some) != 0 || figures.PercentMemReduction(zero, some) != 0 {
		t.Fatal("zero baselines must not divide by zero")
	}
}

func results(cycles, mem, probes uint64) (r system.Results) {
	r.Cycles = cycles
	r.MemReads = mem
	r.ProbesSent = probes
	return r
}

func TestWriteCSV(t *testing.T) {
	sw := &figures.Sweep{
		Benches: []string{"tq"},
		Configs: []string{"baseline"},
		Results: map[string]map[string]system.Results{
			"tq": {"baseline": {Cycles: 10, MemReads: 2, MemWrites: 3, ProbesSent: 4, LLCHits: 5, NoCBytes: 6}},
		},
	}
	var b strings.Builder
	if err := figures.WriteCSV(&b, sw); err != nil {
		t.Fatal(err)
	}
	want := "benchmark,config,cycles,mem_reads,mem_writes,probes_sent,llc_hits,noc_bytes\ntq,baseline,10,2,3,4,5,6\n"
	if b.String() != want {
		t.Fatalf("csv = %q", b.String())
	}
}
