package verify

import "testing"

// pinnedCounts is the (States, Paths) of every sweep cell. The counts
// depend only on which states the search visits, not on how it reaches
// them, so a change to the search alone must leave every entry as it
// is; a protocol or scenario change that moves a count must update the
// entry and say why.
var pinnedCounts = map[string][2]int{
	"TestExhaustiveSweep/baseline/single-line-contention":        {9472, 16},
	"TestExhaustiveSweep/baseline/producer-consumer":             {22608, 7},
	"TestExhaustiveSweep/baseline/victim-race":                   {5893, 7},
	"TestExhaustiveSweep/baseline/atomic-mix":                    {2021, 5},
	"TestExhaustiveSweep/baseline/dir-pressure":                  {39516, 20},
	"TestExhaustiveSweep/earlyResp/single-line-contention":       {9780, 16},
	"TestExhaustiveSweep/earlyResp/producer-consumer":            {27035, 7},
	"TestExhaustiveSweep/earlyResp/victim-race":                  {6805, 7},
	"TestExhaustiveSweep/earlyResp/atomic-mix":                   {2033, 5},
	"TestExhaustiveSweep/earlyResp/dir-pressure":                 {50464, 20},
	"TestExhaustiveSweep/noWBcleanVicLLC/single-line-contention": {9780, 16},
	"TestExhaustiveSweep/noWBcleanVicLLC/producer-consumer":      {27035, 7},
	"TestExhaustiveSweep/noWBcleanVicLLC/victim-race":            {6818, 6},
	"TestExhaustiveSweep/noWBcleanVicLLC/atomic-mix":             {2033, 5},
	"TestExhaustiveSweep/noWBcleanVicLLC/dir-pressure":           {50464, 20},
	"TestExhaustiveSweep/llcWB+useL3OnWT/single-line-contention": {6582, 16},
	"TestExhaustiveSweep/llcWB+useL3OnWT/producer-consumer":      {27035, 7},
	"TestExhaustiveSweep/llcWB+useL3OnWT/victim-race":            {6806, 8},
	"TestExhaustiveSweep/llcWB+useL3OnWT/atomic-mix":             {1700, 5},
	"TestExhaustiveSweep/llcWB+useL3OnWT/dir-pressure":           {50464, 20},
	"TestExhaustiveSweep/ownerTracking/single-line-contention":   {3554, 12},
	"TestExhaustiveSweep/ownerTracking/producer-consumer":        {6022, 9},
	"TestExhaustiveSweep/ownerTracking/victim-race":              {2675, 8},
	"TestExhaustiveSweep/ownerTracking/atomic-mix":               {924, 5},
	"TestExhaustiveSweep/ownerTracking/dir-pressure":             {11259, 12},
	"TestExhaustiveSweep/sharersTracking/single-line-contention": {1757, 16},
	"TestExhaustiveSweep/sharersTracking/producer-consumer":      {3888, 9},
	"TestExhaustiveSweep/sharersTracking/victim-race":            {1889, 8},
	"TestExhaustiveSweep/sharersTracking/atomic-mix":             {526, 5},
	"TestExhaustiveSweep/sharersTracking/dir-pressure":           {3631, 12},

	"TestDMAScenariosSweep/baseline/dma-read-vs-stores":            {1653, 3},
	"TestDMAScenariosSweep/baseline/dma-write-vs-stores":           {2305, 5},
	"TestDMAScenariosSweep/baseline/dma-stream-victim-race":        {3490, 4},
	"TestDMAScenariosSweep/earlyResp/dma-read-vs-stores":           {1817, 3},
	"TestDMAScenariosSweep/earlyResp/dma-write-vs-stores":          {2317, 5},
	"TestDMAScenariosSweep/earlyResp/dma-stream-victim-race":       {3540, 4},
	"TestDMAScenariosSweep/noWBcleanVicLLC/dma-read-vs-stores":     {1817, 3},
	"TestDMAScenariosSweep/noWBcleanVicLLC/dma-write-vs-stores":    {2317, 5},
	"TestDMAScenariosSweep/noWBcleanVicLLC/dma-stream-victim-race": {3540, 4},
	"TestDMAScenariosSweep/llcWB+useL3OnWT/dma-read-vs-stores":     {1817, 3},
	"TestDMAScenariosSweep/llcWB+useL3OnWT/dma-write-vs-stores":    {2317, 5},
	"TestDMAScenariosSweep/llcWB+useL3OnWT/dma-stream-victim-race": {3540, 4},
	"TestDMAScenariosSweep/ownerTracking/dma-read-vs-stores":       {603, 3},
	"TestDMAScenariosSweep/ownerTracking/dma-write-vs-stores":      {1112, 5},
	"TestDMAScenariosSweep/ownerTracking/dma-stream-victim-race":   {781, 4},
	"TestDMAScenariosSweep/sharersTracking/dma-read-vs-stores":     {443, 3},
	"TestDMAScenariosSweep/sharersTracking/dma-write-vs-stores":    {444, 5},
	"TestDMAScenariosSweep/sharersTracking/dma-stream-victim-race": {381, 4},
}

// runSweep runs every paper variant against every scenario and
// requires a clean, non-truncated exhaustive exploration with the
// pinned state and path counts.
func runSweep(t *testing.T, scenarios []Scenario) {
	for _, opts := range Variants() {
		for _, sc := range scenarios {
			opts, sc := opts, sc
			t.Run(opts.Named()+"/"+sc.Name, func(t *testing.T) {
				t.Parallel()
				res := Run(Config{Opts: opts, Scenario: sc})
				if res.Violation != nil {
					t.Fatalf("violation:\n%s", res.Violation)
				}
				if res.Truncated {
					t.Fatalf("exploration truncated at %d states — scenario too large for exhaustive checking", res.States)
				}
				want, ok := pinnedCounts[t.Name()]
				if !ok {
					t.Fatalf("no pinned counts for %s (states=%d paths=%d)", t.Name(), res.States, res.Paths)
				}
				if got := [2]int{res.States, res.Paths}; got != want {
					t.Fatalf("states=%d paths=%d, pinned states=%d paths=%d", got[0], got[1], want[0], want[1])
				}
			})
		}
	}
}

// TestExhaustiveSweep runs every paper variant against every standard
// scenario under unordered delivery.
func TestExhaustiveSweep(t *testing.T) { runSweep(t, Scenarios()) }

// TestDMAScenariosSweep model-checks DMARd/DMAWr interleaved with CPU
// stores under every variant: the uncached DMA stream must never expose
// stale data or strand a directory transaction.
func TestDMAScenariosSweep(t *testing.T) { runSweep(t, DMAScenarios()) }

// TestTruncation checks that hitting MaxStates stops the search with
// exactly that many states and reports truncation, not a violation.
func TestTruncation(t *testing.T) {
	res := Run(Config{Scenario: Scenarios()[0], MaxStates: 100})
	if res.Violation != nil {
		t.Fatalf("violation:\n%s", res.Violation)
	}
	if !res.Truncated || res.States != 100 {
		t.Fatalf("truncated=%t states=%d, want truncated at 100 states", res.Truncated, res.States)
	}
}

// BenchmarkVerifyRun times one exhaustive Run of victim-race under the
// baseline protocol per op, the heaviest cell of the protocol-check
// verify subset.
func BenchmarkVerifyRun(b *testing.B) {
	var cfg Config
	for _, sc := range Scenarios() {
		if sc.Name == "victim-race" {
			cfg.Scenario = sc
		}
	}
	states := 0
	for i := 0; i < b.N; i++ {
		res := Run(cfg)
		if res.Violation != nil || res.Truncated {
			b.Fatalf("victim-race/baseline did not verify cleanly (states=%d)", res.States)
		}
		states += res.States
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
}
