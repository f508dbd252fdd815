package verify

import (
	"testing"

	"hscsim/internal/core"
	"hscsim/internal/msg"
)

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

	"TestPerLinkFIFOSweep/baseline/single-line-contention":        {8421, 14},
	"TestPerLinkFIFOSweep/baseline/producer-consumer":             {13597, 6},
	"TestPerLinkFIFOSweep/baseline/victim-race":                   {2519, 5},
	"TestPerLinkFIFOSweep/baseline/atomic-mix":                    {1881, 5},
	"TestPerLinkFIFOSweep/baseline/dir-pressure":                  {14502, 13},
	"TestPerLinkFIFOSweep/earlyResp/single-line-contention":       {8705, 14},
	"TestPerLinkFIFOSweep/earlyResp/producer-consumer":            {15972, 6},
	"TestPerLinkFIFOSweep/earlyResp/victim-race":                  {3088, 5},
	"TestPerLinkFIFOSweep/earlyResp/atomic-mix":                   {1889, 5},
	"TestPerLinkFIFOSweep/earlyResp/dir-pressure":                 {17665, 13},
	"TestPerLinkFIFOSweep/noWBcleanVicLLC/single-line-contention": {8705, 14},
	"TestPerLinkFIFOSweep/noWBcleanVicLLC/producer-consumer":      {15972, 6},
	"TestPerLinkFIFOSweep/noWBcleanVicLLC/victim-race":            {3101, 5},
	"TestPerLinkFIFOSweep/noWBcleanVicLLC/atomic-mix":             {1889, 5},
	"TestPerLinkFIFOSweep/noWBcleanVicLLC/dir-pressure":           {17665, 13},
	"TestPerLinkFIFOSweep/llcWB+useL3OnWT/single-line-contention": {5768, 14},
	"TestPerLinkFIFOSweep/llcWB+useL3OnWT/producer-consumer":      {15972, 6},
	"TestPerLinkFIFOSweep/llcWB+useL3OnWT/victim-race":            {3089, 6},
	"TestPerLinkFIFOSweep/llcWB+useL3OnWT/atomic-mix":             {1666, 5},
	"TestPerLinkFIFOSweep/llcWB+useL3OnWT/dir-pressure":           {17719, 13},
	"TestPerLinkFIFOSweep/ownerTracking/single-line-contention":   {3052, 12},
	"TestPerLinkFIFOSweep/ownerTracking/producer-consumer":        {3083, 6},
	"TestPerLinkFIFOSweep/ownerTracking/victim-race":              {963, 5},
	"TestPerLinkFIFOSweep/ownerTracking/atomic-mix":               {871, 5},
	"TestPerLinkFIFOSweep/ownerTracking/dir-pressure":             {6536, 8},
	"TestPerLinkFIFOSweep/sharersTracking/single-line-contention": {1579, 16},
	"TestPerLinkFIFOSweep/sharersTracking/producer-consumer":      {1938, 6},
	"TestPerLinkFIFOSweep/sharersTracking/victim-race":            {707, 5},
	"TestPerLinkFIFOSweep/sharersTracking/atomic-mix":             {510, 5},
	"TestPerLinkFIFOSweep/sharersTracking/dir-pressure":           {1760, 8},
}

// runSweep runs every paper variant against every scenario under the
// given delivery order and requires a clean, non-truncated exhaustive
// exploration with the pinned state and path counts.
func runSweep(t *testing.T, scenarios []Scenario, order Ordering) {
	for _, opts := range Variants() {
		for _, sc := range scenarios {
			opts, sc := opts, sc
			t.Run(opts.Named()+"/"+sc.Name, func(t *testing.T) {
				t.Parallel()
				res := Run(Config{Opts: opts, Scenario: sc, Order: order})
				if res.Violation != nil {
					t.Fatalf("violation under %s delivery:\n%s", order, res.Violation)
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
func TestExhaustiveSweep(t *testing.T) { runSweep(t, Scenarios(), OrderUnordered) }

// TestDMAScenariosSweep model-checks DMARd/DMAWr interleaved with CPU
// stores under every variant: the uncached DMA stream must never expose
// stale data or strand a directory transaction.
func TestDMAScenariosSweep(t *testing.T) { runSweep(t, DMAScenarios(), OrderUnordered) }

// TestPerLinkFIFOSweep repeats the standard sweep under point-to-point
// ordered delivery. Both orderings must be clean; FIFO explores a
// subset of the unordered interleavings, so this also bounds runtime.
func TestPerLinkFIFOSweep(t *testing.T) { runSweep(t, Scenarios(), OrderPerLinkFIFO) }

// requireReplayableTrace fails if a counterexample step did not replay:
// trace re-executes the path from scratch, so a step recorded by the
// in-place descent that a fresh harness cannot reproduce shows here.
func requireReplayableTrace(t *testing.T, v *Violation) {
	t.Helper()
	for i, step := range v.Trace {
		if step == "<replay diverged>" {
			t.Fatalf("trace step %d diverged on replay:\n%s", i+1, v)
		}
	}
}

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

// TestSeededDroppedAck drops every probe acknowledgment sent by CPU
// L2 node 1. The directory then waits forever for its probe count; the
// checker must report the resulting deadlock, not hang or pass.
func TestSeededDroppedAck(t *testing.T) {
	res := Run(Config{
		Opts:     core.Options{},
		Scenario: Scenarios()[0], // single-line contention forces probes
		Mutate: func(m *msg.Message) *msg.Message {
			if m.Type == msg.PrbAck && m.Src == 1 {
				return nil
			}
			return m
		},
	})
	if res.Violation == nil {
		t.Fatalf("checker missed the seeded dropped-ack bug (states=%d paths=%d)", res.States, res.Paths)
	}
	if r := res.Violation.Err.Rule; r != "deadlock" && r != "leak" {
		t.Fatalf("expected a deadlock/leak from the dropped ack, got rule %q:\n%s", r, res.Violation)
	}
	requireReplayableTrace(t, res.Violation)
	t.Logf("caught: %v", res.Violation.Err)
}

// TestSeededWeakProbe downgrades every invalidating probe to a
// non-invalidating one, so stale copies survive writes — the checker
// must flag an SWMR or data-value violation.
func TestSeededWeakProbe(t *testing.T) {
	res := Run(Config{
		Opts:     core.Options{},
		Scenario: Scenarios()[0],
		Mutate: func(m *msg.Message) *msg.Message {
			if m.Type == msg.PrbInv {
				mm := *m
				mm.Type = msg.PrbDowngrade
				return &mm
			}
			return m
		},
	})
	if res.Violation == nil {
		t.Fatalf("checker missed the seeded weak-probe bug (states=%d paths=%d)", res.States, res.Paths)
	}
	switch res.Violation.Err.Rule {
	case "swmr", "data-value", "mirror", "final-stale-copy", "final-lost-write":
	default:
		t.Fatalf("expected a coherence violation from the weakened probes, got rule %q:\n%s",
			res.Violation.Err.Rule, res.Violation)
	}
	requireReplayableTrace(t, res.Violation)
	t.Logf("caught: %v", res.Violation.Err)
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
