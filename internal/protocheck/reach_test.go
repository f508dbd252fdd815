package protocheck

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"sync"
	"testing"

	"hscsim/internal/core"
)

// exploreCached shares full explorations across the package's tests:
// the big tracked configurations take minutes, and the containment
// tests need the same reachable sets the safety test checks.
var (
	exploreMu    sync.Mutex
	exploreCache = map[ModelConfig]*ReachResult{}
)

func exploreCached(t *testing.T, cfg ModelConfig) *ReachResult {
	t.Helper()
	exploreMu.Lock()
	defer exploreMu.Unlock()
	if r, ok := exploreCache[cfg]; ok {
		return r
	}
	r, err := Explore(cfg, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	exploreCache[cfg] = r
	return r
}

// TestReachSafeAndCrossChecked: every abstract configuration is
// explored exhaustively; every reachable composite state satisfies
// SWMR, single-owner, no-stale-dirty and directory inclusivity; and the
// arms the model animates agree with the extracted tables both ways.
func TestReachSafeAndCrossChecked(t *testing.T) {
	var results []*ReachResult
	for _, cfg := range Configs() {
		r := exploreCached(t, cfg)
		results = append(results, r)
		if r.Violation != nil {
			t.Errorf("%s", r.Violation)
		}
		if r.States < 100 {
			t.Errorf("%s explored only %d states — model collapsed?", r.Config, r.States)
		}
		t.Logf("%s: %d states (%d stable), %d arms", r.Config, r.States, len(r.Stable), len(r.ArmsUsed))
	}
	for _, f := range CrossCheckArms(repoTable(t), results) {
		t.Errorf("%s", f)
	}
}

// TestConfigFor: the paper's six variants collapse onto the four
// abstract configurations (LLC placement options are invisible to the
// protocol abstraction).
func TestConfigFor(t *testing.T) {
	cases := []struct {
		opts core.Options
		want ModelConfig
	}{
		{core.Options{}, ModelConfig{Mode: ModeStateless}},
		{core.Options{EarlyDirtyResponse: true}, ModelConfig{Mode: ModeStateless, EDR: true}},
		{core.Options{EarlyDirtyResponse: true, NoWBCleanVicToMem: true, NoWBCleanVicToLLC: true},
			ModelConfig{Mode: ModeStateless, EDR: true}},
		{core.Options{EarlyDirtyResponse: true, LLCWriteBack: true, UseL3OnWT: true},
			ModelConfig{Mode: ModeStateless, EDR: true}},
		{core.Options{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwner},
			ModelConfig{Mode: ModeTrackOwner, EDR: true}},
		{core.Options{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwnerSharers},
			ModelConfig{Mode: ModeTrackOwnerSharers, EDR: true}},
	}
	for _, c := range cases {
		if got := ConfigFor(c.opts); got != c.want {
			t.Errorf("ConfigFor(%+v) = %v, want %v", c.opts, got, c.want)
		}
	}
}

// TestReachCatchesVictimRefetch: re-fetching a line that still sits in
// the victim buffer (instead of stalling until WBAck) must reach a
// state with a live cache copy alongside a live victim — the exact
// hazard the cpu.l2 WB stall arm prevents.
func TestReachCatchesVictimRefetch(t *testing.T) {
	for _, mode := range []Mode{ModeStateless, ModeTrackOwnerSharers} {
		r, err := Explore(ModelConfig{Mode: mode, EDR: true, Bug: BugVictimRefetch}, ExploreOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Violation == nil {
			t.Fatalf("%s: victim-refetch bug not caught in %d states", mode, r.States)
		}
		assertViolation(t, r.Violation, "stale-victim")
	}
}

// TestReachCatchesEvictDuringUpgrade: without the MSHR pin in
// corepair's fill path, a conflicting fill can victimize a line whose
// upgrade RdBlkM is still in flight; the late fill then installs
// Modified next to the line's own live victim-buffer entry.
func TestReachCatchesEvictDuringUpgrade(t *testing.T) {
	r, err := Explore(ModelConfig{Mode: ModeStateless, Bug: BugEvictDuringUpgrade}, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Violation == nil {
		t.Fatalf("evict-during-upgrade bug not caught in %d states", r.States)
	}
	assertViolation(t, r.Violation, "stale-victim")
}

// TestReachCatchesSkipAck: a directory that responds before the probe
// acks drain lets the grant race the in-flight invalidations — the new
// owner installs Modified while the old copy is still live, breaking
// SWMR.
func TestReachCatchesSkipAck(t *testing.T) {
	for _, mode := range []Mode{ModeStateless, ModeTrackOwnerSharers} {
		r, err := Explore(ModelConfig{Mode: mode, EDR: true, Bug: BugSkipAck}, ExploreOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Violation == nil {
			t.Fatalf("%s: skipped-ack bug not caught in %d states", mode, r.States)
		}
		assertViolation(t, r.Violation, "SWMR")
	}
}

func assertViolation(t *testing.T, v *Violation, problem string) {
	t.Helper()
	found := false
	for _, p := range v.Problems {
		if strings.Contains(p, problem) {
			found = true
		}
	}
	if !found {
		t.Errorf("violation does not mention %q: %v", problem, v.Problems)
	}
	if len(v.Trace) == 0 {
		t.Error("violation has no abstract trace")
	}
	for _, step := range v.Trace {
		if step.Desc == "" || step.State == "" {
			t.Errorf("trace step missing desc/state: %+v", step)
		}
	}
	t.Logf("counterexample:\n%s", v)
}

// TestExploreCounts pins what every configuration's exploration finds:
// reachable states, BFS depth, stable states and animated arms. The
// counts are the equivalence gate for any change to the state encoding,
// the visited table or the successor relation's bookkeeping.
func TestExploreCounts(t *testing.T) {
	want := map[ModelConfig][4]int{
		{Mode: ModeStateless}:                    {730280, 54, 14, 64},
		{Mode: ModeStateless, EDR: true}:         {775912, 55, 14, 64},
		{Mode: ModeTrackOwner, EDR: true}:        {2911352, 42, 24, 88},
		{Mode: ModeTrackOwnerSharers, EDR: true}: {825688, 36, 24, 87},
	}
	for _, cfg := range Configs() {
		r := exploreCached(t, cfg)
		got := [4]int{r.States, r.Depth, len(r.Stable), len(r.ArmsUsed)}
		if got != want[cfg] {
			t.Errorf("%s: (states, depth, stable, arms) = %v, want %v", cfg, got, want[cfg])
		}
	}
}

// exploreDigest hashes the exploration graph in id order: each state's
// rendering, parent link and successor ordinal. Equal digests mean the
// same ids, parents and ordinals, and so byte-identical traces.
func exploreDigest(r *ReachResult) uint64 {
	h := fnv.New64a()
	var b [6]byte
	for id, k := range r.exp.keys {
		h.Write([]byte(unpack(k).String()))
		binary.LittleEndian.PutUint32(b[0:4], uint32(r.exp.parent[id]))
		binary.LittleEndian.PutUint16(b[4:6], r.exp.ord[id])
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestExploreDigest: the stateless exploration graph is identical at
// one and two workers, and identical to the graph recorded before the
// state key became a packed uint64 (the digest below).
func TestExploreDigest(t *testing.T) {
	const want = 0x240893462de643d0
	for _, workers := range []int{1, 2} {
		r, err := Explore(ModelConfig{Mode: ModeStateless}, ExploreOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := exploreDigest(r); got != want {
			t.Errorf("workers=%d: exploration digest %#016x, want %#016x", workers, got, want)
		}
	}
}

// BenchmarkExplore times one symmetry-reduced exploration of the
// stateless configuration on two workers — the protocheck half of the
// protocol-check workload — reporting states discovered per second.
func BenchmarkExplore(b *testing.B) {
	cfg := ModelConfig{Mode: ModeStateless}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Explore(cfg, ExploreOpts{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.States)/r.Elapsed.Seconds(), "states/s")
	}
}
