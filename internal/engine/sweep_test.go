package engine

import (
	"strings"
	"testing"
)

func TestSweepCellsExpansionOrderAndDefaults(t *testing.T) {
	sw := SweepSpec{
		Benches:  []string{"bs", "tq"},
		Variants: []ProtocolSpec{{}, {Tracking: "owner+sharers", LLCWriteBack: true, UseL3OnWT: true}},
		Points: []SweepPoint{
			{Label: "p1", Topology: TopologySpec{NumCorePairs: 1}, Threads: 2},
			{Label: "p2", Topology: TopologySpec{NumCorePairs: 2}, Threads: 4},
		},
		Scale: 1,
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("expanded to %d cells, want 8", len(cells))
	}
	// Bench-major, then variant, then point.
	if cells[0].Bench != "bs" || cells[3].Bench != "bs" || cells[4].Bench != "tq" {
		t.Fatalf("bench-major order violated: %v", cells)
	}
	if cells[0].Protocol.Tracking != "" || cells[2].Protocol.Tracking != "owner+sharers" {
		t.Fatalf("variant order violated: %v", cells)
	}
	if cells[0].Threads != 2 || cells[1].Threads != 4 {
		t.Fatalf("per-point threads not honored: %d %d", cells[0].Threads, cells[1].Threads)
	}
	// Cells are normalized, so their hashes are exactly what POST /jobs
	// would assign to the same spec.
	manual := Spec{Bench: "bs", Scale: 1, Threads: 2, Topology: TopologySpec{NumCorePairs: 1}}
	if cells[0].Hash() != manual.Normalized().Hash() {
		t.Fatal("cell hash differs from single-job hash for the same spec")
	}
}

func TestSweepIDStableAndNormalizing(t *testing.T) {
	a := SweepSpec{Benches: []string{"bs"}}
	b := SweepSpec{Benches: []string{"bs"}, Scale: 1, Config: ConfigEval,
		Variants: []ProtocolSpec{{}}, Points: []SweepPoint{{}}}
	if a.ID() != b.ID() {
		t.Fatal("normalization-equivalent sweeps have different IDs")
	}
	c := SweepSpec{Benches: []string{"tq"}}
	if a.ID() == c.ID() {
		t.Fatal("distinct sweeps share an ID")
	}
}

func TestSweepValidateRejects(t *testing.T) {
	if err := (SweepSpec{}).Validate(); err == nil {
		t.Fatal("empty sweep validated")
	}
	if err := (SweepSpec{Benches: []string{"no-such-bench"}}).Validate(); err == nil {
		t.Fatal("unknown bench validated")
	}
	bad := SweepSpec{Benches: []string{"bs"}, Points: []SweepPoint{{Topology: TopologySpec{DirBanks: 3}}}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("bad topology validated: %v", err)
	}
}

func TestSweepCellCap(t *testing.T) {
	benches := make([]string, 70)
	for i := range benches {
		benches[i] = "bs"
	}
	points := make([]SweepPoint, 70)
	sw := SweepSpec{Benches: benches, Points: points}
	if _, err := sw.Cells(); err == nil || !strings.Contains(err.Error(), "max") {
		t.Fatalf("4900-cell sweep not capped: %v", err)
	}
}

func TestNamedVariant(t *testing.T) {
	names := []string{"baseline", "earlyResp", "noWBcleanVic", "noWBcleanVicLLC",
		"llcWB", "llcWB+useL3OnWT", "ownerTracking", "sharersTracking"}
	for _, name := range names {
		v, err := NamedVariant(name)
		if err != nil {
			t.Fatal(err)
		}
		o, err := v.Options()
		if err != nil {
			t.Fatalf("%s produced invalid options: %v", name, err)
		}
		if got := o.Named(); got != name {
			t.Errorf("NamedVariant(%q).Options().Named() = %q", name, got)
		}
	}
	// These three specs are fleet and perfbench inputs: their hashes
	// must not move.
	for name, want := range map[string]ProtocolSpec{
		"baseline":        {},
		"ownerTracking":   {Tracking: "owner", LLCWriteBack: true, UseL3OnWT: true},
		"sharersTracking": {Tracking: "owner+sharers", LLCWriteBack: true, UseL3OnWT: true},
	} {
		if v, _ := NamedVariant(name); v != want {
			t.Errorf("NamedVariant(%q) = %+v, want %+v", name, v, want)
		}
	}
	if _, err := NamedVariant("psychic"); err == nil {
		t.Fatal("unknown variant resolved")
	}
}
