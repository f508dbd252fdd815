package protocheck_test

import (
	"testing"

	"hscsim/internal/conform"
	"hscsim/internal/core"
	"hscsim/internal/protocheck"
	"hscsim/internal/system"
)

// TestEveryBugHasOneMutant: each seeded Bug value is named by exactly
// one model-layer entry of the registry, so the kill matrix runs it.
func TestEveryBugHasOneMutant(t *testing.T) {
	entries := make(map[protocheck.Bug]int)
	for _, m := range conform.Mutants() {
		if m.Layer == conform.Model {
			entries[m.Bug.Bug]++
		}
	}
	for b := protocheck.BugNone + 1; b < protocheck.NumBugs; b++ {
		if entries[b] != 1 {
			t.Errorf("Bug %d has %d registry entries, want 1", b, entries[b])
		}
	}
	if len(entries) != int(protocheck.NumBugs)-1 {
		t.Errorf("registry names %d Bug values, want %d", len(entries), protocheck.NumBugs-1)
	}
}

// TestModelMutantWitnesses: each model entry's witness configuration
// exposes its bug, as a safety violation or, when the exploration is
// safety-clean, as a liveness lasso.
func TestModelMutantWitnesses(t *testing.T) {
	for _, m := range conform.Mutants() {
		if m.Layer != conform.Model {
			continue
		}
		r, err := protocheck.Explore(m.Bug, protocheck.ExploreOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Violation != nil {
			continue
		}
		l, err := r.Liveness()
		if err != nil {
			t.Fatal(err)
		}
		if l.Lasso == nil {
			t.Errorf("%s: witness %s is safe and live (%d states)", m.Name, m.Bug, r.States)
		}
	}
}

// TestContainmentCatchesGrantMutation: upgrading a Shared grant to
// Modified in flight puts the concrete system into composite states
// (two exclusive CPU copies) outside the verified reachable set — the
// containment check must flag them.
func TestContainmentCatchesGrantMutation(t *testing.T) {
	var upgrade conform.Mutant
	for _, m := range conform.Mutants() {
		if m.Name == "upgrade-shared-grant" {
			upgrade = m
		}
	}
	if upgrade.Mutate == nil {
		t.Fatal("upgrade-shared-grant missing from the registry")
	}
	opts := core.Options{EarlyDirtyResponse: true}
	r := protocheck.ExploreCached(t, protocheck.ConfigFor(opts))
	cfg := protocheck.ObserverConfig(opts)
	cfg.Mutate = upgrade.Mutate
	sys := system.New(cfg)
	obs, err := protocheck.NewObserver(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(protocheck.ContendedWorkload(11)); err != nil {
		t.Fatal(err)
	}
	findings := obs.Contained(r)
	if len(findings) == 0 {
		states, samples, _ := obs.Stats()
		t.Fatalf("grant mutation escaped containment (%d states from %d samples)", states, samples)
	}
	t.Logf("caught: %s", findings[0].Detail)
}
