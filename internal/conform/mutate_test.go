package conform

import (
	"slices"
	"testing"

	"hscsim/internal/cachearray"
	"hscsim/internal/msg"
	"hscsim/internal/verify"
)

// mutant returns the registry entry called name.
func mutant(t *testing.T, name string) Mutant {
	t.Helper()
	for _, m := range Mutants() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("mutant %s missing from the registry", name)
	return Mutant{}
}

// TestMutantRegistryWellFormed: names are unique and each entry
// carries exactly the fields of its layer.
func TestMutantRegistryWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range Mutants() {
		if m.Name == "" || m.Doc == "" || seen[m.Name] {
			t.Errorf("entry %q: empty or duplicate name, or no doc line", m.Name)
		}
		seen[m.Name] = true
		fabric := m.Mutate != nil && m.Witness.Name != "" && len(m.Rules) > 0
		model := m.Bug.Bug != 0
		if (m.Layer == Fabric) != fabric || (m.Layer == Model) != model || fabric == model {
			t.Errorf("entry %s: %s layer with mutator=%t witness=%q rules=%v bug=%d",
				m.Name, m.Layer, m.Mutate != nil, m.Witness.Name, m.Rules, m.Bug.Bug)
		}
	}
}

// TestEveryVariantCatchesEveryWeakening runs every fabric mutant on its
// witness scenario under each of the six paper variants: the model
// checker must report a violation of one of the entry's rules, with a
// counterexample that replays from scratch. The fault-injection library
// is only trustworthy if no configuration masks a seeded bug.
func TestEveryVariantCatchesEveryWeakening(t *testing.T) {
	for _, m := range Mutants() {
		if m.Layer != Fabric {
			continue
		}
		for _, opts := range verify.Variants() {
			m, opts := m, opts
			t.Run(m.Name+"/"+opts.Named(), func(t *testing.T) {
				t.Parallel()
				res := verify.Run(verify.Config{Opts: opts, Scenario: m.Witness, Mutate: m.Mutate})
				v := res.Violation
				if v == nil {
					t.Fatalf("not caught (states=%d paths=%d truncated=%v)", res.States, res.Paths, res.Truncated)
				}
				if !slices.Contains(m.Rules, v.Err.Rule) {
					t.Fatalf("caught as rule %q, want one of %v:\n%s", v.Err.Rule, m.Rules, v)
				}
				for i, step := range v.Trace {
					if step == "<replay diverged>" {
						t.Fatalf("trace step %d diverged on replay:\n%s", i+1, v)
					}
				}
				t.Logf("caught: %v", v.Err)
			})
		}
	}
}

// TestWeakeningsAreIdentityOnHealthyTraffic guards against mutators
// that break the protocol by rewriting messages they should pass
// through: with no store in flight there is no dirty ack, no dirty
// victim, and no invalidation, so a read-sharing scenario must stay
// clean under every fabric mutant that does not declare otherwise.
func TestWeakeningsAreIdentityOnHealthyTraffic(t *testing.T) {
	const a = cachearray.LineAddr(0x10)
	sc := verify.Scenario{
		Name:  "mut-healthy",
		Lines: []cachearray.LineAddr{a},
		CPU0:  []verify.AgentOp{{Kind: verify.Load, Line: a}},
		CPU1:  []verify.AgentOp{{Kind: verify.Load, Line: a}},
	}
	for _, m := range Mutants() {
		if m.Layer != Fabric {
			continue
		}
		if m.BreaksReadSharing != "" {
			t.Logf("%s: exempt, %s", m.Name, m.BreaksReadSharing)
			continue
		}
		res := verify.Run(verify.Config{Opts: verify.Variants()[0], Scenario: sc, Mutate: m.Mutate})
		if res.Violation != nil {
			t.Errorf("mutator %s corrupts healthy read-sharing traffic: %v", m.Name, res.Violation)
		}
	}
}

// TestFabricMutantsArePure pins the contract on verify.Config.Mutate
// and system.Config.Mutate: a fabric mutant never writes to the message
// it is handed (a rewrite is a copy) and returns equal results for
// equal messages. Every message type is fed in each combination of the
// fields the registry's mutators match on.
func TestFabricMutantsArePure(t *testing.T) {
	var samples []msg.Message
	for ty := msg.RdBlk; ty <= msg.Unblock; ty++ {
		for _, node := range []msg.NodeID{0, 1, 3} {
			for _, grant := range []msg.Grant{msg.GrantS, msg.GrantM} {
				for _, dirty := range []bool{false, true} {
					samples = append(samples, msg.Message{
						Type: ty, Addr: 0x10, Src: node, Dst: node,
						HasData: dirty, Dirty: dirty, Grant: grant, TxnID: 7,
					})
				}
			}
		}
	}
	for _, m := range Mutants() {
		if m.Layer != Fabric {
			continue
		}
		for _, in := range samples {
			arg := in
			out := m.Mutate(&arg)
			if arg != in {
				t.Errorf("%s wrote to its argument: %s became %s", m.Name, &in, &arg)
			}
			arg2 := in
			out2 := m.Mutate(&arg2)
			if (out == nil) != (out2 == nil) || out != nil && *out != *out2 {
				t.Errorf("%s is not deterministic on %s: %v then %v", m.Name, &in, out, out2)
			}
		}
	}
}
