package conform

import (
	"hscsim/internal/cachearray"
	"hscsim/internal/msg"
	"hscsim/internal/noc"
	"hscsim/internal/protocheck"
	"hscsim/internal/verify"
)

// This file is the seeded-bug registry: every protocol bug the repo
// plants to prove a checker can fail is one Mutant entry here, and
// every negative test, the differential minimizer test and
// `hscproto -killmatrix` read it from Mutants().

// Layer says where a mutant is seeded, and so which checkers can run it.
type Layer uint8

// Mutant layers.
const (
	// Fabric mutants rewrite or drop messages at delivery time. Mutate
	// is a pure, copy-on-write noc.Mutator: it never writes to its
	// argument and returns the same result for equal messages, because
	// the model checker replays action prefixes from scratch
	// (verify.Config.Mutate) and the simulator releases the original
	// message after a rewrite (system.Config.Mutate).
	Fabric Layer = iota
	// Model mutants toggle a protocheck.Bug in the abstract one-line
	// model that -reach and -live explore.
	Model
)

func (l Layer) String() string {
	if l == Model {
		return "model"
	}
	return "fabric"
}

// Violation classes a fabric mutant's witness may report.
var (
	// wedgeRules: a lost message strands a transaction.
	wedgeRules = []string{"deadlock", "leak", "livelock"}
	// coherenceRules: a stale or duplicated copy breaks the oracle.
	coherenceRules = []string{"swmr", "data-value", "mirror", "final-stale-copy", "final-lost-write"}
)

// Mutant is one seeded protocol bug.
type Mutant struct {
	Name  string
	Layer Layer
	Doc   string // one line: what the bug does

	// Mutate is the fabric mutator (Fabric layer only).
	Mutate noc.Mutator
	// Witness is a small checker scenario that provokes a fabric
	// mutant; every paper variant must catch it there.
	Witness verify.Scenario
	// Rules lists the violation rules the witness may report.
	Rules []string
	// BreaksReadSharing, when non-empty, says why the mutant corrupts
	// even read-only sharing traffic, which exempts it from the check
	// that mutants pass such traffic through untouched.
	BreaksReadSharing string

	// Bug is the abstract-model witness (Model layer only): the
	// configuration, with its Bug toggle set, whose exploration
	// provokes the mutant.
	Bug protocheck.ModelConfig
}

// Mutants returns the registry in its fixed order: fabric mutants
// first, then one entry per protocheck.Bug value.
func Mutants() []Mutant {
	const a, b = cachearray.LineAddr(0x10), cachearray.LineAddr(0x12) // same L2 set
	ld := verify.AgentOp{Kind: verify.Load, Line: a}
	st := verify.AgentOp{Kind: verify.Store, Line: a}
	contention := verify.Scenarios()[0] // single-line-contention forces probes
	return []Mutant{
		{
			Name: "weaken-probes", Layer: Fabric,
			Doc:     "every invalidating probe becomes a downgrade, so probed caches keep stale Shared copies",
			Mutate:  weakenProbes,
			Witness: contention,
			Rules:   coherenceRules,
		},
		{
			// CPU0's store dirties the line; CPU1's load probes the
			// owner, whose dirty acknowledgment is dropped.
			Name: "drop-dirty-ack", Layer: Fabric,
			Doc:    "probe acknowledgments carrying modified data are dropped; the probing transaction wedges",
			Mutate: dropDirtyProbeAck,
			Witness: verify.Scenario{
				Name:  "mut-drop-dirty-ack",
				Lines: []cachearray.LineAddr{a},
				CPU0:  []verify.AgentOp{st},
				CPU1:  []verify.AgentOp{ld},
			},
			Rules: wedgeRules,
		},
		{
			// CPU0 dirties a, conflict-evicts it (the victim never
			// arrives), then touches a again.
			Name: "reorder-victims", Layer: Fabric,
			Doc:    "victim write-backs are delayed forever (dropped); the evictor wedges on the WBAck",
			Mutate: reorderVictims,
			Witness: verify.Scenario{
				Name:  "mut-reorder-victims",
				Lines: []cachearray.LineAddr{a, b},
				CPU0:  []verify.AgentOp{st, {Kind: verify.Store, Line: b}, ld},
				CPU1:  []verify.AgentOp{ld},
			},
			Rules: wedgeRules,
		},
		{
			// CPU1 becomes a sharer the mask forgets: CPU0's write
			// leaves CPU1's Shared copy alive.
			Name: "stale-sharer-mask", Layer: Fabric,
			Doc:    "invalidating probes bound for cpu1 become downgrades, as if the sharer mask forgot it",
			Mutate: staleSharerMaskCPU1,
			Witness: verify.Scenario{
				Name:  "mut-stale-sharer-mask",
				Lines: []cachearray.LineAddr{a},
				CPU0:  []verify.AgentOp{st},
				CPU1:  []verify.AgentOp{ld, ld},
			},
			Rules: coherenceRules,
		},
		{
			Name: "drop-prback-cpu1", Layer: Fabric,
			Doc:               "every probe acknowledgment cpu1 sends is dropped; the directory waits forever for its ack count",
			Mutate:            dropProbeAcksFromCPU1,
			Witness:           contention,
			Rules:             []string{"deadlock", "leak"},
			BreaksReadSharing: "clean acknowledgments of downgrade probes are dropped too",
		},
		{
			// CPU0 loads (Exclusive); CPU1's load downgrades it and is
			// granted Shared, which arrives as Modified.
			Name: "upgrade-shared-grant", Layer: Fabric,
			Doc:    "Shared grants to the first two CPU L2s arrive as Modified, so two writable copies coexist",
			Mutate: upgradeSharedGrant,
			Witness: verify.Scenario{
				Name:  "mut-upgrade-shared-grant",
				Lines: []cachearray.LineAddr{a},
				CPU0:  []verify.AgentOp{ld},
				CPU1:  []verify.AgentOp{ld},
			},
			Rules:             coherenceRules,
			BreaksReadSharing: "a read-shared line is exactly what it upgrades",
		},
		{
			Name: "victim-refetch", Layer: Model,
			Doc: "a line still in the victim buffer is re-fetched instead of stalling until its WBAck",
			Bug: protocheck.ModelConfig{Mode: protocheck.ModeStateless, EDR: true, Bug: protocheck.BugVictimRefetch},
		},
		{
			Name: "evict-during-upgrade", Layer: Model,
			Doc: "a conflicting fill evicts a line whose upgrade RdBlkM is still outstanding",
			Bug: protocheck.ModelConfig{Mode: protocheck.ModeStateless, Bug: protocheck.BugEvictDuringUpgrade},
		},
		{
			Name: "drop-wake", Layer: Model,
			Doc: "the WBAck never retires the victim buffer, starving whatever stalls behind it",
			Bug: protocheck.ModelConfig{Mode: protocheck.ModeStateless, EDR: true, Bug: protocheck.BugDropWake},
		},
		{
			Name: "skip-ack", Layer: Model,
			Doc: "the directory responds before the active transaction's probe acks drain",
			Bug: protocheck.ModelConfig{Mode: protocheck.ModeTrackOwnerSharers, EDR: true, Bug: protocheck.BugSkipAck},
		},
	}
}

// weakenProbes rewrites every invalidating probe into a downgrading
// one, so the probed cache keeps a Shared copy the directory believes
// invalidated. The next conflicting write violates SWMR.
func weakenProbes(m *msg.Message) *msg.Message {
	if m.Type == msg.PrbInv {
		c := *m
		c.Type = msg.PrbDowngrade
		return &c
	}
	return m
}

// dropDirtyProbeAck drops every probe acknowledgment that carries
// modified data. The directory's transaction then waits forever for the
// owner's response (or, with early dirty response, the requester never
// receives its data).
func dropDirtyProbeAck(m *msg.Message) *msg.Message {
	if m.Type == msg.PrbAck && m.Dirty {
		return nil
	}
	return m
}

// reorderVictims models victim write-backs reordered behind demand
// traffic, in the limiting case: the victim is delayed forever
// (dropped). Probes are answered from the evictor's victim buffer, so
// reads stay coherent, but the directory never acknowledges the
// write-back and the evicting cache's next access to the line stalls on
// the WBAck that cannot arrive.
func reorderVictims(m *msg.Message) *msg.Message {
	if m.Type == msg.VicDirty || m.Type == msg.VicClean {
		return nil
	}
	return m
}

// staleSharerMaskCPU1 models node 1 (the second CorePair L2) missing
// from a full-map directory's sharer mask: every invalidating probe
// bound for it is demoted to a downgrade.
func staleSharerMaskCPU1(m *msg.Message) *msg.Message {
	if m.Type == msg.PrbInv && m.Dst == 1 {
		c := *m
		c.Type = msg.PrbDowngrade
		return &c
	}
	return m
}

// dropProbeAcksFromCPU1 drops every probe acknowledgment node 1 sends.
func dropProbeAcksFromCPU1(m *msg.Message) *msg.Message {
	if m.Type == msg.PrbAck && m.Src == 1 {
		return nil
	}
	return m
}

// upgradeSharedGrant turns a Shared grant to node 0 or 1 (the first two
// CorePair L2s) into a Modified one.
func upgradeSharedGrant(m *msg.Message) *msg.Message {
	if m.Type == msg.Resp && m.Grant == msg.GrantS && m.Dst < 2 {
		c := *m
		c.Grant = msg.GrantM
		return &c
	}
	return m
}
