package protocheck

import "fmt"

// Canonicalization and packed state keys.
//
// The two CPU L2 agents are fully symmetric: no field of the composite
// state refers to an agent by index (ownership and requester identity
// live inside the agent tuples themselves), so swapping them maps
// reachable states to reachable states and preserves every checked
// property — the safety invariants and stability are both permutation-
// invariant. Exploration therefore hashes the *orbit representative*
// (agents in ascending code order), which roughly halves the visited
// set. Soundness for liveness holds too: a path in the quotient graph
// lifts to a real path up to a per-step agent relabeling, and since
// relabelings compose and stability is symmetric, a quotient lasso that
// never stabilizes corresponds to a concrete infinite run that never
// stabilizes. The nightly cross-check (CrossCheckSymmetry) explores
// without the reduction and verifies that canonicalizing the unreduced
// set reproduces the reduced one exactly.
//
// States are keyed by one uint64. Every field of the composite state
// is a small enum, so each field's code is its byte's index in an
// alphabet listed in ascending byte order, and the codes are packed
// most-significant-first in the state's tuple order (agent 0, agent 1,
// TCC, counters, directory) — 54 bits in all. The key is bijective with
// the state (pack/unpack round-trip), so the explorer needs no id→state
// table beyond its key slice. Because codes follow byte order and fields
// follow tuple order, numeric key order is the lexicographic order of
// the state's bytes: canon compares agent codes, and sorted key lists
// read in state order. Keys live in an open-addressed visited table
// (below) rather than a Go map, so a lookup is one multiply and usually
// one cache line.

// skey is the packed encoding of a composite state, used as the visited
// key. The encoding is bijective: unpack(pack(s)) == s. The top bits are
// never set, so emptyKey cannot collide with a real state.
type skey uint64

// field is one enum-valued byte field of the state: its alphabet in
// ascending byte order, its code width, and the maps between bytes and
// codes.
type field struct {
	name  string
	alpha string
	bits  uint
	mask  uint64    // 1<<bits - 1
	code  [256]int8 // byte → code, -1 outside the alphabet
	sym   [16]byte  // code → byte
}

func newField(name, alpha string) field {
	f := field{name: name, alpha: alpha}
	for 1<<f.bits < len(alpha) {
		f.bits++
	}
	if len(alpha) > len(f.sym) {
		panic("protocheck: field alphabet " + name + " has more than 16 letters")
	}
	f.mask = 1<<f.bits - 1
	for i := range f.code {
		f.code[i] = -1
	}
	for i := 0; i < len(alpha); i++ {
		if i > 0 && alpha[i] <= alpha[i-1] {
			panic("protocheck: field alphabet " + name + " is not in ascending byte order")
		}
		f.code[alpha[i]] = int8(i)
		f.sym[i] = alpha[i]
	}
	return f
}

// The state's fields.
var (
	fCache  = newField("agent cache", "EIMOS")
	fWBPh   = newField("agent victim phase", "-afo")
	fMiss   = newField("agent miss", "-mrs")
	fMissP  = newField("agent miss phase", "-EMSao")
	fPrb    = newField("agent probe", "-cdimn")
	fTCache = newField("tcc cache", "IV")
	fTMissP = newField("tcc miss phase", "-aor")
	fTPrb   = newField("tcc probe", "-din")
	fSat    = newField("saturating counter", "01")
	fBusy   = newField("directory busy", "-AERTVWrw")
	fEntry  = newField("directory entry", "-OS")
)

// agentBits is the width of one packed agent: cache, victim phase,
// miss, miss phase, probe, and four flag bits.
var agentBits = fCache.bits + fWBPh.bits + fMiss.bits + fMissP.bits + fPrb.bits + 4

// restBits is the width of everything after the two agents: the TCC
// (cache, miss phase, probe, then a five-bit group of the saturating
// DMA and TCC counters and the TCC sharer bit) and the directory (busy,
// entry, four flag bits).
var restBits = fTCache.bits + fTMissP.bits + fTPrb.bits + 4*fSat.bits + 1 + fBusy.bits + fEntry.bits + 4

// emptyKey marks a free slot of the visited table: keys never reach
// their top bit.
const emptyKey = ^skey(0)

// enc accumulates a key most-significant field first. The alphabet
// check is deferred: bad collects every code's sign bit, and the
// finished key is checked once.
type enc struct {
	k   uint64
	bad int8
}

func (e *enc) put(f *field, b byte) {
	c := f.code[b]
	e.bad |= c
	e.k = e.k<<f.bits | uint64(uint8(c))
}

func (e *enc) flag(b bool) {
	e.k <<= 1
	if b {
		e.k |= 1
	}
}

// dec reads a key back least-significant field first.
type dec uint64

func (d *dec) get(f *field) byte {
	b := f.sym[uint64(*d)&f.mask&15]
	*d >>= f.bits
	return b
}

func (d *dec) flag() bool {
	b := *d&1 != 0
	*d >>= 1
	return b
}

// agentCode packs one agent tuple in its tuple order: cache, victim
// phase, miss, miss phase, probe, then the flag nibble
// Shr|Own|Unb|WBDty (most significant first).
func agentCode(a *agent) enc {
	var e enc
	e.put(&fCache, a.Cache)
	e.put(&fWBPh, a.WBPh)
	e.put(&fMiss, a.Miss)
	e.put(&fMissP, a.MissP)
	e.put(&fPrb, a.Prb)
	e.flag(a.Shr)
	e.flag(a.Own)
	e.flag(a.Unb)
	e.flag(a.WBDty)
	return e
}

func unpackAgent(d *dec) agent {
	var a agent
	a.WBDty, a.Unb, a.Own, a.Shr = d.flag(), d.flag(), d.flag(), d.flag()
	a.Prb = d.get(&fPrb)
	a.MissP = d.get(&fMissP)
	a.Miss = d.get(&fMiss)
	a.WBPh = d.get(&fWBPh)
	a.Cache = d.get(&fCache)
	return a
}

// restCode packs the TCC, DMA and directory fields. The saturating
// {'0','1'} counters (DMA write/read, TCC Atomic/WT) and the TCC sharer
// bit form one five-bit group.
func restCode(s *state) enc {
	var e enc
	t := &s.TCC
	e.put(&fTCache, t.Cache)
	e.put(&fTMissP, t.MissP)
	e.put(&fTPrb, t.Prb)
	e.put(&fSat, s.DMA.Wr)
	e.put(&fSat, s.DMA.Rd)
	e.put(&fSat, t.At)
	e.put(&fSat, t.Wt)
	e.flag(t.Shr)
	d := &s.Dir
	e.put(&fBusy, d.Busy)
	e.put(&fEntry, d.Entry)
	e.flag(d.Rspd)
	e.flag(d.GotM)
	e.flag(d.GotD)
	e.flag(d.Prbd)
	return e
}

// join assembles a key from the two agent codes and the rest, panicking
// if any field byte fell outside its alphabet.
func join(s *state, a0, a1, rest enc) skey {
	if a0.bad|a1.bad|rest.bad < 0 {
		badField(s)
	}
	return skey(a0.k<<(agentBits+restBits) | a1.k<<restBits | rest.k)
}

// badField reports the first field byte of s outside its alphabet:
// like the other "model bug" panics, it means a step produced an
// unrepresentable state.
func badField(s *state) {
	check := func(f *field, b byte) {
		if f.code[b] < 0 {
			panic(fmt.Sprintf("model bug: %s byte %q outside its alphabet %q", f.name, b, f.alpha))
		}
	}
	for i := range s.Ag {
		a := &s.Ag[i]
		check(&fCache, a.Cache)
		check(&fWBPh, a.WBPh)
		check(&fMiss, a.Miss)
		check(&fMissP, a.MissP)
		check(&fPrb, a.Prb)
	}
	check(&fTCache, s.TCC.Cache)
	check(&fTMissP, s.TCC.MissP)
	check(&fTPrb, s.TCC.Prb)
	for _, b := range [4]byte{s.DMA.Wr, s.DMA.Rd, s.TCC.At, s.TCC.Wt} {
		check(&fSat, b)
	}
	check(&fBusy, s.Dir.Busy)
	check(&fEntry, s.Dir.Entry)
}

// pack encodes a state into its key.
func pack(s state) skey {
	return join(&s, agentCode(&s.Ag[0]), agentCode(&s.Ag[1]), restCode(&s))
}

// packCanon encodes the orbit representative of s: pack(s.canon())
// without encoding the agents twice.
func packCanon(s *state) skey {
	a0, a1 := agentCode(&s.Ag[0]), agentCode(&s.Ag[1])
	if a1.k < a0.k {
		a0, a1 = a1, a0
	}
	return join(s, a0, a1, restCode(s))
}

// unpack decodes a key back into the state it encodes.
func unpack(k skey) state {
	var s state
	d := dec(k)
	s.Dir.Prbd, s.Dir.GotD, s.Dir.GotM, s.Dir.Rspd = d.flag(), d.flag(), d.flag(), d.flag()
	s.Dir.Entry = d.get(&fEntry)
	s.Dir.Busy = d.get(&fBusy)
	t := &s.TCC
	t.Shr = d.flag()
	t.Wt = d.get(&fSat)
	t.At = d.get(&fSat)
	s.DMA.Rd = d.get(&fSat)
	s.DMA.Wr = d.get(&fSat)
	t.Prb = d.get(&fTPrb)
	t.MissP = d.get(&fTMissP)
	t.Cache = d.get(&fTCache)
	s.Ag[1] = unpackAgent(&d)
	s.Ag[0] = unpackAgent(&d)
	return s
}

// canon returns the orbit representative of s under the agent
// permutation: the two symmetric agents in ascending code order.
// Ownership and requester identity live inside the agent tuples, so
// sorting loses nothing — the two agents are exchangeable.
func (s state) canon() state {
	if agentCode(&s.Ag[1]).k < agentCode(&s.Ag[0]).k {
		s.Ag[0], s.Ag[1] = s.Ag[1], s.Ag[0]
	}
	return s
}

// ---------------------------------------------------------------------
// The visited table.

// visited maps state keys to ids by open addressing: linear probing
// over {key, id} slots at load ≤ ½, so a lookup usually touches one
// cache line. It grows only in the explorer's single-threaded merge and
// is read-only while workers expand a level, so lookups need no locks.
type visited struct {
	slots []vslot
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
	n     int
}

type vslot struct {
	key skey
	id  int32
}

func newVisited(capacity int) *visited {
	v := &visited{}
	v.alloc(capacity)
	return v
}

// alloc sizes an empty table for at least capacity keys at load ½.
func (v *visited) alloc(capacity int) {
	size, shift := 2, uint(63)
	for size < 2*capacity {
		size, shift = size*2, shift-1
	}
	v.slots = make([]vslot, size)
	for i := range v.slots {
		v.slots[i].key = emptyKey
	}
	v.shift = shift
}

// home is the first slot probed for k (Fibonacci hashing).
func (v *visited) home(k skey) uint64 {
	return (uint64(k) * 0x9E3779B97F4A7C15) >> v.shift
}

// get returns the id stored for k.
func (v *visited) get(k skey) (int32, bool) {
	mask := uint64(len(v.slots) - 1)
	for i := v.home(k); ; i = (i + 1) & mask {
		switch v.slots[i].key {
		case k:
			return v.slots[i].id, true
		case emptyKey:
			return 0, false
		}
	}
}

// add stores k ↦ id unless k is already present, reporting whether it
// stored.
func (v *visited) add(k skey, id int32) bool {
	if k == emptyKey {
		panic("protocheck: visited key collides with the empty-slot sentinel")
	}
	if 2*(v.n+1) > len(v.slots) {
		v.grow()
	}
	mask := uint64(len(v.slots) - 1)
	for i := v.home(k); ; i = (i + 1) & mask {
		switch v.slots[i].key {
		case k:
			return false
		case emptyKey:
			v.slots[i] = vslot{key: k, id: id}
			v.n++
			return true
		}
	}
}

// grow doubles the table and reinserts every key.
func (v *visited) grow() {
	old := v.slots
	v.alloc(len(old))
	mask := uint64(len(v.slots) - 1)
	for _, sl := range old {
		if sl.key == emptyKey {
			continue
		}
		i := v.home(sl.key)
		for v.slots[i].key != emptyKey {
			i = (i + 1) & mask
		}
		v.slots[i] = sl
	}
}

// CrossCheckSymmetry proves the symmetry reduction exact for one
// configuration by exploring it twice — reduced and unreduced — and
// checking that the canonical image of the unreduced reachable set is
// exactly the reduced reachable set (no state lost, none invented).
// This is the nightly CI guard for the ~2× reduction the per-push
// gates rely on.
func CrossCheckSymmetry(cfg ModelConfig, opts ExploreOpts) ([]Finding, *ReachResult, *ReachResult, error) {
	redOpts, unredOpts := opts, opts
	redOpts.NoSym, unredOpts.NoSym = false, true
	red, err := Explore(cfg, redOpts)
	if err != nil {
		return nil, nil, nil, err
	}
	unred, err := Explore(cfg, unredOpts)
	if err != nil {
		return nil, nil, nil, err
	}

	var findings []Finding
	fail := func(format string, args ...interface{}) {
		findings = append(findings, Finding{
			Analysis: "symcheck",
			Machine:  cfg.String(),
			Detail:   fmt.Sprintf(format, args...),
		})
	}
	if red.Violation != nil {
		fail("reduced exploration hit a safety violation: %v", red.Violation)
	}
	if unred.Violation != nil {
		fail("unreduced exploration hit a safety violation: %v", unred.Violation)
	}
	if len(findings) > 0 {
		return findings, red, unred, nil
	}

	// Every unreduced state must canonicalize into the reduced set, and
	// every reduced state must be hit by some unreduced state.
	hit := make([]bool, len(red.exp.keys))
	misses := 0
	for _, k := range unred.exp.keys {
		id, ok := red.exp.ids.get(pack(unpack(k).canon()))
		if !ok {
			if misses < 5 {
				fail("unreduced reachable state canonicalizes outside the reduced set: %s", unpack(k))
			}
			misses++
			continue
		}
		hit[id] = true
	}
	if misses > 5 {
		fail("… and %d more escaped states", misses-5)
	}
	unhit := 0
	for id, h := range hit {
		if !h {
			if unhit < 5 {
				fail("reduced state has no unreduced preimage: %s", unpack(red.exp.keys[id]))
			}
			unhit++
		}
	}
	if unhit > 5 {
		fail("… and %d more unmatched reduced states", unhit-5)
	}
	if unred.States < red.States || unred.States > 2*red.States {
		fail("state counts inconsistent with a 2-element symmetry group: reduced %d, unreduced %d",
			red.States, unred.States)
	}
	return findings, red, unred, nil
}
