package protocheck

import (
	"bytes"
	"cmp"
	"slices"
	"strings"
	"testing"
)

// TestPackUnpackRoundTrip: the packed key encoding is bijective over
// the whole reachable set — every visited state survives a
// pack/unpack round trip bit-for-bit.
func TestPackUnpackRoundTrip(t *testing.T) {
	r := exploreCached(t, ModelConfig{Mode: ModeStateless})
	for _, k := range r.exp.keys {
		if got := pack(unpack(k)); got != k {
			t.Fatalf("pack(unpack(k)) != k for %s", unpack(k))
		}
	}
}

// TestCanonIsOrbitRepresentative: every visited state is its own
// canonical form (the explorer only ever stores representatives), and
// swapping the two symmetric agents canonicalizes back to it.
func TestCanonIsOrbitRepresentative(t *testing.T) {
	r := exploreCached(t, ModelConfig{Mode: ModeStateless, EDR: true})
	for _, k := range r.exp.keys {
		s := unpack(k)
		if s.canon() != s {
			t.Fatalf("visited state is not canonical: %s", s)
		}
		sw := s
		sw.Ag[0], sw.Ag[1] = sw.Ag[1], sw.Ag[0]
		if sw.canon() != s {
			t.Fatalf("agent swap does not canonicalize back to the representative: %s", s)
		}
	}
}

// TestCrossCheckSymmetry: the reduction is exact for the stateless
// configuration — the canonical image of the unreduced reachable set
// is the reduced set. (The nightly hscproto -symcheck run covers all
// four configurations.)
func TestCrossCheckSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("unreduced exploration roughly doubles the state count")
	}
	findings, red, unred, err := CrossCheckSymmetry(ModelConfig{Mode: ModeStateless}, ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	t.Logf("reduced %d states, unreduced %d (%.3f×)",
		red.States, unred.States, float64(unred.States)/float64(red.States))
}

// oldPackAgent is the reference 6-byte agent tuple the packed key's
// code order must reproduce: the raw bytes in tuple order, then the
// flag byte WBDty|Unb<<1|Own<<2|Shr<<3.
func oldPackAgent(a agent) [6]byte {
	var f byte
	for i, b := range []bool{a.WBDty, a.Unb, a.Own, a.Shr} {
		if b {
			f |= 1 << i
		}
	}
	return [6]byte{a.Cache, a.WBPh, a.Miss, a.MissP, a.Prb, f}
}

// oldPack is the reference 19-byte state tuple: both agents, the TCC's
// cache, miss and probe bytes, a flag byte Shr|Wt<<1|At<<2|Rd<<3|Wr<<4,
// then the directory's busy and entry bytes and its flag byte
// Prbd|GotD<<1|GotM<<2|Rspd<<3.
func oldPack(s state) [19]byte {
	var k [19]byte
	a0, a1 := oldPackAgent(s.Ag[0]), oldPackAgent(s.Ag[1])
	copy(k[0:6], a0[:])
	copy(k[6:12], a1[:])
	flags := func(bits ...bool) byte {
		var f byte
		for i, b := range bits {
			if b {
				f |= 1 << i
			}
		}
		return f
	}
	t, d := s.TCC, s.Dir
	k[12], k[13], k[14] = t.Cache, t.MissP, t.Prb
	k[15] = flags(t.Shr, t.Wt == '1', t.At == '1', s.DMA.Rd == '1', s.DMA.Wr == '1')
	k[16], k[17] = d.Busy, d.Entry
	k[18] = flags(d.Prbd, d.GotD, d.GotM, d.Rspd)
	return k
}

// TestKeyOrderMatchesByteOrder: codes follow byte order and fields
// follow tuple order, so comparing packed codes is comparing the byte
// tuples. Over every reachable stateless state, the two agents compare
// the same way under both encodings (so canon picks the same
// representative), and ascending keys are ascending byte tuples (so
// sorted key lists read in the same order).
func TestKeyOrderMatchesByteOrder(t *testing.T) {
	r := exploreCached(t, ModelConfig{Mode: ModeStateless})
	for _, k := range r.exp.keys {
		s := unpack(k)
		for _, pair := range [2][2]agent{{s.Ag[0], s.Ag[1]}, {s.Ag[1], s.Ag[0]}} {
			a, b := pair[0], pair[1]
			codeCmp := cmp.Compare(agentCode(&a).k, agentCode(&b).k)
			oa, ob := oldPackAgent(a), oldPackAgent(b)
			if byteCmp := bytes.Compare(oa[:], ob[:]); codeCmp != byteCmp {
				t.Fatalf("agent order differs: code compare %d, byte compare %d, for %s", codeCmp, byteCmp, s)
			}
		}
	}
	keys := append([]skey(nil), r.exp.keys...)
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		prev, cur := oldPack(unpack(keys[i-1])), oldPack(unpack(keys[i]))
		if bytes.Compare(prev[:], cur[:]) >= 0 {
			t.Fatalf("key order is not byte-tuple order at %s → %s", unpack(keys[i-1]), unpack(keys[i]))
		}
	}
	if bits := 2*agentBits + restBits; bits >= 64 {
		t.Errorf("packed state needs %d bits; the empty-slot sentinel needs a free top bit", bits)
	}
}

// TestPackRejectsOutOfAlphabet: a byte outside its field's alphabet is
// a model bug, and pack panics naming the field.
func TestPackRejectsOutOfAlphabet(t *testing.T) {
	for _, c := range []struct {
		field string
		mut   func(*state)
	}{
		{"agent cache", func(s *state) { s.Ag[1].Cache = 'x' }},
		{"agent probe", func(s *state) { s.Ag[0].Prb = 0 }},
		{"tcc miss phase", func(s *state) { s.TCC.MissP = 'E' }},
		{"saturating counter", func(s *state) { s.TCC.Wt = '2' }},
		{"saturating counter", func(s *state) { s.DMA.Rd = 0 }},
		{"directory busy", func(s *state) { s.Dir.Busy = 'Z' }},
		{"directory entry", func(s *state) { s.Dir.Entry = 'M' }},
	} {
		s := initial()
		c.mut(&s)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "model bug: "+c.field) {
					t.Errorf("pack of a bad %s byte: panic %q, want one naming the field", c.field, msg)
				}
			}()
			pack(s)
		}()
	}
}

// TestVisitedTable: the open-addressed table keeps every key across
// several doublings, reports absent keys absent, stores key 0 like any
// other, and never overwrites an id.
func TestVisitedTable(t *testing.T) {
	v := newVisited(1)
	const n = 100_000
	keyOf := func(i int) skey { return skey(uint64(i) * 0x2545F4914F6CDD1D >> 11) } // spread, below the sentinel
	if _, ok := v.get(0); ok {
		t.Fatal("empty table reports key 0 present")
	}
	if !v.add(0, 7) {
		t.Fatal("add(0) reported the key present")
	}
	sizes := map[int]bool{len(v.slots): true}
	for i := 1; i <= n; i++ {
		if !v.add(keyOf(i), int32(i)) {
			t.Fatalf("add(key %d) reported the key present", i)
		}
		sizes[len(v.slots)] = true
		if 2*v.n > len(v.slots) {
			t.Fatalf("load %d/%d exceeds one half", v.n, len(v.slots))
		}
	}
	if len(sizes) < 5 {
		t.Errorf("table grew through only %d sizes", len(sizes))
	}
	if v.add(keyOf(5), -1) || v.add(0, -1) {
		t.Error("add of a present key reported a store")
	}
	if id, ok := v.get(0); !ok || id != 7 {
		t.Errorf("get(0) = %d, %t; want 7, true", id, ok)
	}
	for i := 1; i <= n; i++ {
		if id, ok := v.get(keyOf(i)); !ok || id != int32(i) {
			t.Fatalf("get(key %d) = %d, %t; want %d, true", i, id, ok, i)
		}
	}
	for i := n + 1; i <= 2*n; i++ {
		if _, ok := v.get(keyOf(i)); ok {
			t.Fatalf("absent key %d reported present", i)
		}
	}
	if v.n != n+1 {
		t.Errorf("table holds %d keys, want %d", v.n, n+1)
	}
}
