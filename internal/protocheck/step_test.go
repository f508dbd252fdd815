package protocheck

import "testing"

// TestSuccessorsZeroAlloc: with a warmed buffer, successor generation
// allocates nothing. Arms and trace descriptions are interned, so the
// explorer's hot loop over millions of states is pure integer work;
// the sample spans all four configurations' reachable sets.
func TestSuccessorsZeroAlloc(t *testing.T) {
	type sample struct {
		s   state
		cfg ModelConfig
	}
	var samples []sample
	for _, cfg := range Configs() {
		r := exploreCached(t, cfg)
		stride := len(r.exp.keys)/2000 + 1
		for id := 0; id < len(r.exp.keys); id += stride {
			samples = append(samples, sample{unpack(r.exp.keys[id]), cfg})
		}
	}
	var buf []succ
	for _, sm := range samples {
		buf = successorsInto(buf, sm.s, sm.cfg)
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, sm := range samples {
			buf = successorsInto(buf, sm.s, sm.cfg)
		}
	})
	if allocs != 0 {
		t.Errorf("successorsInto over %d reachable states: %.1f allocs per sweep, want 0", len(samples), allocs)
	}
}
