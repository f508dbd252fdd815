package protocheck

import (
	"testing"

	"hscsim/internal/core"
	"hscsim/internal/system"
)

// TestDynamicContainment: every composite state the concrete simulator
// is observed in (at line quiescence) must be reachable in the verified
// abstract model — the soundness link between the static proof and the
// real controllers.
func TestDynamicContainment(t *testing.T) {
	variants := []core.Options{
		{EarlyDirtyResponse: true},
		{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwner},
		{EarlyDirtyResponse: true, LLCWriteBack: true, Tracking: core.TrackOwnerSharers},
	}
	for _, opts := range variants {
		opts := opts
		t.Run(opts.Named(), func(t *testing.T) {
			mcfg := ConfigFor(opts)
			r := exploreCached(t, mcfg)
			if r.Violation != nil {
				t.Fatal(r.Violation)
			}
			sys := system.New(ObserverConfig(opts))
			obs, err := NewObserver(sys)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(ContendedWorkload(7)); err != nil {
				t.Fatal(err)
			}
			for _, f := range obs.Contained(r) {
				t.Errorf("%s", f)
			}
			states, samples, skipped := obs.Stats()
			t.Logf("%s: %d distinct observed states (%d samples, %d busy-line skips), %d stable reachable",
				mcfg, states, samples, skipped, len(r.Stable))
			if states < 4 {
				t.Errorf("only %d distinct states observed — workload not exercising the protocol?", states)
			}
		})
	}
}
