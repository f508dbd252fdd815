package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"hscsim/internal/core"
)

// MaxSweepCells bounds server-side sweep expansion: a single POST
// /sweeps may not expand into more cells than this. The limit protects
// a fleet node from a small request body describing an enormous cross
// product (benches × variants × points is multiplicative).
const MaxSweepCells = 4096

// SweepPoint is one structural point of a sweep grid: a topology
// override plus an optional per-point thread count (CPU-scaling sweeps
// grow threads with CorePairs). Label is echoed back per cell so
// clients can render tables without re-deriving the grid.
type SweepPoint struct {
	Label    string       `json:"label,omitempty"`
	Topology TopologySpec `json:"topology"`
	Threads  int          `json:"threads,omitempty"`
}

// SweepSpec describes a whole design-space sweep in one request:
// benches × protocol variants × topology points, expanded server-side
// into canonical Spec cells. The expansion order is deterministic
// (bench-major, then variant, then point), so cell indices are stable
// across nodes and re-submissions.
type SweepSpec struct {
	Benches  []string       `json:"benches"`
	Variants []ProtocolSpec `json:"variants,omitempty"`
	Points   []SweepPoint   `json:"points,omitempty"`
	Scale    int            `json:"scale,omitempty"`
	Threads  int            `json:"threads,omitempty"`
	Seed     int64          `json:"seed,omitempty"`
	Config   string         `json:"config,omitempty"`
	Oracle   bool           `json:"oracle,omitempty"`
	MaxTicks uint64         `json:"maxTicks,omitempty"`
}

// Normalized fills defaults (one empty variant / one default point) so
// equivalent sweeps encode — and therefore ID — identically.
func (s SweepSpec) Normalized() SweepSpec {
	if len(s.Variants) == 0 {
		s.Variants = []ProtocolSpec{{}}
	}
	if len(s.Points) == 0 {
		s.Points = []SweepPoint{{}}
	}
	if s.Scale <= 0 {
		s.Scale = 1
	}
	if s.Config == "" {
		s.Config = ConfigEval
	}
	return s
}

// Cells expands the sweep into its canonical job specs. Every cell is
// Normalized, so cell hashes are exactly the hashes the single-job API
// would assign.
func (s SweepSpec) Cells() ([]Spec, error) {
	s = s.Normalized()
	if len(s.Benches) == 0 {
		return nil, fmt.Errorf("engine: sweep has no benches")
	}
	n := len(s.Benches) * len(s.Variants) * len(s.Points)
	if n > MaxSweepCells {
		return nil, fmt.Errorf("engine: sweep expands to %d cells (max %d)", n, MaxSweepCells)
	}
	cells := make([]Spec, 0, n)
	for _, b := range s.Benches {
		for _, v := range s.Variants {
			for _, p := range s.Points {
				threads := s.Threads
				if p.Threads > 0 {
					threads = p.Threads
				}
				cells = append(cells, Spec{
					Bench:    b,
					Scale:    s.Scale,
					Threads:  threads,
					Seed:     s.Seed,
					Protocol: v,
					Topology: p.Topology,
					Config:   s.Config,
					Oracle:   s.Oracle,
					MaxTicks: s.MaxTicks,
				}.Normalized())
			}
		}
	}
	return cells, nil
}

// Validate expands the sweep and validates every cell, so a bad bench
// name or impossible topology is rejected before any cell runs.
func (s SweepSpec) Validate() error {
	cells, err := s.Cells()
	if err != nil {
		return err
	}
	for i, c := range cells {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("engine: sweep cell %d: %w", i, err)
		}
	}
	return nil
}

// ID is the sweep's content address: SHA-256 over the code version and
// the canonical encoding of the normalized sweep. Re-submitting the
// same sweep yields the same ID, which is what makes GET /sweeps/{id}
// resumption and coordinator dedup work.
func (s SweepSpec) ID() string {
	b, err := json.Marshal(s.Normalized())
	if err != nil {
		panic(fmt.Sprintf("engine: canonical sweep encoding failed: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(Version))
	h.Write([]byte("\nsweep\n"))
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// namedVariants are the protocol variants behind the paper's figure
// legends, the names core.Options.Named produces.
var namedVariants = []core.Options{
	{},
	{EarlyDirtyResponse: true},
	{NoWBCleanVicToMem: true},
	{NoWBCleanVicToMem: true, NoWBCleanVicToLLC: true},
	{LLCWriteBack: true},
	{LLCWriteBack: true, UseL3OnWT: true},
	{Tracking: core.TrackOwner, LLCWriteBack: true, UseL3OnWT: true},
	{Tracking: core.TrackOwnerSharers, LLCWriteBack: true, UseL3OnWT: true},
}

// NamedVariant resolves a figure-legend variant name (baseline,
// earlyResp, noWBcleanVic, noWBcleanVicLLC, llcWB, llcWB+useL3OnWT,
// ownerTracking, sharersTracking), the one name table shared by the
// CLIs and the fleet API examples.
func NamedVariant(name string) (ProtocolSpec, error) {
	names := make([]string, len(namedVariants))
	for i, o := range namedVariants {
		if o.Named() == name {
			return ProtocolFromOptions(o), nil
		}
		names[i] = o.Named()
	}
	return ProtocolSpec{}, fmt.Errorf("engine: unknown protocol variant %q (%s)", name, strings.Join(names, ", "))
}
