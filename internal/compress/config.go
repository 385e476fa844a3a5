package compress

import "fmt"

// Spec identifies one compression configuration by the labels the paper
// uses in Figures 2, 6 and 7.
type Spec struct {
	// Kind is "none", "perfect", "dbrc" or "stride".
	Kind string
	// Entries is the DBRC compression-cache size (ignored otherwise).
	Entries int
	// LowOrderBytes is the uncompressed low-order size for DBRC/Perfect,
	// or the delta size for Stride (1 or 2).
	LowOrderBytes int
}

// Label returns the paper's bar/line label for the spec.
func (s Spec) Label() string {
	switch s.Kind {
	case "none":
		return "baseline"
	case "perfect":
		return fmt.Sprintf("perfect (%dB LO)", s.LowOrderBytes)
	case "dbrc":
		return fmt.Sprintf("%d-entry DBRC (%dB LO)", s.Entries, s.LowOrderBytes)
	case "stride":
		return fmt.Sprintf("%d-byte Stride", s.LowOrderBytes)
	}
	return "unknown"
}

// Validate checks the spec's parameters against the ranges its codec
// accepts, so a bad flag or sweep entry is an error where it is
// decoded; the constructors' panics are left to catch programmatic
// misuse (DESIGN.md §14.1).
func (s Spec) Validate() error {
	switch s.Kind {
	case "none":
		return nil
	case "dbrc":
		if s.Entries < 1 || s.Entries > 256 {
			return fmt.Errorf("compress: DBRC entries must be 1..256, got %d", s.Entries)
		}
	case "perfect", "stride":
	default:
		return fmt.Errorf("compress: unknown scheme kind %q", s.Kind)
	}
	if s.LowOrderBytes < 1 || s.LowOrderBytes > 2 {
		return fmt.Errorf("compress: %s low-order bytes must be 1 or 2, got %d", s.Kind, s.LowOrderBytes)
	}
	return nil
}

// Build validates the spec and instantiates its codec for a CMP with
// the given core count.
func (s Spec) Build(cores int) (Codec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case "none":
		return NewNone(), nil
	case "perfect":
		return NewPerfect(s.LowOrderBytes), nil
	case "dbrc":
		return NewDBRC(s.Entries, s.LowOrderBytes, cores), nil
	case "stride":
		return NewStride(s.LowOrderBytes, cores), nil
	}
	return nil, fmt.Errorf("compress: unknown scheme kind %q", s.Kind)
}

// CompressedPayloadBytes returns the hit payload size of the codec Build
// would return, without building it: a DBRC's per-pair state grows with
// the square of the core count, so the VL width must not cost one.
func (s Spec) CompressedPayloadBytes() (int, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if s.Kind == "none" {
		return NewNone().CompressedPayloadBytes(), nil
	}
	return s.LowOrderBytes, nil
}

// Table1Scheme maps the spec to its hardware-cost row name: a paper
// Table 1 row for the tabulated points, a name the cacti surrogate can
// model for untabulated DBRC sizes, or "" when the spec has no hardware
// (none/perfect).
func (s Spec) Table1Scheme() string {
	switch s.Kind {
	case "dbrc":
		return fmt.Sprintf("%d-entry DBRC", s.Entries)
	case "stride":
		return "2-byte Stride" // Table 1 costs the 2-byte point; 1-byte is no cheaper to first order
	}
	return ""
}

// Figure2Specs returns the compression configurations evaluated in paper
// Figure 2 (coverage study).
func Figure2Specs() []Spec {
	return []Spec{
		{Kind: "stride", LowOrderBytes: 1},
		{Kind: "stride", LowOrderBytes: 2},
		{Kind: "dbrc", Entries: 4, LowOrderBytes: 1},
		{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		{Kind: "dbrc", Entries: 16, LowOrderBytes: 1},
		{Kind: "dbrc", Entries: 16, LowOrderBytes: 2},
		{Kind: "dbrc", Entries: 64, LowOrderBytes: 1},
		{Kind: "dbrc", Entries: 64, LowOrderBytes: 2},
	}
}

// Figure6Specs returns the configurations whose bars appear in Figures 6
// and 7: the schemes with coverage over 80% in Figure 2.
func Figure6Specs() []Spec {
	return []Spec{
		{Kind: "stride", LowOrderBytes: 2},
		{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		{Kind: "dbrc", Entries: 16, LowOrderBytes: 1},
		{Kind: "dbrc", Entries: 16, LowOrderBytes: 2},
		{Kind: "dbrc", Entries: 64, LowOrderBytes: 1},
		{Kind: "dbrc", Entries: 64, LowOrderBytes: 2},
	}
}

// PerfectSpecs returns the perfect-compression bounds drawn as lines in
// Figure 6 (one per VL-Wire width; the 3-byte point corresponds to
// sending no address bits beyond the header, the 4- and 5-byte points to
// 1- and 2-byte low-order payloads).
func PerfectSpecs() []Spec {
	return []Spec{
		{Kind: "perfect", LowOrderBytes: 1},
		{Kind: "perfect", LowOrderBytes: 2},
	}
}
