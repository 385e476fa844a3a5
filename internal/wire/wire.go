// Package wire models on-chip global interconnect wires: first-order RC
// delay (paper Eq. 1), repeater insertion, switching and leakage power
// (paper Eqs. 2-4), and the catalog of engineered wire implementations the
// paper builds on:
//
//   - Table 2 (from Cheng et al. [6]): baseline B-Wires on the 8X and 4X
//     metal planes, latency-optimized L-Wires, power-optimized PW-Wires.
//   - Table 3: very-low-latency VL-Wires sized for 3/4/5-byte channels.
//
// All published values assume a 65 nm process with 10 metal layers; 4X and
// 8X planes carry the global inter-core links.
package wire

import "fmt"

// Kind identifies one engineered wire implementation.
type Kind int

const (
	// B8X is the baseline wire on the 8X metal plane (the reference all
	// relative numbers are against).
	B8X Kind = iota
	// B4X is the baseline wire on the 4X plane: half the area, 1.6x the
	// latency.
	B4X
	// L8X is the latency-optimized wire of Cheng et al.: 2x faster at 4x
	// the area.
	L8X
	// PW4X is the power-optimized wire: fewer/smaller repeaters, 3.2x the
	// latency at 4X-plane area.
	PW4X
	// VL3B..VL5B are the paper's very-low-latency wires, sized so a whole
	// compressed message (3, 4 or 5 bytes) crosses in one flit.
	VL3B
	VL4B
	VL5B

	// NumKinds is the number of cataloged kinds: a Kind indexes an
	// array of NumKinds.
	NumKinds
)

// String returns the paper's name for the wire kind.
func (k Kind) String() string {
	switch k {
	case B8X:
		return "B-Wire (8X)"
	case B4X:
		return "B-Wire (4X)"
	case L8X:
		return "L-Wire (8X)"
	case PW4X:
		return "PW-Wire (4X)"
	case VL3B:
		return "VL-Wire (3B)"
	case VL4B:
		return "VL-Wire (4B)"
	case VL5B:
		return "VL-Wire (5B)"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Characteristics holds the published per-wire figures of merit.
// RelLatency and RelArea are relative to B8X. DynPowerWPerM is the dynamic
// power coefficient in W/m to be multiplied by the switching factor alpha;
// StaticWPerM is leakage power per meter of wire.
type Characteristics struct {
	Kind          Kind
	RelLatency    float64
	RelArea       float64
	DynPowerWPerM float64 // multiply by switching factor alpha
	StaticWPerM   float64
}

// catalog reproduces Table 2 and Table 3 of the paper verbatim.
var catalog = [NumKinds]Characteristics{
	B8X:  {B8X, 1.0, 1.0, 2.65, 1.0246},
	B4X:  {B4X, 1.6, 0.5, 2.9, 1.1578},
	L8X:  {L8X, 0.5, 4.0, 1.46, 0.5670},
	PW4X: {PW4X, 3.2, 0.5, 0.87, 0.3074},
	VL3B: {VL3B, 0.27, 14.0, 0.87, 0.3065},
	VL4B: {VL4B, 0.31, 10.0, 1.00, 0.3910},
	VL5B: {VL5B, 0.35, 8.0, 1.13, 0.4395},
}

// Lookup returns the published characteristics for a wire kind.
func Lookup(k Kind) Characteristics {
	if k < 0 || k >= NumKinds {
		panic(fmt.Sprintf("wire: unknown kind %d", int(k)))
	}
	return catalog[k]
}

// Kinds returns every cataloged wire kind, Table 2 rows first.
func Kinds() []Kind {
	return []Kind{B8X, B4X, L8X, PW4X, VL3B, VL4B, VL5B}
}

// Table2Kinds returns the wire kinds of paper Table 2.
func Table2Kinds() []Kind { return []Kind{B8X, B4X, L8X, PW4X} }

// Table3Kinds returns the VL-Wire kinds of paper Table 3.
func Table3Kinds() []Kind { return []Kind{VL3B, VL4B, VL5B} }

// VLForWidth returns the VL-Wire kind for a channel of the given width in
// bytes (3, 4 or 5), matching paper Table 3.
func VLForWidth(bytes int) (Kind, error) {
	switch bytes {
	case 3:
		return VL3B, nil
	case 4:
		return VL4B, nil
	case 5:
		return VL5B, nil
	}
	return 0, fmt.Errorf("wire: no VL-Wire design point for %d-byte channels (have 3, 4, 5)", bytes)
}

// System-level reference constants used throughout tilesim (paper Table 4).
const (
	// ClockHz is the system clock: 4 GHz cores and network.
	ClockHz = 4e9
	// LinkLengthM is the inter-router link length: 5 mm.
	LinkLengthM = 5e-3
	// BaselineLinkCycles is the B8X traversal time of one 5 mm link at
	// 4 GHz: 2.0 ns => 8 cycles, i.e. 0.4 ns/mm for a repeatered global
	// wire at 65 nm (mid-range of the Ho/Mai/Horowitz projections and
	// of the delays reported by Cheng et al. for 8X B-Wires), derived
	// from the repeatered RC model in this package (see rc.go).
	BaselineLinkCycles = 8
)

// LatencyCycles returns the whole-cycle traversal latency of one 5 mm link
// built from wires of kind k, at the 4 GHz system clock: the B8X baseline
// of 4 cycles scaled by the published relative latency and rounded up.
func LatencyCycles(k Kind) int {
	c := Lookup(k).RelLatency * BaselineLinkCycles
	n := int(c)
	if float64(n) < c {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Seconds is a physical duration. Distinct from sim.Time (whole clock
// cycles) so wall-time physics and cycle accounting cannot be mixed
// without an explicit conversion through the clock frequency.
type Seconds float64

// DynamicEnergyPerTransition returns the energy in joules for one bit
// transition on one wire of kind k over lengthM meters.
//
// The catalog lists dynamic power as P = coeff * alpha W/m at the 4 GHz
// clock; with alpha = 1 (a transition every cycle) the per-cycle,
// per-meter energy is coeff / f, so a single transition over length L
// costs coeff * L / f joules.
func DynamicEnergyPerTransition(k Kind, lengthM float64) float64 {
	return Lookup(k).DynPowerWPerM * lengthM / ClockHz
}

// StaticPowerWatts returns the leakage power of nWires wires of kind k
// over lengthM meters.
func StaticPowerWatts(k Kind, lengthM float64, nWires int) float64 {
	return Lookup(k).StaticWPerM * lengthM * float64(nWires)
}

// AreaUnits returns the relative metal area consumed by nWires wires of
// kind k, in units of one B8X wire track. It is the quantity the paper's
// "area slack" argument is made in: a 75-byte B8X link = 600 units, and a
// heterogeneous VL+B link must fit in the same budget.
func AreaUnits(k Kind, nWires int) float64 {
	return Lookup(k).RelArea * float64(nWires)
}
