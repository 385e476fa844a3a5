// Package cacti provides an analytical SRAM area/energy/leakage model for
// 65 nm, standing in for the CACTI 4.1 runs the paper uses to cost the
// address-compression hardware (paper Table 1).
//
// Two layers are exposed:
//
//   - A calibrated catalog (Table1Rows) reproducing the paper's Table 1
//     verbatim: per-core size, area, maximum dynamic power and static power
//     of the 4/16/64-entry DBRC and 2-byte Stride structures, along with
//     the percentage relative to one core. These figures feed the energy
//     accounting of the full-CMP ED^2P experiment (Fig. 7).
//   - An analytical surrogate (Array) that regenerates the catalog within
//     ~15% from structure geometry, for design points the paper does not
//     tabulate (e.g. 8- or 32-entry DBRC ablations).
package cacti

import "fmt"

// Core-level reference constants at 65 nm implied by the percentage
// columns of paper Table 1 (25 mm^2 tile including an L2 slice; the
// power figures back out a ~22.4 W max-dynamic, ~3.55 W static core).
const (
	CoreAreaMM2    = 25.0
	CoreMaxDynW    = 22.4
	CoreStaticW    = 3.55
	StructsPerTile = 34 // (1 sender + 16 receivers) x 2 message streams
)

// Array describes one SRAM/CAM structure (a compression cache or a
// receiver register file).
type Array struct {
	Entries     int
	BytesPerRow int
	// CAM marks fully-associative search structures (the DBRC sender
	// cache); they pay a per-entry comparator on every lookup.
	CAM bool
}

// Validate checks the geometry.
func (a Array) Validate() error {
	if a.Entries <= 0 || a.BytesPerRow <= 0 {
		return fmt.Errorf("cacti: array needs positive entries and row bytes, got %dx%dB", a.Entries, a.BytesPerRow)
	}
	return nil
}

// Bytes returns the storage capacity of the array.
func (a Array) Bytes() int { return a.Entries * a.BytesPerRow }

// AreaUM2 returns the layout area of the array in um^2. Small arrays are
// periphery-dominated: a fixed block (decoder, precharge, sense amps)
// plus a per-entry slice (wordline driver, comparator for CAMs) plus the
// cell matrix (0.55 um^2/bit at 65 nm).
func (a Array) AreaUM2() float64 {
	const (
		fixed    = 400.0 // um^2: decoder, sense amps, control
		perEntry = 380.0 // um^2: wordline driver, match/valid logic
		perBit   = 0.55  // um^2: 65 nm 6T cell
	)
	perEntryCost := perEntry
	if a.CAM {
		perEntryCost *= 1.25 // comparator per entry
	}
	return fixed + float64(a.Entries)*perEntryCost + float64(a.Bytes()*8)*perBit
}

// AccessEnergyJ returns the energy of one access (read or search) in
// joules. CAM searches activate every entry's comparator; RAM reads
// activate one row plus the shared periphery. Constants are calibrated so
// the per-core max-dynamic-power figures of Table 1 are reproduced when
// four structures (send+receive on both streams) are active every cycle.
func (a Array) AccessEnergyJ() float64 {
	const (
		fixedJ  = 4.5e-12 // periphery: decode, precharge, sense
		perRowJ = 1.2e-12 // selected row: wordline + bitline swing
		perCamJ = 1.0e-12 // per-entry CAM match-line drive
	)
	e := fixedJ + perRowJ*float64(a.BytesPerRow)/8
	if a.CAM {
		e += perCamJ * float64(a.Entries) * float64(a.BytesPerRow) / 8
	}
	return e
}

// LeakageW returns the static power of the array in watts, dominated by
// the cell matrix with a per-entry periphery term.
func (a Array) LeakageW() float64 {
	const (
		perBitW   = 1.05e-9 // W per cell at 65 nm, high-leak process
		perEntryW = 59.5e-6 // W per row periphery (wide, fast rows)
		fixedW    = 91e-6   // W per structure
	)
	return fixedW + perEntryW*float64(a.Entries) + perBitW*float64(a.Bytes()*8)
}
