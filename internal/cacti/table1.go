package cacti

import "fmt"

// Table1Row is one row of paper Table 1: the per-core hardware cost of an
// address-compression scheme on a 16-core tiled CMP at 65 nm, with the
// percentage columns relative to one core.
type Table1Row struct {
	Scheme       string
	SizeBytes    int
	AreaMM2      float64
	AreaPct      float64 // of a 25 mm^2 core
	MaxDynPowerW float64
	MaxDynPct    float64 // of core max dynamic power
	StaticPowerW float64
	StaticPct    float64 // of core static power
}

// Table1Rows returns the paper's Table 1 verbatim (calibrated catalog).
// Static power is in watts (the paper prints mW).
func Table1Rows() []Table1Row {
	return []Table1Row{
		{"4-entry DBRC", 1088, 0.0723, 0.29, 0.1065, 0.48, 0.01078, 0.29},
		{"16-entry DBRC", 4352, 0.2678, 1.07, 0.3848, 1.72, 0.04303, 1.21},
		{"64-entry DBRC", 17408, 0.8240, 3.30, 0.7078, 3.16, 0.13342, 3.76},
		{"2-byte Stride", 272, 0.0257, 0.10, 0.0561, 0.25, 0.00514, 0.15},
	}
}

// DBRCArrays returns the per-core structures of an n-entry DBRC scheme:
// one CAM sender cache and 16 RAM receiver register files, per stream
// (x2). Each entry holds a full 8-byte address base.
func DBRCArrays(entries int) (sender Array, receiver Array, perCore int) {
	return Array{Entries: entries, BytesPerRow: 8, CAM: true},
		Array{Entries: entries, BytesPerRow: 8},
		StructsPerTile
}

// StrideArrays returns the per-core structures of the Stride scheme:
// single 8-byte base registers at both ends, per stream.
func StrideArrays() (sender Array, receiver Array, perCore int) {
	return Array{Entries: 1, BytesPerRow: 8},
		Array{Entries: 1, BytesPerRow: 8},
		StructsPerTile
}

// ModelRow regenerates a Table 1 row from the analytical surrogate, for
// consistency tests and for costing untabulated design points.
func ModelRow(scheme string) (Table1Row, error) {
	var sender, receiver Array
	var entries int
	switch scheme {
	case "4-entry DBRC":
		entries = 4
	case "16-entry DBRC":
		entries = 16
	case "64-entry DBRC":
		entries = 64
	case "2-byte Stride":
		entries = 1
	default:
		// Untabulated DBRC sizes: "N-entry DBRC".
		if _, err := fmt.Sscanf(scheme, "%d-entry DBRC", &entries); err != nil {
			return Table1Row{}, fmt.Errorf("cacti: cannot model scheme %q", scheme)
		}
	}
	if entries == 1 {
		sender, receiver, _ = StrideArrays()
	} else {
		sender, receiver, _ = DBRCArrays(entries)
	}
	// Per core: 2 senders (one per stream) + 32 receivers.
	nSend, nRecv := 2.0, 32.0
	areaMM2 := (nSend*sender.AreaUM2() + nRecv*receiver.AreaUM2()) / 1e6
	// Max dynamic power: 4 structures active per cycle (send + recv on
	// both streams) at 4 GHz.
	maxDyn := (2*sender.AccessEnergyJ() + 2*receiver.AccessEnergyJ()) * 4e9
	static := nSend*sender.LeakageW() + nRecv*receiver.LeakageW()
	size := int(nSend+nRecv) * sender.Entries * sender.BytesPerRow
	return Table1Row{
		Scheme:       scheme,
		SizeBytes:    size,
		AreaMM2:      areaMM2,
		AreaPct:      areaMM2 / CoreAreaMM2 * 100,
		MaxDynPowerW: maxDyn,
		MaxDynPct:    maxDyn / CoreMaxDynW * 100,
		StaticPowerW: static,
		StaticPct:    static / CoreStaticW * 100,
	}, nil
}
