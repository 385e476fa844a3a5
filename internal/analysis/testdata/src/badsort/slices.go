package badsort

import "slices"

// ByTile sorts with slices.SortFunc, which is as unstable as sort.Slice:
// two events on the same tile tie.
func ByTile(events []Event) {
	slices.SortFunc(events, func(a, b Event) int { return a.Tile - b.Tile }) // want: determinism finding here
}

// ByTileStable is the sanctioned spelling.
func ByTileStable(events []Event) {
	slices.SortStableFunc(events, func(a, b Event) int { return a.Tile - b.Tile })
}
