// Package badmaprange is a tilesimvet fixture: it ranges over a map in
// simulator code, so iteration order (randomized by the Go runtime) can
// leak into results.
package badmaprange

// Keys returns the map's keys in runtime-randomized order.
func Keys(m map[int]string) []int {
	out := make([]int, 0, len(m))
	for k := range m { // want: determinism finding here
		out = append(out, k)
	}
	return out
}
