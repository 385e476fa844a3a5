package badrand

import "math/rand/v2"

// PickV2 draws from math/rand/v2's global source. The v2 names (IntN,
// Int64N, the generic N, Uint) are as nondeterministic as v1's Intn,
// and their findings suggest v2's seeded generator, rand.NewPCG, in
// place of v1's rand.NewSource.
func PickV2(n int) int {
	a := rand.IntN(n)               // want: determinism finding here
	b := int(rand.Int64N(int64(n))) // want: determinism finding here
	c := rand.N(n)                  // want: determinism finding here
	d := int(rand.Uint() % uint(n)) // want: determinism finding here
	return a + b + c + d
}

// SeededV2 draws from an explicitly seeded v2 generator, the sanctioned
// spelling: its methods are never sources.
func SeededV2(seed uint64, n int) int {
	return rand.New(rand.NewPCG(seed, seed)).IntN(n)
}
