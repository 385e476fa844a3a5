package workload

import (
	"math"
	"math/rand"
)

// stream is one core's random number generator. It reproduces the
// sequence of rand.New(rand.NewSource(seed)) value for value, for the
// methods the generator uses, without an interface call per value: the
// state is a plain array inside coreState, and geometric scans it
// directly.
//
// math/rand's source is an additive lagged-Fibonacci generator: its
// n-th 64-bit output is x[n] = x[n-607] + x[n-273] (mod 2^64). vec holds
// the next 607 outputs, and pos is the index of the next one to draw.
// refill advances vec by one block in place.
type stream struct {
	vec [streamLen]int64
	pos int
}

const (
	streamLen  = 607 // math/rand's rngLen
	streamTap  = 273 // math/rand's rngTap
	int63Mask  = 1<<63 - 1
	lehmerMod  = 1<<31 - 1 // the seeding generator's modulus, 2^31-1
	lehmerMul  = 48271
	zeroSeed   = 89482311 // math/rand's stand-in for a seed of 0
	seedWarmup = 20       // Lehmer steps math/rand discards before the first word

	// resampleMin is the smallest 63-bit draw that math/rand's Float64
	// rounds to 1.0 and redraws: the float64 spacing below 2^63 is
	// 1024, and 2^63-512 ties to even, which is 2^63.
	resampleMin = 1<<63 - 512
)

// cooked is math/rand's rngCooked table, the words its Seed XORs into
// the Lehmer output. It is recovered from a standard-library source
// rather than copied (recoverCooked).
var cooked = recoverCooked()

// lehmer advances math/rand's seeding generator, x*48271 mod 2^31-1. It
// reduces with 2^31 = 1 (mod 2^31-1) instead of Schrage's two
// divisions; for x in [1, 2^31-2] the values are the same.
func lehmer(x uint64) uint64 {
	p := x * lehmerMul
	r := p&lehmerMod + p>>31
	if r >= lehmerMod {
		r -= lehmerMod
	}
	return r
}

// seedRegister writes math/rand's seeded register for seed into reg in
// output order (historySlot), each word XORed with cook[i]. math/rand
// reduces the seed mod 2^31-1, discards 20 Lehmer steps, and builds
// register slot i from the next three.
func seedRegister(seed int64, cook, reg *[streamLen]int64) {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for range seedWarmup {
		x = lehmer(x)
	}
	for i, c := range cook {
		x = lehmer(x)
		u := x << 40
		x = lehmer(x)
		u ^= x << 20
		x = lehmer(x)
		u ^= x
		reg[historySlot(i)] = int64(u) ^ c
	}
}

// historySlot maps math/rand's register slot i to the index in vec of
// the output it stands for. After Seed, rngSource's feed and tap
// indexes start at 334 and 0 and count down, so its n-th output adds
// register slots 333-n and 606-n (mod 607). Laid out by output, slot i
// holds x[j-607] for j = (333-i) mod 607.
func historySlot(i int) int {
	j := streamLen - streamTap - 1 - i
	if j < 0 {
		j += streamLen
	}
	return j
}

// seed sets the stream to rand.NewSource(seed)'s state and computes its
// first 607 outputs.
func (s *stream) seed(seed int64) {
	seedRegister(seed, cooked, &s.vec)
	s.refill()
}

// refill replaces the 607 outputs in vec with the next 607. The new
// x[k] is the old x[k] plus x[k+334]: for k < 273 that is still the
// old block's entry, and from k = 273 on it is the new block's x[k-273],
// already written.
func (s *stream) refill() {
	v := &s.vec
	for k := 0; k < streamTap; k++ {
		v[k] += v[k+streamLen-streamTap]
	}
	for k := streamTap; k < streamLen; k++ {
		v[k] += v[k-streamTap]
	}
	s.pos = 0
}

// Int63 is (*rand.Rand).Int63.
func (s *stream) Int63() int64 {
	if s.pos == streamLen {
		s.refill()
	}
	x := s.vec[s.pos] & int63Mask
	s.pos++
	return x
}

// Float64 is (*rand.Rand).Float64, including its redraw when the
// quotient rounds to 1.0.
func (s *stream) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn is (*rand.Rand).Intn for n in [1, 2^31-1], which math/rand
// serves with Int31n: a mask for powers of two, otherwise rejection of
// the top partial range of 31-bit draws. Params.Validate keeps every
// region within that range.
func (s *stream) Intn(n int) int {
	if n <= 0 || n > math.MaxInt32 {
		panic("workload: Intn argument out of range")
	}
	m := int32(n)
	if m&(m-1) == 0 {
		return int(int32(s.Int63()>>32) & (m - 1))
	}
	limit := int32(1<<31 - 1 - (1<<31)%uint32(m))
	v := int32(s.Int63() >> 32)
	for v > limit {
		v = int32(s.Int63() >> 32)
	}
	return int(v % m)
}

// geometric is the compute-gap sampler. It returns the n that
//
//	n := 0
//	for s.Float64() >= 1/mean && n < limit {
//		n++
//	}
//
// leaves, and consumes the same draws: the trial that finds n == limit
// is drawn whatever its value. A Float64 draw is below
// 1/mean exactly when its 63-bit draw is below x0 (gapThreshold),
// because Float64 scales the draw exactly by 2^-63 and rounding is
// monotone. Draws at or above resampleMin are the ones Float64 redraws,
// so they are no trial at all.
//
// The inner loop only counts failed trials, draws in [x0,
// resampleMin), with one unsigned comparison each; it stops at the
// block's end, at the limit, or at any other draw.
func (s *stream) geometric(x0 uint64, limit int) int {
	span := resampleMin - x0
	n := 0
	for {
		if s.pos == streamLen {
			s.refill()
		}
		i, end := s.pos, min(streamLen, s.pos+limit-n)
		for i < end && uint64(s.vec[i])&int63Mask-x0 < span {
			i++
		}
		n += i - s.pos
		s.pos = i
		if i == streamLen {
			continue
		}
		// A success, a redraw, or, with n at the limit, any draw.
		x := uint64(s.vec[i]) & int63Mask
		s.pos++
		if x < resampleMin {
			return n
		}
	}
}

// gapThreshold returns the smallest 63-bit draw x with
// float64(x)/2^63 >= 1/mean, for mean >= 1: a Float64 draw is below
// 1/mean exactly when its 63-bit draw is below this threshold.
func gapThreshold(mean int) uint64 {
	p := 1.0 / float64(mean)
	lo, hi := uint64(0), uint64(1<<63) // float64(hi)/2^63 = 1 >= p
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// recoverCooked recovers math/rand's cooked table from a standard-
// library source: it reads the source's first 607 outputs, inverts the
// recurrence to get the register its Seed produced, and XORs out that
// seed's Lehmer words.
func recoverCooked() *[streamLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [streamLen]int64
	for i := range out {
		out[i] = int64(src.Uint64())
	}
	// out[k] = hist[k] + hist[k+334] for k < 273, and hist[k] +
	// out[k-273] from k = 273 on, where hist[j] = x[j-607] is the
	// register in output order.
	var hist [streamLen]int64
	for k := streamTap; k < streamLen; k++ {
		hist[k] = out[k] - out[k-streamTap]
	}
	for k := 0; k < streamTap; k++ {
		hist[k] = out[k] - hist[k+streamLen-streamTap]
	}
	var words [streamLen]int64
	seedRegister(seed, &[streamLen]int64{}, &words)
	c := new([streamLen]int64)
	for i := range c {
		j := historySlot(i)
		c[i] = hist[j] ^ words[j]
	}
	return c
}
