// Package fault is tilesim's deterministic fault-injection subsystem
// (DESIGN.md §11). It models the transient and gross failure modes of
// the heterogeneous interconnect the paper concentrates critical
// coherence traffic on:
//
//   - per-flit transient bit errors on each wire plane, parameterized
//     as a bit-error rate (BER) with a separate multiplier for the
//     narrow VL-Wires (aggressively engineered low-latency wires can
//     plausibly be noisier than the fat baseline wires);
//   - whole-plane outage windows (a plane's drivers are down for a
//     configured cycle range);
//   - router-stall injections (a router occasionally freezes its
//     pipeline for a configured number of cycles).
//
// Everything is drawn from fault-local PRNG streams keyed by the run
// seed plus a structural salt (link id, plane, tile), never from the
// global math/rand source, so two same-seed runs inject byte-identical
// fault sequences regardless of host, GOMAXPROCS or wall clock — the
// same determinism contract tilesimvet enforces for the rest of the
// simulator (DESIGN.md §8). The consumers are internal/mesh (link CRC
// detection, NACK/timeout retransmission with bounded exponential
// backoff, outage blocking) and internal/core (plane failover).
package fault

import (
	"fmt"
	"math"
)

// Plane indices mirror internal/mesh's plane ordering. fault cannot
// import mesh (mesh imports fault), so the correspondence is fixed
// here and asserted by a test on the mesh side.
const (
	PlaneB  = 0
	PlaneVL = 1
	PlanePW = 2

	NumPlanes = 3
)

// planeIndex parses a plane name ("B", "VL", "PW"); -1 for "".
func planeIndex(name string) (int, error) {
	switch name {
	case "":
		return -1, nil
	case "B":
		return PlaneB, nil
	case "VL":
		return PlaneVL, nil
	case "PW":
		return PlanePW, nil
	}
	return -1, fmt.Errorf("fault: unknown plane %q (want B, VL or PW)", name)
}

// DefaultRetryLimit is the per-message retransmission budget when the
// configuration leaves RetryLimit zero. Exhausting the budget drops
// the message and surfaces an explicit run error — the livelock guard.
const DefaultRetryLimit = 8

// Bounded exponential backoff parameters for NACK retransmission:
// attempt n waits backoffBase << (n-1) cycles, capped at backoffCap.
const (
	backoffBase = 4
	backoffCap  = 256
)

// Backoff returns the retransmission delay in cycles before attempt
// n's retry (n counts from 1): bounded exponential, so a burst of
// errors spreads retries out without ever livelocking behind an
// unbounded wait.
func Backoff(attempt int) uint64 {
	if attempt < 1 {
		attempt = 1
	}
	d := uint64(backoffBase)
	for i := 1; i < attempt; i++ {
		d <<= 1
		if d >= backoffCap {
			return backoffCap
		}
	}
	return d
}

// Config describes the fault environment of one run. The zero value
// disables injection entirely and preserves fault-free behavior
// bit-for-bit.
type Config struct {
	// BER is the per-bit transient error probability on the bulk wire
	// planes (B and PW). A message traversal of n payload bits is
	// corrupted with probability 1-(1-BER)^n, detected by the link CRC
	// at the receiving router.
	BER float64
	// VLBERScale multiplies BER on the VL plane, so the narrow
	// low-latency wires can be made noisier than the baseline wires;
	// 0 means 1 (same BER everywhere).
	VLBERScale float64
	// OutagePlane names a wire plane ("B", "VL" or "PW") taken down
	// for the window [OutageStart, OutageStart+OutageCycles). While a
	// plane is out, no new transmission may start on it; critical
	// messages bound for an out VL plane fail over to the bulk plane
	// uncompressed (internal/core).
	OutagePlane  string
	OutageStart  uint64
	OutageCycles uint64
	// StallProb is the per-hop probability that the traversed router
	// freezes its pipeline for StallCycles extra cycles.
	StallProb float64
	// StallCycles is the injected stall length; 0 means 8 when
	// StallProb is nonzero.
	StallCycles int
	// RetryLimit bounds the per-message retransmission count; 0 means
	// DefaultRetryLimit. A message exceeding the budget is dropped and
	// the run fails with an explicit error instead of livelocking.
	RetryLimit int
}

// Enabled reports whether any fault mechanism is active.
func (c Config) Enabled() bool {
	return c.BER > 0 ||
		(c.OutagePlane != "" && c.OutageCycles > 0) ||
		c.StallProb > 0
}

// Validate checks parameter ranges.
func (c Config) Validate() error {
	// Negated range checks, so NaN fails them too.
	if !(c.BER >= 0 && c.BER < 1) {
		return fmt.Errorf("fault: BER %g outside [0, 1)", c.BER)
	}
	if !(c.VLBERScale >= 0) {
		return fmt.Errorf("fault: VL BER scale %g negative", c.VLBERScale)
	}
	if ber := c.vlBER(); !(ber < 1) {
		return fmt.Errorf("fault: VL-plane BER %g (BER x scale) outside [0, 1)", ber)
	}
	if !(c.StallProb >= 0 && c.StallProb <= 1) {
		return fmt.Errorf("fault: stall probability %g outside [0, 1]", c.StallProb)
	}
	if c.StallCycles < 0 {
		return fmt.Errorf("fault: stall cycles %d negative", c.StallCycles)
	}
	if c.RetryLimit < 0 {
		return fmt.Errorf("fault: retry limit %d negative", c.RetryLimit)
	}
	if _, err := planeIndex(c.OutagePlane); err != nil {
		return err
	}
	return nil
}

// vlBER returns the effective VL-plane bit-error rate.
func (c Config) vlBER() float64 {
	if c.VLBERScale == 0 {
		return c.BER
	}
	return c.BER * c.VLBERScale
}

// Canonical returns a stable one-line encoding of every
// simulation-relevant field, folded into cmp.RunConfig.Canonical (and
// so into the sweep cache key) whenever injection is enabled.
// Equivalent spellings normalize: VLBERScale 0 encodes as the 1 it
// means, and StallCycles/RetryLimit defaults are materialized.
func (c Config) Canonical() string {
	scale := c.VLBERScale
	if scale == 0 {
		scale = 1
	}
	outage := "off"
	if c.OutagePlane != "" && c.OutageCycles > 0 {
		outage = fmt.Sprintf("%s@%d+%d", c.OutagePlane, c.OutageStart, c.OutageCycles)
	}
	stall := c.StallCycles
	if stall == 0 {
		stall = defaultStallCycles
	}
	limit := c.RetryLimit
	if limit == 0 {
		limit = DefaultRetryLimit
	}
	return fmt.Sprintf("ber=%g vlscale=%g outage=%s stall=%g/%d retry=%d",
		c.BER, scale, outage, c.StallProb, stall, limit)
}

const defaultStallCycles = 8

// Stream is one deterministic pseudo-random sequence (splitmix64). A
// fault domain (a link's wire plane, a router) owns one stream keyed
// by the run seed plus a structural salt, so the sequence a domain
// sees depends only on the seed and on how often that domain draws —
// both fixed by the deterministic simulation order.
type Stream struct {
	state uint64
}

// mix64 is the splitmix64 output function, also used to fold salts
// into seeds.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewStream derives a stream from a seed and salts.
func NewStream(seed int64, salts ...uint64) *Stream {
	state := uint64(seed) * 0x9e3779b97f4a7c15
	for _, s := range salts {
		state = mix64(state ^ (s + 0x9e3779b97f4a7c15))
	}
	return &Stream{state: state}
}

// Uint64 advances the stream.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// Float64 returns a uniform draw in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Stream salts, one per fault domain kind.
const (
	saltFlit  = 0x01
	saltStall = 0x02
)

// Injector is the per-run fault source. It is attached to the mesh
// (mesh.Network.SetInjector) before the first message and consulted
// from the single-threaded simulation loop; it is not safe for
// concurrent use, matching the kernel's execution model. The injector
// itself is immutable: each fault domain's Stream lives with the
// domain (a link's wire plane, a router) in the mesh, which derives it
// once with FlitStream or StallStream and passes it back on every draw.
type Injector struct {
	cfg  Config
	seed int64

	// log1mBER caches log1p(-BER) per plane (0 BER stored as 0 and
	// short-circuited), so a traversal draw costs one Exp, not a Pow.
	log1mBER [NumPlanes]float64

	outagePlane int // -1 when no outage configured
	outageStart uint64
	outageEnd   uint64

	stallCycles uint64
	retryLimit  int
}

// NewInjector builds the injector for a validated configuration and
// run seed.
func NewInjector(cfg Config, seed int64) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		cfg:         cfg,
		seed:        seed,
		outagePlane: -1,
	}
	for p := 0; p < NumPlanes; p++ {
		ber := cfg.BER
		if p == PlaneVL {
			ber = cfg.vlBER()
		}
		if ber > 0 {
			in.log1mBER[p] = math.Log1p(-ber)
		}
	}
	if cfg.OutagePlane != "" && cfg.OutageCycles > 0 {
		idx, err := planeIndex(cfg.OutagePlane)
		if err != nil {
			return nil, err
		}
		in.outagePlane = idx
		in.outageStart = cfg.OutageStart
		in.outageEnd = cfg.OutageStart + cfg.OutageCycles
	}
	in.stallCycles = uint64(cfg.StallCycles)
	if in.stallCycles == 0 {
		in.stallCycles = defaultStallCycles
	}
	in.retryLimit = cfg.RetryLimit
	if in.retryLimit == 0 {
		in.retryLimit = DefaultRetryLimit
	}
	return in, nil
}

// RetryLimit returns the per-message retransmission budget.
func (in *Injector) RetryLimit() int { return in.retryLimit }

// FlitStream derives the transient-error stream of one directed link's
// wire plane; link is the link's structural id. Each (link, plane)
// owns an independent stream, so adding faults to one link never
// perturbs the draw sequence of another.
func (in *Injector) FlitStream(link, plane int) *Stream {
	return NewStream(in.seed, saltFlit, uint64(link*NumPlanes+plane))
}

// Corrupt draws from s, the stream of the traversed link's plane,
// whether a message traversal of bits payload bits on that plane
// suffers an undetected-at-send, CRC-detected-at-receive transient
// error. A plane with zero BER never draws.
func (in *Injector) Corrupt(s *Stream, plane, bits int) bool {
	l := in.log1mBER[plane]
	if l == 0 || bits <= 0 {
		return false
	}
	// P(>=1 bit error) = 1 - (1-BER)^bits = -expm1(bits * log1p(-BER)).
	p := -math.Expm1(float64(bits) * l)
	return s.Float64() < p
}

// PlaneDown reports whether plane is inside its outage window at the
// given cycle.
func (in *Injector) PlaneDown(plane int, now uint64) bool {
	return plane == in.outagePlane && now >= in.outageStart && now < in.outageEnd
}

// OutageEnd returns the first cycle after the configured outage window
// (0 when no outage is configured); a transmission blocked by an
// outage may start then.
func (in *Injector) OutageEnd() uint64 { return in.outageEnd }

// StallStream derives the stall stream of one router. Each router owns
// an independent stream.
func (in *Injector) StallStream(router int) *Stream {
	return NewStream(in.seed, saltStall, uint64(router))
}

// Stall draws a router-stall injection for one hop through the router
// whose stream is s: 0 most of the time, the configured stall length
// with probability StallProb. Without stalls configured it never draws.
func (in *Injector) Stall(s *Stream) uint64 {
	if in.cfg.StallProb == 0 {
		return 0
	}
	if s.Float64() < in.cfg.StallProb {
		return in.stallCycles
	}
	return 0
}
