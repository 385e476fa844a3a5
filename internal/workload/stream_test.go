package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// appStreamDigests are the SHA-256 digests appStreamDigest gives for
// each application, recorded with the math/rand-backed generator that
// stream replaced. A mismatch means an application's operations
// changed.
var appStreamDigests = map[string]string{
	"Barnes-Hut":    "07dcd6c5057cad97844d751a47469fa667f9dd02d4a8754929ec567728e31afa",
	"EM3D":          "be56bd82ee30262d6d19487958f7d9946381d7b6c85919c287d14d82127c3346",
	"FFT":           "23865d1ea218c4180b99c5d3844caf84425036c8dda3baa0ed2632e9d6d4eb2e",
	"LU-cont":       "c017345b8c5651afe3aa359b34bd38f1c118ae83840d86b0bb2e4a6b0220b8d8",
	"LU-noncont":    "f2b07b1323b5f5cb97165b3ad27a6b8b554e572e1c04517bb2be774eb8b40a58",
	"MP3D":          "62855141ecd1044124e192fd3e328a2db56798e878db3b3168543aca42719ca5",
	"Ocean-cont":    "64142b6fe3eadbec942bc508fbdd6f03ec5d50ba553089ff3d07c78fda95e768",
	"Ocean-noncont": "5a167a3c6c036f5b334c517f0ee99339a89d817c87ed42722e813dc0afd619ad",
	"Radix":         "2044be8df6d3ed1d08404bccad2c254138d9a0077d0e312a7f0c3bbd9847f4d0",
	"Raytrace":      "7f6ae1b1e89fe1bffb6afcd79a2eb880b2521392d532027b9007e4cf8085aebc",
	"Unstructured":  "3a72c9c490a12014c43ba343d42278ce6217cef0b054217831b28ffd946c7346",
	"Water-nsq":     "2d8591d572369fb14a59a4c471d357a81a8756887e7c0538961555de091681cd",
	"Water-spa":     "5cd277d09484375d12f5795ca7da812779e2533c9b26bc154fb8e443e722e0cb",
}

// appStreamDigest hashes every operation of one application, each core
// run to completion, at 16 cores (2000 references per core) and at 1024
// cores (40 per core), for seeds 0, 1 and -7.
func appStreamDigest(t *testing.T, name string) string {
	t.Helper()
	h := sha256.New()
	var buf []byte
	for _, size := range []struct{ cores, refs int }{{16, 2000}, {1024, 40}} {
		for _, seed := range []int64{0, 1, -7} {
			a, err := NewNamedApp(name, size.cores, size.refs, seed)
			if err != nil {
				t.Fatal(err)
			}
			for core := 0; core < size.cores; core++ {
				for {
					op, ok := a.Next(core)
					if !ok {
						break
					}
					buf = append(buf[:0], byte(op.Kind))
					buf = binary.LittleEndian.AppendUint64(buf, op.Addr)
					buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Cycles))
					h.Write(buf)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAppStreamsMatchParent pins every operation of every application
// across generator implementations, not just within one run.
func TestAppStreamsMatchParent(t *testing.T) {
	for _, name := range AppNames() {
		got := appStreamDigest(t, name)
		if want := appStreamDigests[name]; got != want {
			t.Errorf("%s: stream digest %s, want %s", name, got, want)
		}
	}
}

// TestStreamMatchesMathRand checks stream against
// rand.New(rand.NewSource(seed)) value for value, over seeds at and
// around the edges of math/rand's seed reduction and a mix of the calls
// the generator makes. Intn covers powers of two, small n, and
// n = 2^30+1, where Int31n rejects about half its draws.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 7919, 1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1), 1 << 40,
		math.MinInt64, math.MaxInt64, 89482311,
	}
	ns := []int{1, 2, 3, 5, 7, 8, 64, 1000, 1536, 1 << 20, 1 << 30, 1<<30 + 1, 1<<31 - 1}
	const calls = 200_000
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		var got stream
		got.seed(seed)
		// The call mix comes from its own generator, so the kinds of
		// call change irregularly across refill boundaries.
		mix := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < calls; i++ {
			switch mix.Intn(3) {
			case 0:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d call %d: Int63 %d, want %d", seed, i, g, w)
				}
			case 1:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d call %d: Float64 %v, want %v", seed, i, g, w)
				}
			default:
				n := ns[mix.Intn(len(ns))]
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d call %d: Intn(%d) %d, want %d", seed, i, n, g, w)
				}
			}
		}
	}
}

// TestIntnCraftedDraws feeds stream.Intn and (*rand.Rand).Intn the
// same draws around Int31n's rejection limit, which seeded streams hit
// with probability 2^-31 per draw.
func TestIntnCraftedDraws(t *testing.T) {
	for _, n := range []int{3, 1000, 1<<30 + 1, 1<<31 - 1} {
		limit := uint64(1<<31 - 1 - (1<<31)%uint32(n))
		var vals []uint64
		for _, v31 := range []uint64{limit + 1, 1<<31 - 1, limit, limit + 1, limit - 1, 0} {
			vals = append(vals, v31<<32|0xdead, v31<<32|1<<63)
		}
		src := &fakeSource{vals: vals}
		want := rand.New(src)
		var got stream
		for k, v := range vals {
			got.vec[k] = int64(v)
		}
		for src.i < len(vals) {
			if g, w := got.Intn(n), want.Intn(n); g != w || got.pos != src.i {
				t.Fatalf("Intn(%d): %d after %d draws, want %d after %d", n, g, got.pos, w, src.i)
			}
		}
	}
}

// geometricFloatLoop is the compute-gap sampler geometric replaced,
// kept as its oracle.
func geometricFloatLoop(rng *rand.Rand, mean int) int {
	p := 1.0 / float64(mean)
	n := 0
	for rng.Float64() >= p && n < mean*10 {
		n++
	}
	return n
}

var gapMeans = []int{1, 2, 4, 8, 9, 16, 18, 24, 26, 1000}

// TestGeometricMatchesFloatLoop checks that geometric returns the float
// loop's gaps and consumes the same draws.
func TestGeometricMatchesFloatLoop(t *testing.T) {
	t.Run("seeded", testGeometricSeeded)
	t.Run("crafted", testGeometricCrafted)
}

// testGeometricSeeded compares about 2 M trials per mean on seeded
// streams. The cap (mean*10 trials) is reached with probability about
// e^-10 per gap; capped counts how often, to show the path ran.
func testGeometricSeeded(t *testing.T) {
	capped := 0
	for i, mean := range gapMeans {
		seed := int64(1000 + i)
		want := rand.New(rand.NewSource(seed))
		var got stream
		got.seed(seed)
		x0, limit := gapThreshold(mean), mean*10
		for gap := 0; gap < 2_000_000/mean; gap++ {
			g, w := got.geometric(x0, limit), geometricFloatLoop(want, mean)
			if g != w {
				t.Fatalf("mean %d gap %d: %d, want %d", mean, gap, g, w)
			}
			if w == limit {
				capped++
			}
			if gap%64 == 0 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("mean %d gap %d: streams diverged: %d, want %d", mean, gap, g, w)
				}
			}
		}
	}
	t.Logf("%d gaps reached the cap", capped)
	if capped == 0 {
		t.Error("no gap reached the mean*10 cap")
	}
}

// fakeSource replays fixed 64-bit values.
type fakeSource struct {
	vals []uint64
	i    int
}

func (f *fakeSource) Uint64() uint64 {
	v := f.vals[f.i]
	f.i++
	return v
}
func (f *fakeSource) Int63() int64 { return int64(f.Uint64() & int63Mask) }
func (f *fakeSource) Seed(int64)   {}

// testGeometricCrafted feeds both samplers the same draws at the edges
// that random streams almost never reach: x0-1 (the largest success),
// x0 and x0+1 (failures), draws at or above 2^63-512, which Float64
// rounds to 1.0 and redraws (probability 2^-54 per draw), the largest
// draw it keeps, and draws with bit 63 set. Runs of failures reach past
// the cap.
func testGeometricCrafted(t *testing.T) {
	capped := 0
	for _, mean := range gapMeans {
		x0, limit := gapThreshold(mean), mean*10
		if p := 1 / float64(mean); float64(x0)/(1<<63) < p || float64(x0-1)/(1<<63) >= p {
			t.Fatalf("mean %d: threshold %d is not the smallest draw with Float64 >= %v", mean, x0, p)
		}
		success := []uint64{x0 - 1, 0, x0 - 1 | 1<<63}
		failure := []uint64{x0, x0 + 1, resampleMin - 1, x0 | 1<<63}
		redraw := []uint64{resampleMin, resampleMin + 1, 1<<63 - 1, 1<<64 - 1}
		if mean == 1 {
			failure = nil // every kept draw succeeds
		}
		pick := rand.New(rand.NewSource(int64(mean)))
		for trial := 0; trial < 200; trial++ {
			// One block of draws, ending in a success so that the last
			// gap ends inside it.
			vals := make([]uint64, streamLen)
			run := pick.Intn(2*limit + 2)
			for k := range vals {
				switch {
				case k == len(vals)-1:
					vals[k] = success[0]
				case pick.Intn(8) == 0:
					vals[k] = redraw[pick.Intn(len(redraw))]
				case run > 0 && len(failure) > 0:
					vals[k] = failure[pick.Intn(len(failure))]
					run--
				default:
					vals[k] = success[pick.Intn(len(success))]
					run = pick.Intn(2*limit + 2)
				}
			}
			src := &fakeSource{vals: vals}
			want := rand.New(src)
			var got stream
			for k, v := range vals {
				got.vec[k] = int64(v)
			}
			for src.i < len(vals) {
				g, w := got.geometric(x0, limit), geometricFloatLoop(want, mean)
				if g != w || got.pos != src.i {
					t.Fatalf("mean %d trial %d: gap %d after %d draws, want %d after %d",
						mean, trial, g, got.pos, w, src.i)
				}
				if w == limit {
					capped++
				}
			}
		}
	}
	t.Logf("%d gaps reached the cap", capped)
	if capped == 0 {
		t.Error("no gap reached the mean*10 cap")
	}
}
