package workload

import "fmt"

// AppNames lists the paper's thirteen applications in Table 4 order.
func AppNames() []string {
	return []string{
		"Barnes-Hut", "EM3D", "FFT", "LU-cont", "LU-noncont", "MP3D",
		"Ocean-cont", "Ocean-noncont", "Radix", "Raytrace",
		"Unstructured", "Water-nsq", "Water-spa",
	}
}

// AppParams returns the synthetic model of one application, scaled to
// cores caches and issuing refsPerCore references per core. The
// parameter choices encode the qualitative traits the paper's analysis
// relies on; see the package comment and DESIGN.md.
func AppParams(name string, cores, refsPerCore int, seed int64) (Params, error) {
	p := Params{
		Name:        name,
		Cores:       cores,
		RefsPerCore: refsPerCore,
		StrideBytes: 64,
		Seed:        seed,
	}
	switch name {
	case "Barnes-Hut":
		// Octree pointer chasing over a large scattered body set:
		// irregular addresses defeat small compression caches (Fig. 2).
		p.PrivateBytes, p.PrivatePattern = 64<<10, Chase
		p.SharedBytes, p.SharedPattern = 1024<<10, Chase
		p.SharedFraction, p.WriteFraction, p.SharedWriteFraction = 0.32, 0.15, 0.25
		p.RereferenceProb, p.ComputeMean = 0.25, 2
	case "EM3D":
		// Wave propagation: strided local graph nodes, 5%-class remote
		// neighbour links in a compact boundary region.
		p.PrivateBytes, p.PrivatePattern, p.StrideBytes = 48<<10, Strided, 128
		p.SharedBytes, p.SharedPattern = 192<<10, Random
		p.SharedFraction, p.WriteFraction, p.SharedWriteFraction = 0.18, 0.25, 0.30
		p.RereferenceProb, p.ComputeMean = 0.30, 9
	case "FFT":
		// Blocked transpose: long strided sweeps, all-to-all phases.
		p.PrivateBytes, p.PrivatePattern = 64<<10, Sequential
		// Stride deliberately off the 4 KB page size: an exact page
		// stride would rotate homes every reference and never re-touch a
		// compression base at the same destination.
		p.SharedBytes, p.SharedPattern, p.StrideBytes = 512<<10, Strided, 2112
		p.SharedFraction, p.WriteFraction, p.SharedWriteFraction = 0.35, 0.30, 0.35
		p.RereferenceProb, p.ComputeMean = 0.25, 8
		p.BarrierEvery = refsPerCore / 4
	case "LU-cont":
		// Blocked dense factorization: high locality, little sharing.
		p.PrivateBytes, p.PrivatePattern = 24<<10, Sequential
		p.SharedBytes, p.SharedPattern = 128<<10, Random
		p.SharedFraction, p.WriteFraction, p.SharedWriteFraction = 0.03, 0.35, 0.20
		p.RereferenceProb, p.ComputeMean = 0.82, 18
		p.BarrierEvery = refsPerCore / 2
	case "LU-noncont":
		// Non-contiguous blocks: column strides hurt spatial locality.
		p.PrivateBytes, p.PrivatePattern, p.StrideBytes = 26<<10, Strided, 1088
		p.SharedBytes, p.SharedPattern = 128<<10, Random
		p.SharedFraction, p.WriteFraction, p.SharedWriteFraction = 0.05, 0.35, 0.20
		p.RereferenceProb, p.ComputeMean = 0.74, 16
		p.BarrierEvery = refsPerCore / 2
	case "MP3D":
		// Rarefied-flow particles: migratory write-shared cells, very
		// memory-intensive; the paper's biggest winner.
		p.PrivateBytes, p.PrivatePattern = 24<<10, Sequential
		p.SharedBytes, p.SharedPattern = 192<<10, Random
		p.SharedFraction, p.WriteFraction, p.SharedWriteFraction = 0.62, 0.30, 0.55
		p.RereferenceProb, p.ComputeMean = 0.10, 0
	case "Ocean-cont":
		// Grid stencils: big sequential sweeps, boundary sharing.
		p.PrivateBytes, p.PrivatePattern = 96<<10, Sequential
		p.SharedBytes, p.SharedPattern = 192<<10, Random
		p.SharedFraction, p.WriteFraction, p.SharedWriteFraction = 0.30, 0.30, 0.40
		p.RereferenceProb, p.ComputeMean = 0.25, 4
		p.BarrierEvery = refsPerCore / 6
	case "Ocean-noncont":
		// Non-contiguous grids: strided rows lose spatial locality.
		p.PrivateBytes, p.PrivatePattern, p.StrideBytes = 64<<10, Strided, 4160
		p.SharedBytes, p.SharedPattern = 192<<10, Random
		p.SharedFraction, p.WriteFraction, p.SharedWriteFraction = 0.28, 0.30, 0.40
		p.RereferenceProb, p.ComputeMean = 0.18, 2
		p.BarrierEvery = refsPerCore / 6
	case "Radix":
		// Radix sort: permutation scatter of keys across a large shared
		// array: hostile to compression (Fig. 2) and write-heavy.
		p.PrivateBytes, p.PrivatePattern = 32<<10, Sequential
		p.SharedBytes, p.SharedPattern = 1536<<10, Random
		p.SharedFraction, p.WriteFraction, p.SharedWriteFraction = 0.55, 0.25, 0.60
		p.RereferenceProb, p.ComputeMean = 0.10, 2
		p.BarrierEvery = refsPerCore / 4
	case "Raytrace":
		// Read-mostly shared scene, irregular but localized traversal.
		p.PrivateBytes, p.PrivatePattern = 40<<10, Chase
		p.SharedBytes, p.SharedPattern = 384<<10, Sequential
		p.SharedFraction, p.WriteFraction, p.SharedWriteFraction = 0.40, 0.10, 0.05
		p.RereferenceProb, p.ComputeMean = 0.40, 4
	case "Unstructured":
		// CFD over an irregular mesh: partition sweeps with heavy
		// boundary write sharing; the paper's other big winner.
		p.PrivateBytes, p.PrivatePattern = 32<<10, Sequential
		p.SharedBytes, p.SharedPattern = 192<<10, Random
		p.SharedFraction, p.WriteFraction, p.SharedWriteFraction = 0.52, 0.30, 0.42
		p.RereferenceProb, p.ComputeMean = 0.12, 0
	case "Water-nsq":
		// Molecular dynamics: compute-bound, tiny working set, little
		// sharing; the proposal barely moves it.
		p.PrivateBytes, p.PrivatePattern = 16<<10, Sequential
		p.SharedBytes, p.SharedPattern = 96<<10, Random
		p.SharedFraction, p.WriteFraction, p.SharedWriteFraction = 0.04, 0.30, 0.25
		p.RereferenceProb, p.ComputeMean = 0.75, 26
	case "Water-spa":
		// Spatial variant: slightly more neighbour sharing.
		p.PrivateBytes, p.PrivatePattern = 16<<10, Sequential
		p.SharedBytes, p.SharedPattern = 96<<10, Random
		p.SharedFraction, p.WriteFraction, p.SharedWriteFraction = 0.04, 0.30, 0.25
		p.RereferenceProb, p.ComputeMean = 0.70, 24
	default:
		return Params{}, fmt.Errorf("workload: unknown application %q (have %v)", name, AppNames())
	}
	return p, nil
}

// NewNamedApp builds the generator for one paper application.
func NewNamedApp(name string, cores, refsPerCore int, seed int64) (*App, error) {
	p, err := AppParams(name, cores, refsPerCore, seed)
	if err != nil {
		return nil, err
	}
	return NewApp(p)
}
