package workload

import "fmt"

// This file is the benchmark catalog: synthetic stand-ins for the paper's
// Table 1 workloads. Instruction budgets are calibrated so that standalone
// FG execution times on the default simulated machine (2 GHz, 15 MB LLC)
// span the paper's 0.5–1.6 s range (Fig. 4) with standalone MPKI below ~1
// and contended MPKI up to ~2, and BG models span the paper's intrusiveness
// spectrum (Fig. 5): namd is nearly cache-resident compute, lbm is a heavy
// streaming hog, and bwaves/PCA/RS alternate compute and memory phases
// strongly enough to exercise the predictor.

const mib = 1 << 20

// fgDefs returns the five PARSEC-like foreground benchmarks.
func fgDefs() []*Benchmark {
	return []*Benchmark{
		{
			// Body tracking of a person: per-frame pipeline alternating
			// particle-weight computation (compute) with image processing
			// over larger buffers.
			Name: "bodytrack", Kind: Foreground, CPIJitter: 0.012,
			Phases: []Phase{
				{Name: "edge-maps", Instructions: 0.55e9, BaseCPI: 0.70, APKI: 2.6, WSSBytes: 5 * mib, Locality: 0.88, MLP: 5},
				{Name: "particle-weights", Instructions: 0.95e9, BaseCPI: 0.62, APKI: 1.5, WSSBytes: 3 * mib, Locality: 0.93, MLP: 4},
				{Name: "annealing", Instructions: 0.60e9, BaseCPI: 0.68, APKI: 2.1, WSSBytes: 4 * mib, Locality: 0.90, MLP: 5},
				{Name: "pose-update", Instructions: 0.30e9, BaseCPI: 0.72, APKI: 2.8, WSSBytes: 5 * mib, Locality: 0.86, MLP: 5},
			},
		},
		{
			// Content similarity search: stages of the ferret pipeline.
			Name: "ferret", Kind: Foreground, CPIJitter: 0.013,
			Phases: []Phase{
				{Name: "segment", Instructions: 0.60e9, BaseCPI: 0.66, APKI: 2.0, WSSBytes: 4 * mib, Locality: 0.90, MLP: 5},
				{Name: "extract", Instructions: 0.80e9, BaseCPI: 0.74, APKI: 2.4, WSSBytes: 5 * mib, Locality: 0.88, MLP: 5},
				{Name: "index-probe", Instructions: 1.00e9, BaseCPI: 0.70, APKI: 3.4, WSSBytes: 8 * mib, Locality: 0.84, MLP: 4},
				{Name: "rank", Instructions: 0.85e9, BaseCPI: 0.72, APKI: 2.6, WSSBytes: 6 * mib, Locality: 0.87, MLP: 5},
			},
		},
		{
			// Fluid dynamics for animation: tight stencil kernels over a
			// modest grid; the most cache-friendly FG.
			Name: "fluidanimate", Kind: Foreground, CPIJitter: 0.011,
			Phases: []Phase{
				{Name: "rebuild-grid", Instructions: 0.30e9, BaseCPI: 0.64, APKI: 2.2, WSSBytes: 3 * mib, Locality: 0.89, MLP: 5},
				{Name: "densities", Instructions: 0.70e9, BaseCPI: 0.58, APKI: 1.6, WSSBytes: 3 * mib, Locality: 0.92, MLP: 5},
				{Name: "forces", Instructions: 0.55e9, BaseCPI: 0.60, APKI: 1.9, WSSBytes: 3 * mib, Locality: 0.91, MLP: 5},
				{Name: "advance", Instructions: 0.18e9, BaseCPI: 0.66, APKI: 2.1, WSSBytes: 2 * mib, Locality: 0.90, MLP: 5},
			},
		},
		{
			// Real-time raytracing: BVH traversal with good locality but a
			// larger footprint; pointer-chasing lowers its MLP.
			Name: "raytrace", Kind: Foreground, CPIJitter: 0.012,
			Phases: []Phase{
				{Name: "bvh-refit", Instructions: 0.25e9, BaseCPI: 0.68, APKI: 1.8, WSSBytes: 7 * mib, Locality: 0.86, MLP: 3.5},
				{Name: "primary-rays", Instructions: 0.80e9, BaseCPI: 0.60, APKI: 1.1, WSSBytes: 8 * mib, Locality: 0.90, MLP: 3.5},
				{Name: "shadow-rays", Instructions: 0.55e9, BaseCPI: 0.63, APKI: 1.4, WSSBytes: 8 * mib, Locality: 0.88, MLP: 3.5},
				{Name: "shading", Instructions: 0.35e9, BaseCPI: 0.65, APKI: 1.2, WSSBytes: 5 * mib, Locality: 0.90, MLP: 4},
			},
		},
		{
			// Online clustering of an input stream: the memory-bound FG and
			// the paper's hardest predictor case (Fig. 7).
			Name: "streamcluster", Kind: Foreground, CPIJitter: 0.020,
			Phases: []Phase{
				{Name: "stream-in", Instructions: 0.90e9, BaseCPI: 0.50, APKI: 3.6, WSSBytes: 6 * mib, Locality: 0.72, MLP: 5},
				{Name: "pgain", Instructions: 2.60e9, BaseCPI: 0.48, APKI: 3.1, WSSBytes: 5 * mib, Locality: 0.78, MLP: 5},
				{Name: "pselect", Instructions: 1.30e9, BaseCPI: 0.52, APKI: 3.4, WSSBytes: 5 * mib, Locality: 0.75, MLP: 5},
				{Name: "contract", Instructions: 0.80e9, BaseCPI: 0.55, APKI: 2.6, WSSBytes: 4 * mib, Locality: 0.80, MLP: 5},
			},
		},
	}
}

// singleBGDefs returns the three standalone BG benchmarks with strong phase
// behaviour (§5.1: bwaves from SPEC 2006, PCA and RS from MLPack).
func singleBGDefs() []*Benchmark {
	return []*Benchmark{
		{
			// Blast-wave simulation: alternating compute-dense stencil and
			// memory-hungry linear solve.
			Name: "bwaves", Kind: Background, CPIJitter: 0.022,
			Phases: []Phase{
				{Name: "stencil", Instructions: 40e8, BaseCPI: 0.80, APKI: 3.5, WSSBytes: 18 * mib, Locality: 0.45, MLP: 5},
				{Name: "solve", Instructions: 30e8, BaseCPI: 0.55, APKI: 18.0, WSSBytes: 24 * mib, Locality: 0.35, MLP: 6},
				{Name: "boundary", Instructions: 15e8, BaseCPI: 0.70, APKI: 7.0, WSSBytes: 20 * mib, Locality: 0.40, MLP: 5},
			},
		},
		{
			// Principal component analysis: covariance scans of a large
			// matrix alternate with cache-resident eigen iterations.
			Name: "pca", Kind: Background, CPIJitter: 0.020,
			Phases: []Phase{
				{Name: "covariance-scan", Instructions: 35e8, BaseCPI: 0.50, APKI: 18.0, WSSBytes: 28 * mib, Locality: 0.30, MLP: 6},
				{Name: "eigen-iterate", Instructions: 45e8, BaseCPI: 0.90, APKI: 3.5, WSSBytes: 4 * mib, Locality: 0.82, MLP: 2},
				{Name: "project", Instructions: 15e8, BaseCPI: 0.60, APKI: 8.0, WSSBytes: 20 * mib, Locality: 0.40, MLP: 5},
			},
		},
		{
			// Range search: bursty query scans over a large kd-tree; the
			// most intrusive single BG and the predictor's worst partner.
			Name: "rs", Kind: Background, CPIJitter: 0.028,
			Phases: []Phase{
				{Name: "tree-build", Instructions: 15e8, BaseCPI: 0.70, APKI: 5.0, WSSBytes: 8 * mib, Locality: 0.70, MLP: 4},
				{Name: "query-burst", Instructions: 26e8, BaseCPI: 0.45, APKI: 21.0, WSSBytes: 40 * mib, Locality: 0.25, MLP: 8},
				{Name: "collect", Instructions: 9e8, BaseCPI: 0.60, APKI: 6.0, WSSBytes: 6 * mib, Locality: 0.75, MLP: 4},
			},
		},
	}
}

// rotateDefs returns the four SPEC 2006 benchmarks used to build rotate-BG
// pairs. They have mild internal phase behaviour; interference variation
// comes from rotation between the paired benchmarks.
func rotateDefs() []*Benchmark {
	return []*Benchmark{
		{
			// Biomolecular simulation: nearly cache-resident compute.
			Name: "namd", Kind: Background, CPIJitter: 0.015,
			Phases: []Phase{
				{Name: "forces", Instructions: 50e8, BaseCPI: 0.72, APKI: 1.8, WSSBytes: 2 * mib, Locality: 0.92, MLP: 2},
				{Name: "integrate", Instructions: 20e8, BaseCPI: 0.78, APKI: 2.4, WSSBytes: 3 * mib, Locality: 0.90, MLP: 2},
			},
		},
		{
			// Linear program solver: moderate memory pressure with pivots.
			Name: "soplex", Kind: Background, CPIJitter: 0.020,
			Phases: []Phase{
				{Name: "price", Instructions: 25e8, BaseCPI: 0.62, APKI: 6.0, WSSBytes: 12 * mib, Locality: 0.55, MLP: 4},
				{Name: "pivot", Instructions: 15e8, BaseCPI: 0.58, APKI: 14.0, WSSBytes: 16 * mib, Locality: 0.45, MLP: 5},
			},
		},
		{
			// Quantum computer simulation: long streaming sweeps whose
			// perfectly sequential accesses are almost fully covered by the
			// hardware prefetcher — few *demand* LLC misses reach memory,
			// which is why lib+soplex is the paper's least intrusive rotate
			// workload (Fig. 5) despite libquantum's streaming nature.
			Name: "libquantum", Kind: Background, CPIJitter: 0.018,
			Phases: []Phase{
				{Name: "toffoli-sweep", Instructions: 40e8, BaseCPI: 0.50, APKI: 3.5, WSSBytes: 32 * mib, Locality: 0.10, MLP: 8},
				{Name: "measure", Instructions: 10e8, BaseCPI: 0.55, APKI: 3.0, WSSBytes: 32 * mib, Locality: 0.12, MLP: 7},
			},
		},
		{
			// Lattice-Boltzmann fluid simulation: the heaviest streamer.
			Name: "lbm", Kind: Background, CPIJitter: 0.020,
			Phases: []Phase{
				{Name: "stream-collide", Instructions: 45e8, BaseCPI: 0.45, APKI: 17.0, WSSBytes: 48 * mib, Locality: 0.15, MLP: 8},
				{Name: "swap", Instructions: 10e8, BaseCPI: 0.50, APKI: 13.0, WSSBytes: 48 * mib, Locality: 0.18, MLP: 8},
			},
		},
	}
}

// FG returns fresh copies of the five foreground benchmarks, in the
// paper's Table 1 order.
func FG() []*Benchmark { return copyAll(fgDefs()) }

// SingleBG returns fresh copies of the three standalone background
// benchmarks (bwaves, pca, rs).
func SingleBG() []*Benchmark { return copyAll(singleBGDefs()) }

// RotateBenchmarks returns fresh copies of the four benchmarks used in
// rotate pairs (namd, soplex, libquantum, lbm).
func RotateBenchmarks() []*Benchmark { return copyAll(rotateDefs()) }

// RotatePairs returns the paper's four rotate-BG pairings (§5.1):
// (lbm,namd), (libquantum,namd), (lbm,soplex), (libquantum,soplex).
func RotatePairs() [][2]string {
	return [][2]string{
		{"lbm", "namd"},
		{"libquantum", "namd"},
		{"lbm", "soplex"},
		{"libquantum", "soplex"},
	}
}

// All returns every benchmark in the catalog.
func All() []*Benchmark {
	var out []*Benchmark
	out = append(out, FG()...)
	out = append(out, SingleBG()...)
	out = append(out, RotateBenchmarks()...)
	return out
}

// ByName returns a fresh copy of the named benchmark.
func ByName(name string) (*Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q", name)
}

// MustByName is ByName that panics on an unknown name.
func MustByName(name string) *Benchmark {
	b, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

func copyAll(in []*Benchmark) []*Benchmark {
	out := make([]*Benchmark, len(in))
	for i, b := range in {
		cp := *b
		cp.Phases = append([]Phase(nil), b.Phases...)
		out[i] = &cp
	}
	return out
}
