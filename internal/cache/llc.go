// Package cache models the shared last-level cache (LLC) of the simulated
// machine, including Intel Cache Allocation Technology (CAT)-style way
// partitioning and the slow response of occupancy to partition changes that
// the paper calls *cache inertia* (§3.2, §4.3).
//
// The model is an occupancy model, the standard abstraction for LLC
// contention studies: each task owns some number of bytes of cache; its hit
// rate grows with the fraction of its working set that is resident; resident
// bytes drift toward an equilibrium determined by the task's insertion
// (miss) traffic relative to the other tasks sharing its partition class.
// The drift rate is insertion bandwidth over class capacity, so a 15 MB
// cache refilled at ~1 GB/s has a time constant of ~15 ms — orders of
// magnitude slower than DVFS, which is exactly why Dirigent uses
// partitioning only in its coarse time scale controller.
package cache

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// ClassID identifies a partition class (a CAT class of service, CLOS).
type ClassID int

// LLC is a way-partitioned last-level cache. It is not safe for concurrent
// use; the machine steps it from a single goroutine.
type LLC struct {
	ways     int
	wayBytes float64

	classWays map[ClassID]int
	nextClass ClassID

	tasks map[int]*taskState

	// Per-quantum state for ApplyFast, which runs every simulation quantum
	// and must not allocate. Class IDs are handed out sequentially from 0,
	// so per-class accumulators index slices instead of maps. denseBytes
	// caches each class's byte capacity and is rebuilt lazily when a
	// partition change marks it dirty. A task touched by the current
	// ApplyFast call carries the call's stamp.
	denseBytes []float64
	denseDirty bool
	denseFill  []float64
	denseWt    []float64
	stamp      uint64
	// lastDt is the quantum length of the last ApplyFast call; dtSec and
	// drift (the base convergence rate) are derived from it.
	lastDt time.Duration
	dtSec  float64
	drift  float64
	// taskArr mirrors the tasks map as a slice so ApplyFast's inactive-decay
	// pass iterates without map overhead. Order is immaterial: each entry
	// only updates its own state.
	taskArr []*taskState
}

type taskState struct {
	class     ClassID
	occupancy float64 // resident bytes
	stamp     uint64  // last ApplyFast call that saw traffic from this task
}

// TaskRef is a stable handle to one task's cache state, valid from Register
// (or Launch) until Unregister. The machine resolves it once per task so the
// per-quantum hit-rate and occupancy updates skip the task map.
type TaskRef = taskState

// Config describes an LLC geometry.
type Config struct {
	// Bytes is the total capacity. The evaluation machine has a 15 MB L3.
	Bytes int64
	// Ways is the associativity exposed to partitioning. The evaluation
	// machine's CAT exposes 20 ways.
	Ways int
}

// DefaultConfig mirrors the paper's Xeon E5-2618L v3: 15 MB, 20 ways.
func DefaultConfig() Config {
	return Config{Bytes: 15 << 20, Ways: 20}
}

// New creates an LLC with a single default class (ID 0) owning every way.
func New(cfg Config) (*LLC, error) {
	if cfg.Bytes <= 0 {
		return nil, fmt.Errorf("cache: capacity %d must be positive", cfg.Bytes)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: ways %d must be positive", cfg.Ways)
	}
	l := &LLC{
		ways:       cfg.Ways,
		wayBytes:   float64(cfg.Bytes) / float64(cfg.Ways),
		classWays:  map[ClassID]int{0: cfg.Ways},
		nextClass:  1,
		tasks:      map[int]*taskState{},
		denseDirty: true,
	}
	return l, nil
}

// MustNew is New that panics on invalid configuration.
func MustNew(cfg Config) *LLC {
	l, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// Ways returns the total number of partitionable ways.
func (l *LLC) Ways() int { return l.ways }

// DefineClass allocates a new partition class with zero ways. Ways must be
// assigned with SetPartition before tasks in the class can cache anything.
func (l *LLC) DefineClass() ClassID {
	id := l.nextClass
	l.nextClass++
	l.classWays[id] = 0
	l.denseDirty = true
	return id
}

// SetPartition assigns way counts to classes. Every class in the map must
// exist, counts must be non-negative, and the total must not exceed the
// cache's ways. Classes not mentioned keep their current allocation.
// Partition changes do NOT immediately move data: occupancy beyond the new
// allocation drains at the inertia rate as competing insertions evict it.
func (l *LLC) SetPartition(ways map[ClassID]int) error {
	next := make(map[ClassID]int, len(l.classWays))
	//lint:ignore maprange pure map-to-map copy; order cannot reach results
	for id, w := range l.classWays {
		next[id] = w
	}
	// Validate in sorted order so which error surfaces first is
	// deterministic when several classes are bad.
	ids := make([]ClassID, 0, len(ways))
	for id := range ways {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		w := ways[id]
		if _, ok := l.classWays[id]; !ok {
			return fmt.Errorf("cache: unknown class %d", id)
		}
		if w < 0 {
			return fmt.Errorf("cache: class %d way count %d is negative", id, w)
		}
		next[id] = w
	}
	total := 0
	//lint:ignore maprange commutative sum; order cannot reach results
	for _, w := range next {
		total += w
	}
	if total > l.ways {
		return fmt.Errorf("cache: partition uses %d ways, cache has %d", total, l.ways)
	}
	l.classWays = next
	l.denseDirty = true
	return nil
}

// ClassWays returns the current way allocation of a class.
func (l *LLC) ClassWays(id ClassID) (int, error) {
	w, ok := l.classWays[id]
	if !ok {
		return 0, fmt.Errorf("cache: unknown class %d", id)
	}
	return w, nil
}

// Register adds task to a partition class with zero initial occupancy.
// Re-registering an existing task moves it to the new class, keeping its
// occupancy (data does not vanish when a task's CLOS changes; it drains or
// grows by the normal dynamics).
func (l *LLC) Register(task int, class ClassID) error {
	if _, ok := l.classWays[class]; !ok {
		return fmt.Errorf("cache: unknown class %d", class)
	}
	if st, ok := l.tasks[task]; ok {
		st.class = class
		return nil
	}
	st := &taskState{class: class}
	l.tasks[task] = st
	l.taskArr = append(l.taskArr, st)
	return nil
}

// Unregister removes a task; its occupancy is freed instantly (process
// teardown invalidates its lines for our purposes).
func (l *LLC) Unregister(task int) {
	st, ok := l.tasks[task]
	if !ok {
		return
	}
	delete(l.tasks, task)
	for i, s := range l.taskArr {
		if s == st {
			last := len(l.taskArr) - 1
			l.taskArr[i] = l.taskArr[last]
			l.taskArr[last] = nil
			l.taskArr = l.taskArr[:last]
			break
		}
	}
}

// Ref resolves a task's state handle (nil for unknown tasks). The handle
// stays valid across Register-driven class moves — Register mutates the
// existing state in place — and dies at Unregister.
func (l *LLC) Ref(task int) *TaskRef {
	return l.tasks[task]
}

// HitRateRef returns the probability that an access by the task behind st
// hits, given the task's working-set size in bytes and locality in [0,1].
// Locality is the hit rate the task would see with its entire working set
// resident (compulsory and streaming misses cap it below 1); the skewed
// resident fraction scales it down. A nil handle (an unknown task) misses
// always.
func (l *LLC) HitRateRef(st *TaskRef, wss, locality float64) float64 {
	if st == nil || wss <= 0 {
		return 0
	}
	if locality < 0 {
		locality = 0
	} else if locality > 1 {
		locality = 1
	}
	resident := st.occupancy / wss
	if resident >= 1 {
		return locality
	}
	// The hit rate grows as the square root of the resident fraction.
	// Reuse is skewed: the hottest lines are cached first (LRU keeps what
	// is touched most), so a task holding 25% of its working set captures
	// well over 25% of its potential hits. The concave curve (exponent
	// 0.5 < 1) is what produces the knee in partition-size sweeps (the
	// paper's Fig. 8): early ways buy large miss reductions, later ways
	// diminishing ones. Sqrt gives the bits math.Pow(x, 0.5) would: Pow
	// returns Sqrt for that exponent after its special-case checks, and
	// the two differ only at −0, which occupancy never is.
	return locality * math.Sqrt(resident)
}

// Traffic describes one task's cache activity during a quantum, produced by
// the machine's performance solver.
type Traffic struct {
	Task int
	// Accesses is the number of LLC accesses in the quantum.
	Accesses float64
	// MissRate is the per-access miss probability the solver computed (from
	// HitRateRef at the start of the quantum).
	MissRate float64
	// WSS is the task's current working-set size in bytes.
	WSS float64
	// Ref is the task's resolved state handle (see Ref). ApplyFast uses it to
	// skip the task-map lookup; a nil Ref falls back to lookup by Task.
	Ref *TaskRef
}

// rebuildDense refreshes the per-class byte capacities and accumulator
// slices after a partition or class-set change. Class IDs are sequential
// from 0, so nextClass bounds the dense index space.
func (l *LLC) rebuildDense() {
	n := int(l.nextClass)
	if cap(l.denseBytes) < n {
		l.denseBytes = make([]float64, n)
		l.denseFill = make([]float64, n)
		l.denseWt = make([]float64, n)
	}
	l.denseBytes = l.denseBytes[:n]
	l.denseFill = l.denseFill[:n]
	l.denseWt = l.denseWt[:n]
	for id := ClassID(0); id < l.nextClass; id++ {
		l.denseBytes[id] = float64(l.classWays[id]) * l.wayBytes
	}
	l.denseDirty = false
}

// ApplyFast advances occupancy dynamics by dt given each task's traffic.
// Each task may appear at most once in traffic; unknown tasks are skipped.
//
// Dynamics, per partition class:
//
//	equilibrium_t = min(WSS_t, classBytes × weight_t / Σ weight)
//	occ_t ← occ_t + (equilibrium_t − occ_t) × min(1, fillRate×dt)
//
// where weight_t models LRU recency pressure: insertion traffic (misses ×
// line size) plus a discounted credit for hits — in LRU a hit promotes its
// line to MRU, so frequently-reused (high-hit-rate) tasks retain occupancy
// against streaming neighbours even though they insert little. A small
// floor keeps idle tasks from losing every line instantly. fillRate is
// class insertion bandwidth over class capacity — the inertia term.
// Occupancy above the class allocation (after a partition shrink) decays at
// the same rate.
func (l *LLC) ApplyFast(dt time.Duration, traffic []Traffic) {
	const weightFloor = float64(16 * LineSize) // idle tasks keep a sliver
	// hitRecencyWeight discounts hit traffic against insertion traffic in
	// the occupancy equilibrium: hits refresh recency (LRU) but repeated
	// touches to one line overcount uniqueness, hence < 1.
	const hitRecencyWeight = 0.5

	if l.denseDirty {
		l.rebuildDense()
	}
	fill, weight := l.denseFill, l.denseWt
	for i := range fill {
		fill[i] = 0
		weight[i] = 0
	}
	l.stamp++
	stamp := l.stamp

	// Pass 1: per-class fill and weight totals. The hits term associates
	// differently from pass 2's weight expression; both forms are pinned by
	// the recorded occupancy goldens.
	for i := range traffic {
		tr := &traffic[i]
		st := l.stateOf(tr)
		if st == nil {
			continue
		}
		m := float64(tr.Accesses * clamp01(tr.MissRate))
		st.stamp = stamp
		fill[st.class] += float64(m * LineSize)
		hits := (tr.Accesses - m) * LineSize
		weight[st.class] += float64(m*LineSize) + float64(hitRecencyWeight*hits) + weightFloor
	}

	if dt != l.lastDt {
		l.lastDt = dt
		l.dtSec = dt.Seconds()
		l.drift = 0.02 * l.dtSec / 0.005
	}
	// Each class's fill rate: its fill bandwidth over its capacity.
	for c, b := range l.denseBytes {
		if b > 0 {
			fill[c] /= b
		}
	}
	// Pass 2: move each active task toward its equilibrium share.
	for i := range traffic {
		tr := &traffic[i]
		st := l.stateOf(tr)
		if st == nil {
			continue
		}
		capBytes := l.denseBytes[st.class]
		if capBytes <= 0 {
			// No ways: occupancy drains fast (fills bypass the class).
			st.occupancy *= math.Max(0, 1-4*l.dtSec/0.001)
			continue
		}
		// Convergence rate: the class fill rate plus a slow base drift so
		// caches settle even with no traffic at all.
		rate := fill[st.class] + l.drift
		if rate > 1 {
			rate = 1
		}
		m := float64(tr.Accesses * clamp01(tr.MissRate))
		w := float64(m*LineSize) + float64(hitRecencyWeight*(tr.Accesses-m)*LineSize) + weightFloor
		eq := capBytes * w / weight[st.class]
		if eq > tr.WSS && tr.WSS > 0 {
			eq = tr.WSS
		}
		st.occupancy += float64((eq - st.occupancy) * rate)
		if st.occupancy < 0 {
			st.occupancy = 0
		}
	}

	// Pass 3: tasks with no traffic this quantum (paused) lose occupancy to
	// the active tasks in their class — only if the class had insertions.
	for _, st := range l.taskArr {
		if st.stamp == stamp {
			continue
		}
		capBytes := l.denseBytes[st.class]
		if capBytes <= 0 {
			st.occupancy = 0
			continue
		}
		rate := fill[st.class]
		if rate > 1 {
			rate = 1
		}
		st.occupancy *= 1 - rate
	}
}

// stateOf returns the state of tr's task: its Ref, else a lookup (nil for
// an unknown task).
func (l *LLC) stateOf(tr *Traffic) *taskState {
	if tr.Ref != nil {
		return tr.Ref
	}
	return l.tasks[tr.Task]
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
