package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host drift correction.
//
// On a small shared host the CPU speed available to one thread drifts by
// tens of percent within a minute: a fixed arithmetic loop took 0.16 to
// 0.31 s per call, and 10-s windows of Dirigent sessions varied with a CV
// of 12%. Thread CPU time hides preemption but not this drift, so every
// CPU-bound timing is corrected by a reference loop that calls no program
// code, timed in thread CPU time (see refSampler for where it runs). A
// timing taken over [t0, t1] is scaled by refNominal / (mean reference
// time within refWindow of [t0, t1]).
//
// The reference loop does not see time the hypervisor steals from a vCPU,
// but the wall-clock timings do: over six serve-control runs the steal
// share of busy CPU time ranged from 0.4% to 17%, and the corrected
// sim_rate fell with it, from 326 to 265 sim-s/s. So the scale is also
// multiplied by 1 − (steal ticks ÷ busy ticks) in the same window, read
// from /proc/stat with each sample. Both raw and corrected values are
// printed; the reference speed is reported as bench.ref_ns and the run's
// steal share as bench.steal_share.

const (
	// refIters sizes one reference sample (about 2 ms on a 2.1 GHz Xeon);
	// shortIters a short one, scaled up by refIters/shortIters.
	refIters   = 150000
	shortIters = refIters / 10
	// refPeriod spaces background samples; the sampler uses about 2% of
	// one CPU. Short samples keep the sampler from holding a scheduler P
	// for long: 2-ms samples every 100 ms raised serve-control's p90 by a
	// quarter.
	refPeriod = 10 * time.Millisecond
	// refNominal is the reference time that corrected figures are scaled
	// to: a corrected duration reads as if one reference sample took this
	// long. It is a fixed unit, not a measurement.
	refNominal = 2 * time.Millisecond
	// refWindow widens the averaging window around a timed interval so
	// that short intervals still see several samples.
	refWindow = 3 * time.Second
)

// refLoop is the reference work: xorshift, a table lookup and the same
// math.Exp/math.Sqrt mix the simulator's noise model leans on.
func refLoop(n int) float64 {
	var buf [4096]float64
	x := uint64(0x9E3779B97F4A7C15)
	acc := 0.0
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & 4095
		v := float64(x>>11) * (1.0 / 9007199254740992.0)
		buf[j] = buf[j]*0.5 + math.Exp(-v) + math.Sqrt(v)
		acc += buf[(j*7)&4095]
	}
	return acc
}

// threadCPU returns the calling thread's CPU time. The caller must be
// locked to its OS thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

type refSample struct {
	at  time.Time
	ns  float64
	cpu int // the CPU a background sample was pinned to, or -1
	// steal and busy are the host's cumulative CPU ticks at the sample.
	steal, busy uint64
}

// cpuTicks returns the host's cumulative steal ticks and busy ticks (every
// state but idle and iowait, steal included) from the first line of
// /proc/stat, or zeros when it cannot be read.
func cpuTicks() (steal, busy uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	var buf [512]byte
	n, _ := f.Read(buf[:]) // a short or failed read fails the parse below
	_ = f.Close()          // read-only
	line, _, _ := strings.Cut(string(buf[:n]), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	var v [8]uint64
	total := uint64(0)
	for i := range v {
		if v[i], err = strconv.ParseUint(fields[i+1], 10, 64); err != nil {
			return 0, 0
		}
		total += v[i]
	}
	return v[7], total - v[3] - v[4]
}

// stealBetween is the share of busy CPU time stolen between two samples.
func stealBetween(a, b refSample) float64 {
	if b.busy <= a.busy || b.steal < a.steal {
		return 0
	}
	return min(float64(b.steal-a.steal)/float64(b.busy-a.busy), 0.9)
}

// refSampler holds reference samples. It takes them either in the
// background, on a goroutine of its own (the served workloads, whose work
// runs on many goroutines), or inline, on the measuring goroutine's own
// thread right after each timed piece of work (sessions, whose work runs
// on that thread). Inline samples track drift better: the reference then
// runs on the CPU the work just ran on.
//
// The background sampler pins each sample to the next CPU the process may
// use, in turn. Left unpinned, it wakes on an idle CPU rather than the one
// a busy tenant worker holds, so it can time a CPU the work did not run
// on: in one serve-control run the reference took 1.4 ms against the usual
// 2.5-2.8 ms while the simulation ran at its usual speed, and the
// corrected latency came out a quarter above the raw one.
type refSampler struct {
	inline bool
	cpus   []int
	stop   chan struct{}
	done   chan struct{}

	mu      sync.Mutex
	samples []refSample
	// sink keeps refLoop's result live so the compiler cannot drop it.
	sink float64
}

// startRefSampler starts background sampling; the first sample is taken
// before it returns, so every later interval has a reference.
func startRefSampler() *refSampler {
	s := &refSampler{cpus: allowedCPUs(), stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(s.done)
		// The thread's CPU affinity is changed, so it is never unlocked:
		// it ends with the goroutine instead of returning to the pool.
		runtime.LockOSThread()
		t := time.NewTicker(refPeriod)
		defer t.Stop()
		for _, cpu := range s.cpus {
			s.takeOn(cpu, refIters)
		}
		close(ready)
		for i := 0; ; i++ {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.takeOn(s.cpus[i%len(s.cpus)], shortIters)
			}
		}
	}()
	<-ready
	return s
}

// allowedCPUs lists the CPUs the process may run on; [-1] when the
// affinity mask cannot be read, so samples are not pinned.
func allowedCPUs() []int {
	var mask [16]uint64
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return []int{-1}
	}
	var cpus []int
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	if len(cpus) == 0 {
		return []int{-1}
	}
	return cpus
}

// takeOn moves the calling thread, which must be locked, to cpu and takes
// a sample there; with cpu -1, or when the move fails, it samples where it
// is.
func (s *refSampler) takeOn(cpu, iters int) {
	if cpu >= 0 {
		var mask [16]uint64
		mask[cpu/64] = 1 << (cpu % 64)
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
			cpu = -1
		}
	}
	s.takeN(iters, cpu)
}

// newInlineRef returns a sampler that samples only when sample is called.
// The calling goroutine must stay locked to its OS thread.
func newInlineRef() *refSampler {
	s := &refSampler{inline: true}
	s.take()
	return s
}

// between takes a short inline sample between two rounds of a session
// and returns it, scaled to a full sample, in ns; a nil or background
// sampler returns 0.
func (s *refSampler) between() float64 {
	if s == nil || !s.inline {
		return 0
	}
	c0 := threadCPU()
	v := refLoop(shortIters)
	c1 := threadCPU()
	s.mu.Lock()
	s.sink += v
	s.mu.Unlock()
	return float64(c1-c0) * refIters / shortIters
}

// betweenScale is the correction for a round bracketed by two short
// samples (1 when there are none).
func betweenScale(before, after float64) float64 {
	if before <= 0 || after <= 0 {
		return 1
	}
	return float64(refNominal) / ((before + after) / 2)
}

// sample takes an inline sample; background samplers ignore it.
func (s *refSampler) sample() {
	if s.inline {
		s.take()
	}
}

// take runs the reference loop once on the calling thread.
func (s *refSampler) take() { s.takeN(refIters, -1) }

func (s *refSampler) takeN(iters, cpu int) {
	c0 := threadCPU()
	v := refLoop(iters)
	c1 := threadCPU()
	steal, busy := cpuTicks()
	s.mu.Lock()
	s.sink += v
	s.samples = append(s.samples, refSample{at: time.Now(), ns: float64(c1-c0) * float64(refIters) / float64(iters), cpu: cpu, steal: steal, busy: busy})
	s.mu.Unlock()
}

// Stop ends background sampling and waits for the sampler to exit.
func (s *refSampler) Stop() {
	if s.inline {
		return
	}
	close(s.stop)
	<-s.done
}

// scale returns refNominal divided by the mean reference time around
// [t0, t1], times the share of busy CPU time not stolen there: multiply a
// duration measured over that interval by it to correct for host drift
// (divide a rate by it).
func (s *refSampler) scale(t0, t1 time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo, hi := s.window(t0, t1)
	if lo >= hi {
		// No sample in the window: use the nearest one.
		i := min(lo, len(s.samples)-1)
		if i > 0 && t0.Sub(s.samples[i-1].at) < s.samples[i].at.Sub(t1) {
			i--
		}
		return float64(refNominal) / s.samples[i].ns
	}
	sum := 0.0
	for _, r := range s.samples[lo:hi] {
		sum += r.ns
	}
	return float64(refNominal) / (sum / float64(hi-lo)) * (1 - stealBetween(s.samples[lo], s.samples[hi-1]))
}

// stealShare returns the share of busy CPU time stolen around [t0, t1].
func (s *refSampler) stealShare(t0, t1 time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo, hi := s.window(t0, t1)
	if hi-lo < 2 {
		return 0
	}
	return stealBetween(s.samples[lo], s.samples[hi-1])
}

// window returns the range of samples within refWindow of [t0, t1]. The
// caller holds mu.
func (s *refSampler) window(t0, t1 time.Time) (lo, hi int) {
	n := len(s.samples)
	lo = sort.Search(n, func(i int) bool { return !s.samples[i].at.Before(t0.Add(-refWindow)) })
	hi = sort.Search(n, func(i int) bool { return s.samples[i].at.After(t1.Add(refWindow)) })
	return lo, hi
}

// runStealShare returns the share of busy CPU time stolen over the run.
func (s *refSampler) runStealShare() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) < 2 {
		return 0
	}
	return stealBetween(s.samples[0], s.samples[len(s.samples)-1])
}

// medianNs returns the median reference sample time in nanoseconds.
func (s *refSampler) medianNs() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	xs := make([]float64, len(s.samples))
	for i, r := range s.samples {
		xs[i] = r.ns
	}
	return median(xs)
}

// cpuMedianNs returns the median sample time per pinned CPU.
func (s *refSampler) cpuMedianNs() map[int]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	by := map[int][]float64{}
	for _, r := range s.samples {
		if r.cpu >= 0 {
			by[r.cpu] = append(by[r.cpu], r.ns)
		}
	}
	out := map[int]float64{}
	for cpu, xs := range by {
		out[cpu] = median(xs)
	}
	return out
}

// peakRSSMiB returns the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
