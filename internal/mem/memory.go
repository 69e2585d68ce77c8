// Package mem models the main-memory system of the simulated machine: a
// fixed peak bandwidth shared by all cores — or, for multi-socket machine
// classes, one bandwidth pool per socket — with access latency that
// stretches as utilization approaches saturation.
//
// This is the coupling channel through which background tasks hurt
// foreground tasks even with a partitioned cache: every LLC miss becomes a
// memory transaction, aggregate demand raises utilization, and queueing
// delay inflates per-miss latency for everyone. The latency curve is the
// standard M/M/1-flavoured stretch factor 1/(1-U) capped at a maximum,
// which reproduces the sharp knee near saturation that makes memory-bound
// phases (bwaves, lbm, RS scans) so intrusive in the paper's Fig. 5.
package mem

import (
	"errors"
	"fmt"
	"time"
)

// Socket describes one memory controller of a multi-socket machine: a
// bandwidth pool contended only by the cores attached to that socket.
type Socket struct {
	// PeakBandwidth is the socket's sustainable bandwidth in bytes/second.
	PeakBandwidth float64
}

// Config describes the memory system.
type Config struct {
	// PeakBandwidth is the sustainable bandwidth in bytes/second. The
	// evaluation machine has 4 channels of DDR4-2133;
	// we use the sustainable random-access (miss-stream) bandwidth, well below
	// peak streaming copy bandwidth, matching measured behaviour under mixed miss traffic.
	PeakBandwidth float64
	// IdleLatency is the unloaded memory access latency.
	IdleLatency time.Duration
	// MaxStretch caps the queueing multiplier so a saturated quantum
	// degrades throughput smoothly instead of dividing by zero.
	MaxStretch float64
	// Sockets, when it has two or more entries, splits the machine into
	// per-socket bandwidth pools: traffic from a socket's cores contends
	// only against that socket's PeakBandwidth (IdleLatency and MaxStretch
	// stay shared). Empty (the default) keeps the single shared pool above,
	// byte-identical to machines built before multi-socket support existed.
	// A one-entry list is rejected: a single pool is set with PeakBandwidth.
	Sockets []Socket
}

// DefaultConfig mirrors the paper's platform: 4×DDR4-2133 with ~22 GB/s
// sustainable bandwidth, ~85 ns idle latency, stretch capped at 20×.
func DefaultConfig() Config {
	return Config{
		PeakBandwidth: 22e9,
		IdleLatency:   85 * time.Nanosecond,
		MaxStretch:    20,
	}
}

// Memory is the shared memory system. Not safe for concurrent use.
type Memory struct {
	cfg Config

	// utilization of the last applied quantum, for observability. With
	// multiple sockets lastUtilization tracks the bottleneck (max) socket
	// and lastSocketUtil holds the per-socket values.
	lastUtilization float64
	lastSocketUtil  []float64
	totalBytes      float64 // lifetime traffic, for counters
}

// New validates cfg and returns a Memory.
func New(cfg Config) (*Memory, error) {
	if cfg.PeakBandwidth <= 0 {
		return nil, fmt.Errorf("mem: peak bandwidth %g must be positive", cfg.PeakBandwidth)
	}
	if cfg.IdleLatency <= 0 {
		return nil, fmt.Errorf("mem: idle latency %v must be positive", cfg.IdleLatency)
	}
	if cfg.MaxStretch < 1 {
		return nil, fmt.Errorf("mem: max stretch %g must be >= 1", cfg.MaxStretch)
	}
	if len(cfg.Sockets) == 1 {
		return nil, errors.New("mem: Sockets has one entry; a single pool is set with PeakBandwidth")
	}
	for i, s := range cfg.Sockets {
		if s.PeakBandwidth <= 0 {
			return nil, fmt.Errorf("mem: socket %d peak bandwidth %g must be positive", i, s.PeakBandwidth)
		}
	}
	m := &Memory{cfg: cfg}
	if len(cfg.Sockets) > 0 {
		m.lastSocketUtil = make([]float64, len(cfg.Sockets))
	}
	return m, nil
}

// MustNew is New that panics on invalid configuration.
func MustNew(cfg Config) *Memory {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the memory configuration.
func (m *Memory) Config() Config { return m.cfg }

// Utilization converts a demand in bytes over a quantum dt into a
// utilization fraction of peak bandwidth. Values above 1 are meaningful to
// the solver (demand exceeding supply) and are not clamped here.
func (m *Memory) Utilization(demandBytes float64, dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	return demandBytes / (m.cfg.PeakBandwidth * dt.Seconds())
}

// LatencyStretch returns the queueing multiplier for a given utilization:
// 1/(1-U) clamped to [1, MaxStretch]. U is clamped to [0, 0.99] before the
// division so the curve is defined everywhere.
func (m *Memory) LatencyStretch(utilization float64) float64 {
	u := utilization
	if u < 0 {
		u = 0
	}
	if u > 0.99 {
		u = 0.99
	}
	s := 1 / (1 - u)
	if s > m.cfg.MaxStretch {
		s = m.cfg.MaxStretch
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Latency returns the effective per-access latency at the given utilization.
func (m *Memory) Latency(utilization float64) time.Duration {
	return time.Duration(float64(m.cfg.IdleLatency) * m.LatencyStretch(utilization))
}

// Apply records the final traffic of a quantum (after the machine's fixed
// point converged) for observability counters.
func (m *Memory) Apply(demandBytes float64, dt time.Duration) {
	u := m.Utilization(demandBytes, dt)
	m.lastUtilization = u
	m.totalBytes += demandBytes
}

// NumSockets returns the number of independent bandwidth pools: 1 for the
// classic shared-pool configuration, len(Sockets) otherwise.
func (m *Memory) NumSockets() int {
	if len(m.cfg.Sockets) == 0 {
		return 1
	}
	return len(m.cfg.Sockets)
}

// SocketPeakBandwidth returns socket i's bandwidth pool in bytes/second.
// For the shared-pool configuration socket 0 is the shared pool.
func (m *Memory) SocketPeakBandwidth(i int) float64 {
	if len(m.cfg.Sockets) == 0 {
		return m.cfg.PeakBandwidth
	}
	return m.cfg.Sockets[i].PeakBandwidth
}

// UtilizationOn converts a demand in bytes over a quantum dt on socket i
// into a utilization fraction of that socket's bandwidth. Like Utilization,
// values above 1 are meaningful to the solver and not clamped.
func (m *Memory) UtilizationOn(socket int, demandBytes float64, dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	return demandBytes / (m.SocketPeakBandwidth(socket) * dt.Seconds())
}

// ApplySockets records the final per-socket traffic of a quantum (after the
// machine's fixed point converged). demands must have NumSockets entries.
// The headline LastUtilization/LastStretch track the bottleneck socket.
func (m *Memory) ApplySockets(demands []float64, dt time.Duration) {
	maxU, total := 0.0, 0.0
	for s, d := range demands {
		u := m.UtilizationOn(s, d, dt)
		if m.lastSocketUtil != nil {
			m.lastSocketUtil[s] = u
		}
		if u > maxU {
			maxU = u
		}
		total += d
	}
	m.lastUtilization = maxU
	m.totalBytes += total
}

// LastSocketUtilization returns socket i's utilization of the most recent
// quantum (equal to LastUtilization for the shared-pool configuration).
func (m *Memory) LastSocketUtilization(i int) float64 {
	if m.lastSocketUtil == nil {
		return m.lastUtilization
	}
	return m.lastSocketUtil[i]
}

// LastUtilization returns the utilization of the most recent quantum.
func (m *Memory) LastUtilization() float64 { return m.lastUtilization }

// LastStretch returns the latency stretch of the most recent quantum (1
// before the first). It is computed on read from LastUtilization.
func (m *Memory) LastStretch() float64 { return m.LatencyStretch(m.lastUtilization) }

// TotalBytes returns lifetime traffic through the memory system.
func (m *Memory) TotalBytes() float64 { return m.totalBytes }

// Reset clears observability state (not the configuration).
func (m *Memory) Reset() {
	m.lastUtilization = 0
	m.totalBytes = 0
	for i := range m.lastSocketUtil {
		m.lastSocketUtil[i] = 0
	}
}
