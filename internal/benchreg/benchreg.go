// Package benchreg is the QoS regression gate: a curated suite of fast,
// seed-deterministic simulation probes, serialized to versioned
// BENCH_<n>.json baselines and compared at a relative epsilon of 1e-9.
//
// Every metric is an output of the deterministic simulator under fixed
// seeds: predictor accuracy, the paper's §5.4 quantities (FG success of
// the fine controller alone and of fine+coarse, retained BG throughput,
// the converged LLC partition), the QoS of the RT-Gang and CORD-style
// rivals, fault-injection resilience, and one pinned scenario per machine
// class. Same seeds must reproduce them bit for bit, so any drift means
// the controllers' behaviour changed, and the gate fails until the change
// is acknowledged by re-recording the baseline.
//
// The package reads no wall clock. Timing belongs to perfbench (see
// BENCHMARK.json), which corrects for host drift and measures each layer.
//
// cmd/dirigent-ci exposes the gate (-record / -check), and
// scripts/ci.sh -bench wires it into CI.
package benchreg
