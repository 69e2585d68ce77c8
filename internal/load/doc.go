// Package load is the open-loop load generator for dirigent-serve: it
// synthesizes tenant-churn arrival traces from seeded stochastic models
// (Poisson, bursty ON/OFF, diurnal) or replays recorded JSONL traces, and
// drives the server's JSON API with create/retarget/evict events at the
// trace's pace — open-loop, so a slow server does not throttle the
// generator, it accumulates queueing delay that the report surfaces as
// tail latency and dropped events.
//
// The package splits into two halves with very different determinism
// contracts:
//
//   - Trace synthesis (Spec, Synthesize, Trace) is seed-deterministic:
//     the same spec and seed reproduce the identical trace byte for byte.
//     That property is tested and gated — a trace is a versionable
//     artifact, like a scenario file or a golden.
//   - Replay (Replay, Report) is wall-clock by nature: it measures a real
//     server's API latency and QoS outcomes under churn. Latencies are
//     reported (p50/p95/p99 per operation) but never gated hard; the
//     gated replay properties are the structural ones — zero leaked
//     tenants after drain, zero dropped events in the CI smoke.
//
// cmd/dirigent-load is the CLI front end. TestPinnedTraceGolden pins one
// short seeded trace byte for byte.
package load
