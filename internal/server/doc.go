// Package server hosts many independent tenant simulations behind a JSON
// HTTP admission API — the Dirigent runtime (§4 of the paper) exposed as a
// long-running multi-tenant control service instead of a batch CLI.
//
// Each tenant owns a full per-run stack (machine → sched.Colocation →
// core.Runtime, assembled by experiment.StartSession) driven by a dedicated
// worker goroutine. All control operations — admitting and evicting FG and
// BG tasks, retargeting deadlines via core.Runtime.SetTarget, stats
// snapshots, result collection — are serialized onto that goroutine through
// a command channel, so the simulation itself stays single-threaded and a
// tenant created with a fixed seed produces a RunResult byte-identical to
// the same run driven directly through experiment.Runner.
//
// Live telemetry streams to any number of subscribers per tenant: the
// tenant's event bus is teed into a broadcaster whose per-subscriber
// bounded channels provide backpressure — a slow consumer drops events
// (counted and surfaced as a metric) rather than stalling the simulation.
// Subscribers choose JSONL (the exact trace encoding of
// internal/telemetry) or SSE framing.
//
// The API surface (all under /v1):
//
//	POST   /v1/tenants               create a tenant (mix, config, machine class, targets, seed, fault plan)
//	GET    /v1/tenants               list tenant stats
//	GET    /v1/tenants/{id}          one tenant's stats
//	DELETE /v1/tenants/{id}          stop and remove a tenant
//	GET    /v1/tenants/{id}/result   final RunResult (?partial=1 snapshots mid-run)
//	POST   /v1/tenants/{id}/targets  retarget one stream's deadline mid-run
//	POST   /v1/tenants/{id}/fg       admit a foreground stream mid-run
//	DELETE /v1/tenants/{id}/fg/{stream}  evict a foreground stream
//	POST   /v1/tenants/{id}/bg       admit a background worker mid-run
//	DELETE /v1/tenants/{id}/bg/{task}    evict a background worker
//	GET    /v1/tenants/{id}/events   live telemetry (JSONL, or SSE via Accept/format)
//	GET    /v1/healthz               liveness + tenant count
//
// Status-code contract: 400 rejects malformed or invalid requests (unknown
// config, policy, or machine class; wrong target count; a negative count,
// an out-of-range fault plan or time limit); 404 an unknown
// tenant; 409 an operation the simulation state refuses (e.g. retargeting
// a configuration with no runtime); and 503 means "not now" — the tenant
// limit is reached, the server is shutting down, or a worker's command
// queue timed out. Load generators treat 503 as shed-or-retry-later; it is
// capacity, not client misbehavior, which is why the tenant limit does not
// answer 429.
//
// cmd/dirigent-serve wires the server to an address with request limits and
// graceful shutdown (drain tenant workers, flush subscriber streams).
package server
