#![warn(missing_docs)]

//! Unified tracing + profiling layer for the cuTS reproduction.
//!
//! The paper's evaluation is built on Nsight Compute counters and
//! per-node timelines; this crate is the reproduction's equivalent
//! substrate, shared by every other crate:
//!
//! * [`Trace`] / [`Span`] — the emission API over a monotonic clock
//!   with rank/lane tags and hardware-counter-delta attachment.
//!   [`Trace::instant_with`] is the one call that emits a point event;
//!   it feeds the journal (when enabled) and the flight ring (for
//!   lifecycle kinds, always). A disabled `Trace` (the default)
//!   allocates nothing per call once the ring is warm.
//! * [`Journal`] — a lossless, lock-sharded recorder of typed [`Event`]s:
//!   kernel launches, per-level expansion steps, trie budget/spill,
//!   arena slab activity, plan-cache hits, chunk lifecycle
//!   (assign/process/donate/commit/reclaim), heartbeats, and injected
//!   faults.
//! * [`export`] — Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing` / Perfetto; one process track per rank, one
//!   thread track per lane and per SM), flat JSONL, and a structural
//!   validator for tests.
//! * [`metrics`] — a Prometheus-style text snapshot.
//! * [`registry`] — always-on serving metrics: lock-free lane-sharded
//!   counters, gauges, and log2-bucketed latency histograms with a
//!   zero-cost disabled path (the journal answers "what happened in
//!   this run"; the registry answers "what are my p99s right now").
//! * [`flight`] — the crash flight recorder: the bounded, lossy,
//!   overwrite-oldest sink of every lifecycle instant
//!   ([`EventKind::is_lifecycle`]), fed even when the journal is off and
//!   dumped to a post-mortem file on failure paths; a dump parses back
//!   into [`Event`]s.
//! * [`json`] — the workspace's serde stand-in ([`ToJson`]) plus a small
//!   parser, so structured output is built from trees rather than
//!   hand-formatted strings.

pub mod event;
pub mod export;
pub mod flight;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use event::{Arg, CounterDelta, Event, EventKind};
pub use export::{chrome_trace, jsonl, validate_chrome, ChromeSummary, SM_LANE_BASE};
pub use journal::{lane, Journal};
pub use json::{Json, SchemaError, ToJson};
pub use metrics::{validate_exposition, Metric, MetricKind, MetricsSnapshot};
pub use registry::{Counter, Gauge, Hist, HistSnapshot, Registry};
pub use trace::{Span, Trace, TraceConfig};
