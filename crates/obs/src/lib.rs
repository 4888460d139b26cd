//! Lock-light observability for the member lookup engine.
//!
//! The lookup engine's performance claims are statements about *work
//! done per query* — the paper's `O(|N|+|E|)` unambiguous bound versus
//! the `O(|N|·(|N|+|E|))` ambiguous one is only meaningful if node
//! visits, merges, and red→blue demotions can be counted. This crate
//! provides the counting machinery, deliberately free of dependencies
//! and of any knowledge of the lookup domain:
//!
//! * [`Counter`], [`Gauge`], [`Histogram`] — relaxed-atomic primitives
//!   whose record path is one or two uncontended read-modify-writes;
//! * [`Family`], [`GaugeFamily`], [`HistogramFamily`], [`Family2`] —
//!   labelled metric families (`…{shard="3"}`,
//!   `…{tenant="acme",op="query"}`) with a bounded-cardinality guard:
//!   past a per-family limit, unseen label values share one `other`
//!   series instead of growing the registry without bound;
//! * [`Registry`] — named get-or-create registration returning `Arc`
//!   handles, so hot paths never touch the registry lock;
//! * [`Snapshot`] — point-in-time export as human-readable text,
//!   Prometheus text exposition, or JSON;
//! * [`Span`] / [`SpanRecorder`] / [`SpanBuffer`] — request-scoped
//!   phase attribution: single-writer span trees with per-trace
//!   monotonic ids and oldest-dropped overflow;
//! * [`Event`] / [`EventSink`] — structured per-query trace events
//!   ([`MemorySink`], [`CountingSink`], [`NullSink`] provided).
//!
//! `cpplookup-core` wires these into the engine (its `obs` module);
//! this crate itself is dependency-free and feature-free.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod span;

pub use event::{CountingSink, Event, EventSink, MemorySink, NullSink};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{
    global, Family, Family2, GaugeFamily, HistogramFamily, MetricSnapshot, MetricValue, Registry,
    Snapshot,
};
pub use span::{Span, SpanBuffer, SpanRecorder, OVERFLOW_LABEL};
