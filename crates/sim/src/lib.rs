//! Experiment harness for the proxbal reproduction: deterministic scenario
//! construction, metrics (CDFs, Gini, distance histograms), a discrete-event
//! engine for the message-level protocol studies, and the experiment
//! drivers behind every figure of the paper.
//!
//! * [`Scenario`] / [`Prepared`] — declarative experiment setup (overlay
//!   size, workload, topology, balancer config) with seeded determinism.
//! * [`metrics`] — distance-weighted load histograms (Figures 7/8), unit
//!   load scatters (Figure 4), per-capacity-class summaries (Figures 5/6),
//!   Gini/percentile helpers.
//! * [`des`] — a minimal discrete-event engine (time-ordered queue) for
//!   [`faults`].
//! * [`faults`] — the one message-level simulation of the tree protocols
//!   (LBI aggregation up, dissemination down) under a seeded fault plan;
//!   the identity plan gives the protocol's wall-clock latency.
//!   [`protocol`] holds the pooled scratch, timing and error types it
//!   shares with the engine.
//! * [`churn`] — Poisson join/crash churn, the engine's `ChurnSource`,
//!   for the self-repair claims of §3.1.
//! * [`engine`] — the continuous-operation engine, the one churn loop:
//!   churn, drift, faults, tree maintenance and periodic + emergency
//!   balancing composed on one virtual clock.
//! * [`experiments`] — one driver per paper figure/claim; the `repro`
//!   binary and `pbench` call these.

pub mod churn;
pub mod des;
pub mod drift;
pub mod engine;
pub mod experiments;
pub mod faults;
pub mod latency;
pub mod metrics;
pub mod parallel;
pub mod protocol;
mod scenario;
pub mod shard;

pub use engine::{run_engine, run_engine_with, EngineConfig, EngineReport, EpochSample};
pub use scenario::{
    DistanceMode, Prepared, Scenario, ScenarioBuilder, TopologyKind, XL2_ORACLE_CAPACITY,
    XL_ORACLE_CAPACITY,
};
