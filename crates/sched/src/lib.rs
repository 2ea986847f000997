//! # sparker-sched
//!
//! The job-scheduling subsystem between clients and the engine — the
//! "millions of users" layer: where the engine runs *one* aggregation at a
//! time, this crate admits, orders, and dispatches *many* concurrent
//! `split_aggregate` jobs from many clients.
//!
//! The normative spec is DESIGN.md §5i. The shape:
//!
//! * **Bounded admission** — [`Scheduler::submit`] either admits a job or
//!   rejects it *typed* ([`SchedError::QueueFull`],
//!   [`SchedError::PoolSaturated`]); it never blocks the client and never
//!   drops silently.
//! * **Policies** ([`policy`]) — FIFO, strict priority, and fair-share
//!   (deficit round-robin per client) behind one [`policy::Policy`] trait.
//!   The policy only picks *which pending job dispatches next*; admission
//!   and completion are policy-independent.
//! * **Epoch namespaces** — every live job holds a distinct namespace in
//!   `1..NS_COUNT` ([`sparker_net::epoch::namespaced`]), folded into the
//!   attempt word of its collective frames, so concurrent rings can never
//!   accept each other's traffic. Namespaces are recycled only after the
//!   job completes.
//! * **Frame-pool backpressure** — admission and dispatch consult the
//!   global [`sparker_net::pool::FramePool`] occupancy
//!   ([`FramePool::pressure_permille`](sparker_net::pool::FramePool::pressure_permille)):
//!   low-priority jobs are shed at admission above
//!   [`SchedConfig::shed_pressure_permille`] and delayed at dispatch above
//!   [`SchedConfig::delay_pressure_permille`] while higher-priority work is
//!   waiting.
//! * **Backends** ([`backend`]) — the scheduler core is generic over where
//!   jobs run: per-lane in-process clusters ([`backend::EngineBackend`]) or
//!   the real-TCP multi-process driver ([`backend::MultiProcBackend`]).
//!
//! Everything is instrumented as `sched.*` counters/gauges/histograms in
//! [`sparker_obs`], plus a gated `sched.job` span per dispatch.

pub mod backend;
pub mod error;
pub mod policy;
pub mod scheduler;

pub use backend::{AggJob, Backend, EngineBackend, JobCtx, MultiProcBackend};
pub use error::SchedError;
pub use policy::{ClientId, FairShare, Fifo, JobMeta, Policy, Priority, StrictPriority};
pub use scheduler::{JobHandle, JobRequest, SchedConfig, Scheduler};
