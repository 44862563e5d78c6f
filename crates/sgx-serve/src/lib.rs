//! # sgx-serve — a fault-tolerant multi-tenant enclave query service
//!
//! The paper benchmarks batch kernels; the related work's endgame
//! (DuckDB-SGX2, Polars-inside-SGX2) is a *long-running* engine inside an
//! enclave serving concurrent clients — where AEX storms and EPC pressure
//! surface as tail latency, not just throughput loss. This crate models
//! that serving system as a deterministic discrete-event simulation:
//!
//! * thousands of simulated client **sessions** per tenant, with seeded
//!   open-loop (fixed-rate) and closed-loop (think-time) arrival models
//!   and per-tenant query-class mixes over the §6 TPC-H plans;
//! * a **bounded worker pool per simulated socket** fed by bounded FIFO
//!   queues;
//! * **admission control** with deterministic load shedding — queue-full
//!   and deadline-infeasible rejections, counted per tenant;
//! * **per-query deadlines** enforced at submission, dispatch, and every
//!   operator boundary of the calibrated per-step plan costs;
//! * **retry with bounded exponential backoff** for steps killed by
//!   injected transient faults, reusing [`sgx_sim::OcallFaults`]
//!   semantics (same failure stream, same capped doubling schedule);
//! * **graceful degradation** — under sustained EPC pressure or deep
//!   queues, new queries are downgraded to the cheaper §4.2-optimized
//!   plan variant (result-identical, proven in `sgx-tpch`).
//!
//! Service times come from a [`CostTable`] calibrated by actually running
//! the plans on a [`sgx_sim::Machine`] under a fault profile (see
//! the `ext_service_tail` experiment in `sgx-bench-core`), so every cycle
//! the service accounts for was charged through the simulator's
//! `Core::commit(Charge)` choke point. The simulation itself is pure
//! integer arithmetic over a totally ordered event queue: byte-identical
//! across runs, hosts, and `--jobs` values.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok
)]
// Every event kind gets an explicit arm in the event loop: a wildcard
// arm would silently swallow a new kind the counters never reconcile.
// Clippy reports a wildcard that stands for exactly one variant under
// the second lint, so both are denied.
#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
#![warn(missing_docs)]

pub mod costs;
pub mod counters;
pub mod des;
pub mod spec;

pub use costs::{CostTable, PlanCost, PlanVariant};
pub use counters::ServiceCounters;
pub use des::{run_service, ServiceOutcome};
pub use spec::{AdmissionPolicy, Arrival, DegradePolicy, ServiceConfig, TenantSpec};
