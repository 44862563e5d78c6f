//! The figure-regeneration harness (`src/bin/all_figures.rs`, which runs
//! any subset of the paper's tables and figures by registry id), the
//! golden recorder (`record_goldens`) and the service-model driver
//! (`service_bench`).
//!
//! The experiment logic itself lives in `sgx_bench_core::experiments` so
//! the workspace integration tests can exercise the same code paths on a
//! tiny profile.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok
)]
