//! # sgx-scans — AVX-512-style columnar scans and linear memory kernels
//!
//! §5 of the paper: state-of-the-art SIMD column scans (Willhalm et al.
//! \[38\], Polychroniou et al. \[29\]) that "load 64 byte-sized values at once
//! from a column, compare them to a lower and upper bound, and store the
//! comparison result either in a bit vector or materialize row
//! identifiers", plus pmbw-style linear read/write kernels in 64-bit and
//! 512-bit widths (§5.4, Fig 15).
//!
//! Scans compute real results while charging the simulator per 64-byte
//! vector operation. Their outputs go to write-only sinks that keep a
//! digest, which tests check against the scalar oracle.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok
)]
#![warn(missing_docs)]

pub mod linear;
pub mod packed;
pub mod scan;

pub use linear::{linear_read, linear_write, LinearConfig, Width};
pub use packed::{packed_scan_count, PackedColumn};
pub use scan::{
    column_scan, gen_column, reference_filter, reference_scan_digest, ScanConfig, ScanOutput,
    ScanStats,
};
