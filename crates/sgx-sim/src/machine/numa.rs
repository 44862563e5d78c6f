//! NUMA layer: UPI interconnect accounting and its bandwidth cap. The
//! remote-latency and remote-crypto (UCE) *latency* terms live inside the
//! hierarchy layer's line resolution, where they add onto the far/stream
//! cost of the individual fill; this module owns the *traffic* side —
//! which accesses cross the socket interconnect and what aggregate floor
//! that traffic puts under a phase.

use crate::config::CACHE_LINE;

use super::{Core, Machine};

impl Machine {
    /// Cycles the UPI links need to move `bytes` across sockets — the
    /// interconnect floor `finish_phase` regulates against.
    pub(super) fn upi_cap(&self, bytes: f64) -> f64 {
        bytes * self.cfg.upi.upi_bw_cycles_per_byte
    }
}

impl<'m> Core<'m> {
    /// Account one cache line crossing the socket interconnect (demand
    /// fill write-allocate traffic, NT stores, remote write-backs).
    pub(super) fn upi_line(&mut self) {
        self.upi_bytes += CACHE_LINE as f64;
    }

    /// Account a demand fill served by the remote socket: counted, and
    /// one line of UPI traffic.
    pub(super) fn remote_fill(&mut self) {
        self.m.counters.remote_fills += 1;
        self.upi_bytes += CACHE_LINE as f64;
    }
}
