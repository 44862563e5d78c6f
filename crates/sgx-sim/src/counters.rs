//! Performance counters collected by the simulator.
//!
//! Besides the per-[`crate::Machine`] totals, this module keeps a
//! *session accumulator*: a thread-local [`Counters`] that absorbs the
//! totals of every `Machine` dropped on that thread. The parallel figure
//! harness runs each job on one worker thread and absorbs the sessions
//! of the job's sweep helpers into that thread's, so [`session_take`]
//! around a job yields that job's counter totals without threading a
//! collector through the 25 experiment signatures; summing
//! the per-job results with [`Counters::merge`] reproduces the whole-run
//! totals exactly (u64 addition is associative and commutative).

// The counters are exact u64 totals: a narrowing cast would wrap one.
#![deny(clippy::cast_possible_truncation)]

use std::cell::RefCell;

thread_local! {
    /// Per-thread session accumulator fed by `Machine::drop`.
    static SESSION: RefCell<Counters> = RefCell::new(Counters::default());
}

/// Fold `c` into the current thread's session accumulator. Called by
/// `Machine::drop`; also usable directly for counters captured before a
/// machine is dropped.
pub fn session_absorb(c: &Counters) {
    SESSION.with(|s| s.borrow_mut().merge(c));
}

/// Take (and reset) the current thread's session accumulator.
pub fn session_take() -> Counters {
    SESSION.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Event totals across the whole machine, analogous to the hardware PMU and
/// sgx-perf counters the paper relies on. Tests and benches use these to
/// verify *why* a result looks the way it does (e.g. that a slowdown really
/// comes from EPC fills and not from extra instructions).
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Charged load/RMW accesses.
    pub loads: u64,
    /// Charged store accesses.
    pub stores: u64,
    /// Hits in the (per-core) L1d.
    pub l1_hits: u64,
    /// Hits in the (per-core) L2.
    pub l2_hits: u64,
    /// Hits in the (shared, per-socket) L3.
    pub l3_hits: u64,
    /// Line fills from DRAM.
    pub dram_fills: u64,
    /// DRAM fills served by the stream prefetcher (bandwidth-bound).
    pub prefetched_fills: u64,
    /// DRAM fills that required MEE decryption (EPC data, enclave mode).
    pub epc_fills: u64,
    /// DRAM fills from a remote NUMA node (over UPI).
    pub remote_fills: u64,
    /// Dirty L3 lines written back to DRAM.
    pub writebacks: u64,
    /// Cache lines moved for explicit stream reads/writes.
    pub stream_lines: u64,
    /// Enclave transitions (ECALL/OCALL one-way crossings).
    pub transitions: u64,
    /// Futex sleep/wake pairs performed by the SDK mutex model.
    pub futex_waits: u64,
    /// EPC pages dynamically added via EDMM (EAUG + EACCEPT).
    pub edmm_pages: u64,
    /// SGXv1-style EPC page faults (EWB/ELDU round trips).
    pub epc_page_faults: u64,
    /// Issue groups closed in enclave mode.
    pub enclave_groups: u64,
    /// Second-level TLB misses (page walks).
    pub tlb_misses: u64,
    /// Scalar ALU operations charged via `Core::compute`.
    pub alu_ops: u64,
    /// 512-bit vector operations charged via `Core::vec_compute`.
    pub vec_ops: u64,
    /// Asynchronous enclave exits delivered by the fault engine
    /// (`sgx_sim::faults`); each one also charges two `transitions`.
    pub aex_events: u64,
    /// Transient OCALL failures that forced a retry (fault engine).
    pub ocall_retries: u64,
}

impl Counters {
    /// Field-wise sum: add every counter of `other` into `self`.
    ///
    /// Conservation contract (tested in `tests/integration_counters.rs`
    /// and `tests/integration_equivalence.rs`): merging the per-job
    /// counters of a partitioned run equals the counters of the whole
    /// run, whatever the partition. The destructuring names every field,
    /// so a new counter does not compile until it is merged here (and in
    /// [`Counters::any`] and [`Counters::report`]).
    pub fn merge(&mut self, other: &Counters) {
        let Counters {
            loads,
            stores,
            l1_hits,
            l2_hits,
            l3_hits,
            dram_fills,
            prefetched_fills,
            epc_fills,
            remote_fills,
            writebacks,
            stream_lines,
            transitions,
            futex_waits,
            edmm_pages,
            epc_page_faults,
            enclave_groups,
            tlb_misses,
            alu_ops,
            vec_ops,
            aex_events,
            ocall_retries,
        } = *other;
        self.loads += loads;
        self.stores += stores;
        self.l1_hits += l1_hits;
        self.l2_hits += l2_hits;
        self.l3_hits += l3_hits;
        self.dram_fills += dram_fills;
        self.prefetched_fills += prefetched_fills;
        self.epc_fills += epc_fills;
        self.remote_fills += remote_fills;
        self.writebacks += writebacks;
        self.stream_lines += stream_lines;
        self.transitions += transitions;
        self.futex_waits += futex_waits;
        self.edmm_pages += edmm_pages;
        self.epc_page_faults += epc_page_faults;
        self.enclave_groups += enclave_groups;
        self.tlb_misses += tlb_misses;
        self.alu_ops += alu_ops;
        self.vec_ops += vec_ops;
        self.aex_events += aex_events;
        self.ocall_retries += ocall_retries;
    }

    /// Field-wise difference `self - since`. Counters are monotone (every
    /// event only increments), so for a snapshot taken earlier on the same
    /// machine the subtraction cannot underflow; the profiler
    /// ([`crate::profile`]) relies on these deltas telescoping exactly to
    /// the run totals.
    pub fn delta(&self, since: &Counters) -> Counters {
        Counters {
            loads: self.loads - since.loads,
            stores: self.stores - since.stores,
            l1_hits: self.l1_hits - since.l1_hits,
            l2_hits: self.l2_hits - since.l2_hits,
            l3_hits: self.l3_hits - since.l3_hits,
            dram_fills: self.dram_fills - since.dram_fills,
            prefetched_fills: self.prefetched_fills - since.prefetched_fills,
            epc_fills: self.epc_fills - since.epc_fills,
            remote_fills: self.remote_fills - since.remote_fills,
            writebacks: self.writebacks - since.writebacks,
            stream_lines: self.stream_lines - since.stream_lines,
            transitions: self.transitions - since.transitions,
            futex_waits: self.futex_waits - since.futex_waits,
            edmm_pages: self.edmm_pages - since.edmm_pages,
            epc_page_faults: self.epc_page_faults - since.epc_page_faults,
            enclave_groups: self.enclave_groups - since.enclave_groups,
            tlb_misses: self.tlb_misses - since.tlb_misses,
            alu_ops: self.alu_ops - since.alu_ops,
            vec_ops: self.vec_ops - since.vec_ops,
            aex_events: self.aex_events - since.aex_events,
            ocall_retries: self.ocall_retries - since.ocall_retries,
        }
    }

    /// True when at least one counter is nonzero.
    pub fn any(&self) -> bool {
        let Counters {
            loads,
            stores,
            l1_hits,
            l2_hits,
            l3_hits,
            dram_fills,
            prefetched_fills,
            epc_fills,
            remote_fills,
            writebacks,
            stream_lines,
            transitions,
            futex_waits,
            edmm_pages,
            epc_page_faults,
            enclave_groups,
            tlb_misses,
            alu_ops,
            vec_ops,
            aex_events,
            ocall_retries,
        } = *self;
        (loads
            | stores
            | l1_hits
            | l2_hits
            | l3_hits
            | dram_fills
            | prefetched_fills
            | epc_fills
            | remote_fills
            | writebacks
            | stream_lines
            | transitions
            | futex_waits
            | edmm_pages
            | epc_page_faults
            | enclave_groups
            | tlb_misses
            | alu_ops
            | vec_ops
            | aex_events
            | ocall_retries)
            != 0
    }

    /// Total charged memory accesses.
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Fraction of DRAM fills that were prefetched.
    pub fn prefetch_ratio(&self) -> f64 {
        if self.dram_fills == 0 {
            0.0
        } else {
            self.prefetched_fills as f64 / self.dram_fills as f64
        }
    }

    /// Formatted multi-line report (the `perf stat`-style dump examples
    /// print after a run).
    pub fn report(&self) -> String {
        let Counters {
            loads,
            stores,
            l1_hits,
            l2_hits,
            l3_hits,
            dram_fills,
            prefetched_fills,
            epc_fills,
            remote_fills,
            writebacks,
            stream_lines,
            transitions,
            futex_waits,
            edmm_pages,
            epc_page_faults,
            enclave_groups,
            tlb_misses,
            alu_ops,
            vec_ops,
            aex_events,
            ocall_retries,
        } = *self;
        let mut out = String::new();
        let rows: [(&str, u64); 21] = [
            ("loads", loads),
            ("stores", stores),
            ("L1 hits", l1_hits),
            ("L2 hits", l2_hits),
            ("L3 hits", l3_hits),
            ("DRAM fills", dram_fills),
            ("  prefetched", prefetched_fills),
            ("  EPC (MEE)", epc_fills),
            ("  remote (UPI)", remote_fills),
            ("writebacks", writebacks),
            ("stream lines", stream_lines),
            ("transitions", transitions),
            ("futex waits", futex_waits),
            ("EDMM pages", edmm_pages),
            ("EPC page faults", epc_page_faults),
            ("TLB misses", tlb_misses),
            ("ALU ops", alu_ops),
            ("vector ops", vec_ops),
            ("enclave issue groups", enclave_groups),
            ("AEX events", aex_events),
            ("OCALL retries", ocall_retries),
        ];
        for (name, v) in rows {
            if v > 0 {
                out.push_str(&format!("{name:<22} {v:>14}
"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accesses_sums_loads_and_stores() {
        let c = Counters { loads: 3, stores: 4, ..Default::default() };
        assert_eq!(c.accesses(), 7);
    }

    #[test]
    fn report_lists_only_nonzero_counters() {
        let c = Counters { loads: 5, epc_fills: 2, ..Default::default() };
        let r = c.report();
        assert!(r.contains("loads"));
        assert!(r.contains("EPC (MEE)"));
        assert!(!r.contains("transitions"));
    }

    #[test]
    fn merge_covers_every_field() {
        // Distinct primes per field; merging into a default must reproduce
        // the original exactly (Debug covers all fields, so a counter
        // added later but missed in `merge` fails this test).
        let src = Counters {
            loads: 2,
            stores: 3,
            l1_hits: 5,
            l2_hits: 7,
            l3_hits: 11,
            dram_fills: 13,
            prefetched_fills: 17,
            epc_fills: 19,
            remote_fills: 23,
            writebacks: 29,
            stream_lines: 31,
            transitions: 37,
            futex_waits: 41,
            edmm_pages: 43,
            epc_page_faults: 47,
            enclave_groups: 53,
            tlb_misses: 59,
            alu_ops: 61,
            vec_ops: 67,
            aex_events: 71,
            ocall_retries: 73,
        };
        let mut dst = Counters::default();
        dst.merge(&src);
        assert_eq!(format!("{dst:?}"), format!("{src:?}"));
        dst.merge(&src);
        assert_eq!(dst.loads, 4);
        assert_eq!(dst.ocall_retries, 146);
    }

    #[test]
    fn delta_covers_every_field_and_inverts_merge() {
        let src = Counters {
            loads: 2,
            stores: 3,
            l1_hits: 5,
            l2_hits: 7,
            l3_hits: 11,
            dram_fills: 13,
            prefetched_fills: 17,
            epc_fills: 19,
            remote_fills: 23,
            writebacks: 29,
            stream_lines: 31,
            transitions: 37,
            futex_waits: 41,
            edmm_pages: 43,
            epc_page_faults: 47,
            enclave_groups: 53,
            tlb_misses: 59,
            alu_ops: 61,
            vec_ops: 67,
            aex_events: 71,
            ocall_retries: 73,
        };
        let mut grown = src.clone();
        grown.merge(&src);
        // (src + src) - src == src, field by field (Debug covers all 21).
        assert_eq!(format!("{:?}", grown.delta(&src)), format!("{src:?}"));
        assert!(!grown.delta(&grown).any());
        assert!(src.any());
        assert!(!Counters::default().any());
    }

    #[test]
    fn session_accumulator_takes_and_resets() {
        // Drain whatever earlier tests on this thread left behind.
        let _ = session_take();
        session_absorb(&Counters { loads: 10, ..Default::default() });
        session_absorb(&Counters { loads: 5, vec_ops: 2, ..Default::default() });
        let got = session_take();
        assert_eq!(got.loads, 15);
        assert_eq!(got.vec_ops, 2);
        let empty = session_take();
        assert_eq!(empty.loads, 0);
        assert_eq!(empty.vec_ops, 0);
    }

    #[test]
    fn prefetch_ratio_handles_zero() {
        let c = Counters::default();
        assert_eq!(c.prefetch_ratio(), 0.0);
        let c = Counters { dram_fills: 10, prefetched_fills: 5, ..Default::default() };
        assert!((c.prefetch_ratio() - 0.5).abs() < 1e-12);
    }
}
