//! Performance counters collected by the simulator.
//!
//! Besides the per-[`crate::Machine`] totals, this module keeps the
//! *session*: one thread-local record of the machines dropped on that
//! thread, their summed [`Counters`] and, when profiled, their profiles in
//! drop order. `Machine::drop` writes to it once. [`session_take`] and
//! [`crate::profile::session_take`] are views of it, so the figure harness
//! gets a job's counter totals and profile without threading a collector
//! through the 25 experiment signatures. The harness sets the record aside
//! around a job or a sweep point with [`session_replace`] and appends the
//! points' records in list order with [`Session::append`]; summing the
//! per-job results with [`Counters::merge`] reproduces the whole-run
//! totals exactly (u64 addition is associative and commutative).

// The counters are exact u64 totals: a narrowing cast would wrap one.
#![deny(clippy::cast_possible_truncation)]

use crate::profile::Profile;
use std::cell::RefCell;

/// What the machines dropped on one thread left behind.
#[derive(Debug, Default)]
pub struct Session {
    /// Their summed counter totals.
    pub counters: Counters,
    /// Their profiles, in drop order (empty unless profiled). `f64` bins
    /// make the fold order part of the result, so the list is folded only
    /// by [`crate::profile::session_take`].
    pub profiles: Vec<Profile>,
}

impl Session {
    /// Add one dropped machine: its counter totals and, when it was
    /// profiled, its profile (an empty profile is left out).
    pub(crate) fn record(&mut self, counters: &Counters, profile: Option<Profile>) {
        self.counters.merge(counters);
        if let Some(p) = profile.filter(|p| !p.is_empty() || p.charged_cycles != 0.0) {
            self.profiles.push(p);
        }
    }

    /// Append `later`, as if its machines had dropped after this record's.
    pub fn append(&mut self, later: Session) {
        self.counters.merge(&later.counters);
        self.profiles.extend(later.profiles);
    }
}

thread_local! {
    /// This thread's session, fed by `Machine::drop`.
    pub(crate) static SESSION: RefCell<Session> = RefCell::new(Session::default());
}

/// Put `with` in place of the current thread's session and return the
/// session it held.
pub fn session_replace(with: Session) -> Session {
    SESSION.with(|s| std::mem::replace(&mut *s.borrow_mut(), with))
}

/// Take (and reset) the counter totals of the current thread's session.
pub fn session_take() -> Counters {
    SESSION.with(|s| std::mem::take(&mut s.borrow_mut().counters))
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
    /// Every counter as `(JSON name, report label, value)`, in field
    /// order: the one list of the counters. The destructuring names every
    /// field, so a new counter does not compile (E0027) until it is listed
    /// here, and [`Counters::merge`], [`Counters::delta`],
    /// [`Counters::any`], [`Counters::report`] and the report layer's JSON
    /// all follow from this list.
    fn fields_mut(&mut self) -> [(&'static str, &'static str, &mut u64); 21] {
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
        } = self;
        [
            ("loads", "loads", loads),
            ("stores", "stores", stores),
            ("l1_hits", "L1 hits", l1_hits),
            ("l2_hits", "L2 hits", l2_hits),
            ("l3_hits", "L3 hits", l3_hits),
            ("dram_fills", "DRAM fills", dram_fills),
            ("prefetched_fills", "  prefetched", prefetched_fills),
            ("epc_fills", "  EPC (MEE)", epc_fills),
            ("remote_fills", "  remote (UPI)", remote_fills),
            ("writebacks", "writebacks", writebacks),
            ("stream_lines", "stream lines", stream_lines),
            ("transitions", "transitions", transitions),
            ("futex_waits", "futex waits", futex_waits),
            ("edmm_pages", "EDMM pages", edmm_pages),
            ("epc_page_faults", "EPC page faults", epc_page_faults),
            ("enclave_groups", "enclave issue groups", enclave_groups),
            ("tlb_misses", "TLB misses", tlb_misses),
            ("alu_ops", "ALU ops", alu_ops),
            ("vec_ops", "vector ops", vec_ops),
            ("aex_events", "AEX events", aex_events),
            ("ocall_retries", "OCALL retries", ocall_retries),
        ]
    }

    /// Every counter as `(JSON name, report label, value)`, in field
    /// order. The JSON name is the field's name.
    pub fn fields(&self) -> [(&'static str, &'static str, u64); 21] {
        self.clone().fields_mut().map(|(name, label, v)| (name, label, *v))
    }

    /// Field-wise sum: add every counter of `other` into `self`.
    ///
    /// Conservation contract (tested in `tests/integration_counters.rs`
    /// and `tests/integration_equivalence.rs`): merging the per-job
    /// counters of a partitioned run equals the counters of the whole
    /// run, whatever the partition.
    pub fn merge(&mut self, other: &Counters) {
        for ((.., total), (.., v)) in self.fields_mut().into_iter().zip(other.fields()) {
            *total += v;
        }
    }

    /// Field-wise difference `self - since`. Counters are monotone (every
    /// event only increments), so for a snapshot taken earlier on the same
    /// machine the subtraction cannot underflow; the profiler
    /// ([`crate::profile`]) relies on these deltas telescoping exactly to
    /// the run totals.
    pub fn delta(&self, since: &Counters) -> Counters {
        let mut d = self.clone();
        for ((.., total), (.., v)) in d.fields_mut().into_iter().zip(since.fields()) {
            *total -= v;
        }
        d
    }

    /// True when at least one counter is nonzero.
    pub fn any(&self) -> bool {
        self.fields().iter().any(|&(.., v)| v != 0)
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
    /// print after a run): one row per nonzero counter, by its label.
    pub fn report(&self) -> String {
        let mut rows = self.fields();
        // The report lists the issue groups after the vector ops, not at
        // their field's position; the counter digests hash this text.
        let at = |name| rows.iter().position(|&(n, ..)| n == name);
        if let (Some(groups), Some(vec_ops)) = (at("enclave_groups"), at("vec_ops")) {
            rows[groups..=vec_ops].rotate_left(1);
        }
        let mut out = String::new();
        for (_, label, v) in rows {
            if v > 0 {
                out.push_str(&format!("{label:<22} {v:>14}\n"));
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

    /// Distinct primes per field.
    fn primes() -> Counters {
        Counters {
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
        }
    }

    #[test]
    fn merge_covers_every_field() {
        // Merging into a default must reproduce the original exactly
        // (Debug covers all fields, so a counter added later but missed
        // in `merge` fails this test).
        let src = primes();
        let mut dst = Counters::default();
        dst.merge(&src);
        assert_eq!(format!("{dst:?}"), format!("{src:?}"));
        dst.merge(&src);
        assert_eq!(dst.loads, 4);
        assert_eq!(dst.ocall_retries, 146);
    }

    #[test]
    fn delta_covers_every_field_and_inverts_merge() {
        let src = primes();
        let mut grown = src.clone();
        grown.merge(&src);
        // (src + src) - src == src, field by field (Debug covers all 21).
        assert_eq!(format!("{:?}", grown.delta(&src)), format!("{src:?}"));
        assert!(!grown.delta(&grown).any());
        assert!(src.any());
        assert!(!Counters::default().any());
    }

    #[test]
    fn report_rows_and_json_names_keep_their_order() {
        // The counter digests hash the report text, and the profile
        // digests the JSON, whose keys are the names `fields` gives.
        let c = primes();
        let names: Vec<&str> = c.fields().iter().map(|&(name, ..)| name).collect();
        assert_eq!(
            names,
            [
                "loads",
                "stores",
                "l1_hits",
                "l2_hits",
                "l3_hits",
                "dram_fills",
                "prefetched_fills",
                "epc_fills",
                "remote_fills",
                "writebacks",
                "stream_lines",
                "transitions",
                "futex_waits",
                "edmm_pages",
                "epc_page_faults",
                "enclave_groups",
                "tlb_misses",
                "alu_ops",
                "vec_ops",
                "aex_events",
                "ocall_retries",
            ]
        );
        let rows = [
            ("loads", 2),
            ("stores", 3),
            ("L1 hits", 5),
            ("L2 hits", 7),
            ("L3 hits", 11),
            ("DRAM fills", 13),
            ("  prefetched", 17),
            ("  EPC (MEE)", 19),
            ("  remote (UPI)", 23),
            ("writebacks", 29),
            ("stream lines", 31),
            ("transitions", 37),
            ("futex waits", 41),
            ("EDMM pages", 43),
            ("EPC page faults", 47),
            ("TLB misses", 59),
            ("ALU ops", 61),
            ("vector ops", 67),
            ("enclave issue groups", 53),
            ("AEX events", 71),
            ("OCALL retries", 73),
        ];
        let want: String = rows.iter().map(|(label, v)| format!("{label:<22} {v:>14}\n")).collect();
        assert_eq!(c.report(), want);
    }

    #[test]
    fn session_accumulator_takes_and_resets() {
        // Drain whatever earlier tests on this thread left behind.
        let _ = session_take();
        let record = |c: &Counters| SESSION.with(|s| s.borrow_mut().record(c, None));
        record(&Counters { loads: 10, ..Default::default() });
        record(&Counters { loads: 5, vec_ops: 2, ..Default::default() });
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
