//! Hardware configuration profiles and cost-model constants.
//!
//! Every constant in this file is anchored to a measurement reported in the
//! paper (section references in the doc comments) or to public Ice Lake SP
//! micro-architecture data. The calibration tests in
//! `tests/calibration.rs` assert that the *composed* model reproduces the
//! paper's micro-benchmark ratios, so changing a constant here without
//! re-checking calibration will fail CI.

// Every numeric literal below carries a `paper: §x.y` or `uarch: <source>`
// provenance comment on its line or the line above, so calibration stays
// auditable line by line. A number that is not calibration (a structural
// floor, a unit conversion) carries a `waiver: <reason>` comment instead.
// The unit test `calibration_constants_carry_provenance` enforces both.

/// Cache line size in bytes. SGX encrypts/decrypts at cache-line granularity.
pub const CACHE_LINE: usize = 64; // uarch: x86 cache line; MEE granularity
/// Page size in bytes. EPC pages are 4 KB (paper §2).
pub const PAGE_SIZE: usize = 4096; // paper: §2, EPC pages are 4 KB

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Load-to-use latency in cycles.
    pub latency: f64,
}

impl CacheConfig {
    /// Number of sets; `size / (ways * CACHE_LINE)`.
    pub fn sets(&self) -> usize {
        // waiver: structural floor (≥1 set), not a calibrated constant
        (self.size / (self.ways * CACHE_LINE)).max(1)
    }
}

/// DRAM and memory-encryption-engine (MEE) cost model.
///
/// The split between `latency` (random access) and `stream_line_cycles`
/// (sequential access behind the hardware prefetcher) is what makes the
/// paper's central contrast emerge: random access into the EPC is expensive
/// (§4.1, Fig 5) while sequential scans are almost free (§5.1, Fig 12).
#[derive(Debug, Clone, Copy)]
pub struct MemConfig {
    /// Random-access load latency from local DRAM, in cycles.
    /// Ice Lake SP local DRAM latency is ~75-85 ns; at 2.9 GHz ≈ 220 cycles.
    pub dram_latency: f64,
    /// Additional latency for a random line fill that must be decrypted by
    /// the MEE (enclave mode, data in EPC). Calibrated so that dependent
    /// random reads reach ≈53 % of native throughput at large array sizes
    /// (paper Fig 5: "At 16 GB array size, we measured 53% read throughput").
    pub mee_fill_latency: f64,
    /// Additional cost charged to a *write* miss on EPC data in enclave
    /// mode, covering the read-for-ownership of ciphertext plus the
    /// write-back encryption and integrity-metadata update. Calibrated so
    /// independent random writes fall below 40 % of native performance
    /// (paper Fig 5: "nearly 3 times higher write latencies for the 8 GB
    /// array size").
    pub mee_write_penalty: f64,
    /// Cycles per cache line for a prefetched (sequential) fill from local
    /// DRAM, single stream. ~13 GB/s effective single-core stream bandwidth
    /// at 2.9 GHz ⇒ 64 B / 13 GB/s ≈ 14.3 cycles per line.
    pub stream_line_cycles: f64,
    /// Multiplicative bandwidth tax on sequential EPC *read* traffic in
    /// enclave mode. The paper measures 3 % slowdown for AVX-512 scans
    /// (§5.1) and up to 5.5 % for 64-bit linear reads (§5.4, Fig 15); the
    /// per-instruction share of the gap is modelled separately in the
    /// pipeline, so this factor holds the pure-bandwidth part.
    pub mee_stream_factor: f64,
    /// Multiplicative bandwidth tax on sequential EPC *write* traffic in
    /// enclave mode (Fig 15: linear writes lose only ~2 %).
    pub mee_stream_write_factor: f64,
    /// Fraction of the DRAM-latency part of an *ungrouped* load that an
    /// enclave-mode core cannot hide. 1.0 would mean fully serial misses;
    /// the observed PHT build-phase slowdown (§4.1: "even 9 times slower
    /// than native") calibrates this below 1.
    pub enclave_serial_far_fraction: f64,
    /// Per-socket DRAM bandwidth cap expressed in cycles per byte.
    /// 8 channels DDR4-3200 ⇒ 204.8 GB/s peak, ~150 GB/s achievable;
    /// 2.9e9 / 150e9 ≈ 0.0193 cycles/byte.
    pub socket_bw_cycles_per_byte: f64,
    /// Memory-level parallelism: how many outstanding random misses the
    /// core overlaps in native mode (MSHR-bound, ~10 on Ice Lake).
    pub mlp_native: f64,
    /// Outstanding-miss overlap in enclave mode. Lower than native: the MEE
    /// serializes part of the fill pipeline. Together with
    /// `mee_fill_latency` this produces the 2–3× random-access gap.
    pub mlp_enclave: f64,
    /// Cycles per line of write-back bandwidth (dirty eviction), folded
    /// into streaming writes.
    pub writeback_line_cycles: f64,
    /// Unified second-level TLB entries (Ice Lake SP: 1536 x 4 KB pages).
    /// Working sets spread over more pages than this pay page walks —
    /// the effect that makes software write-combining buffers profitable
    /// at high radix fan-outs.
    pub tlb_entries: usize,
    /// Cycles of a page walk on a TLB miss (pooled with the DRAM-latency
    /// portion: walks overlap with other outstanding work).
    pub tlb_walk_cycles: f64,
}

/// Cross-socket interconnect (UPI) model, including the SGXv2 UPI Crypto
/// Engine (UCE) that encrypts cross-NUMA enclave traffic (paper §2, §5.5).
#[derive(Debug, Clone, Copy)]
pub struct UpiConfig {
    /// Extra latency in cycles for a random access to remote DRAM.
    /// Remote-local delta on 2-socket Ice Lake is ~50-60 ns ≈ 150 cycles.
    pub remote_latency: f64,
    /// Extra latency for UCE encryption/decryption of an enclave line
    /// crossing the UPI. Calibrated against Fig 16: a single-threaded
    /// cross-NUMA enclave scan reaches 77 % of the plain cross-NUMA scan.
    pub uce_latency: f64,
    /// Aggregate bandwidth cap of the UPI links in cycles per byte.
    /// Paper §5.5: "the theoretical upper bound for throughput of the
    /// 3 UPI links between the sockets is 67.2 GB/s";
    /// 2.9e9 / 67.2e9 ≈ 0.0432 cycles/byte.
    pub upi_bw_cycles_per_byte: f64,
    /// Extra cycles per line for sequential (prefetched) remote fills.
    pub remote_stream_extra: f64,
    /// Extra cycles per line of UCE work on sequential enclave remote
    /// fills; mostly hidden at high thread counts (Fig 16: 77 % at 1
    /// thread → 96 % at 16 threads).
    pub uce_stream_extra: f64,
}

/// Instruction-pipeline model capturing the enclave-mode execution
/// difference uncovered in §4.2.
///
/// The paper's hypothesis: in enclave mode the CPU does not perform the
/// "performance-relevant reordering step" that dynamically unrolls loops and
/// overlaps short load→modify→store chains across iterations. Manually
/// unrolling (Listing 2) — computing N independent indexes before issuing N
/// increments — restores most of the lost overlap.
///
/// We model this with *issue groups*: code declares groups of independent
/// operations (a manual unroll of 8 = a group of 8). Native mode ignores
/// group boundaries and overlaps short-latency work up to `ilp_native`;
/// enclave mode overlaps only *within* a group and pays
/// `enclave_group_overhead` at each boundary.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Cycles per scalar ALU op once pipelined (superscalar issue).
    pub cycles_per_op: f64,
    /// Overlap factor for short-latency (cache-hit) access costs in native
    /// mode: the OOO window hides L1/L2 latencies across iterations.
    pub ilp_native: f64,
    /// Overlap factor for short-latency access costs *within* an explicit
    /// issue group in enclave mode.
    pub ilp_enclave_group: f64,
    /// Fixed serialization cost charged when an issue group closes in
    /// enclave mode. Calibrated against Fig 7: naive histogram creation is
    /// 225 % slower in the enclave; 8× manual unrolling brings it to ~20 %.
    pub enclave_group_overhead: f64,
    /// Cycles per 512-bit vector operation (AVX-512 lane).
    pub cycles_per_vec_op: f64,
}

/// Costs of crossing the enclave boundary (§4.4).
#[derive(Debug, Clone, Copy)]
pub struct TransitionConfig {
    /// Cycles for an ECALL or OCALL one-way transition (EENTER/EEXIT pair
    /// amortized): TEEBench and sgx-perf report ~8k-14k cycles.
    pub transition_cycles: f64,
    /// Extra cycles for the futex syscall performed outside the enclave
    /// when an SDK mutex sleeps or wakes a thread.
    pub futex_cycles: f64,
}

/// Asynchronous-interrupt cost model, consulted by the fault-injection
/// engine (`sgx_sim::faults`, Stress-SGX-style AEX storms).
///
/// Only the *native* handler cost lives here: in enclave mode an
/// asynchronous exit charges a full enclave round trip
/// (2 × [`TransitionConfig::transition_cycles`]) and invalidates the
/// interrupted core's L1/TLB/stream state, so the enclave side of the
/// asymmetry is already anchored by the §4.4 transition measurements.
#[derive(Debug, Clone, Copy)]
pub struct InterruptConfig {
    /// Cycles a native-mode core loses to one timer/IPI interrupt: kernel
    /// entry, handler, return — no enclave state to scrub and no TLB
    /// flush. ~0.5 µs at 2.9 GHz.
    pub native_interrupt_cycles: f64,
}

/// EDMM (dynamic enclave memory) cost model (§4.4, Fig 11).
#[derive(Debug, Clone, Copy)]
pub struct EdmmConfig {
    /// Cycles to dynamically add one EPC page to a running enclave:
    /// OCALL to the host, EAUG by the kernel driver, EACCEPT inside the
    /// enclave, page zeroing. Calibrated so a materializing join that must
    /// grow the enclave reaches only ~4.5 % of the statically-sized join
    /// (Fig 11).
    pub page_add_cycles: f64,
}

/// Sealed-storage (AES-GCM) cost model for the secure storage data path
/// (reproduction extension, motivated by the related work on securing
/// the storage data path with SGX enclaves). Data at rest lives outside
/// the enclave as AES-GCM sealed blocks; reading it inside means
/// streaming ciphertext in and paying software decryption + tag
/// verification on top of the ordinary memory costs. The constants are
/// anchored to public AES-NI/VAES throughput data, not to a paper
/// figure.
#[derive(Debug, Clone, Copy)]
pub struct SealConfig {
    /// Cycles to decrypt + GHASH-authenticate one 64-byte cache line of
    /// sealed data.
    pub gcm_cycles_per_line: f64,
    /// Fixed per-block cost: IV/counter setup, J0 derivation and the
    /// final tag comparison, paid once per sealed block.
    pub gcm_block_setup_cycles: f64,
    /// Sealed-block payload size in bytes (one GCM message per block).
    pub block_bytes: usize,
}

/// SGXv1-style EPC paging model (reproduction extension, not a paper
/// figure): lets the suite demonstrate *why* CrkJoin won on SGXv1.
#[derive(Debug, Clone, Copy)]
pub struct PagingConfig {
    /// Usable EPC bytes before paging starts (SGXv1: ~92 MB usable of
    /// 128/256 MB PRM).
    pub resident_bytes: usize,
    /// Cycles per EPC page fault (EWB + ELDU round trip: encrypt/evict one
    /// page, decrypt/load another; ~40k cycles in SGXv1 literature).
    pub fault_cycles: f64,
}

/// Which SGX generation the machine models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SgxGeneration {
    /// SGXv2 (Ice Lake+): large EPC, no paging in our experiments.
    V2,
    /// SGXv1 (client parts): small EPC with software paging. Only used by
    /// the CrkJoin ablation extension.
    V1,
}

/// Complete machine description. `xeon_gold_6326()` reproduces the paper's
/// Table 1; `scaled(f)` shrinks caches and the paging threshold by `f` so
/// experiments can run on proportionally smaller data without changing any
/// cache-vs-data-size relationship.
#[derive(Debug, Clone)]
pub struct HwConfig {
    /// Human-readable profile name.
    pub name: String,
    /// Number of CPU sockets (NUMA nodes).
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Core clock in GHz (frequency-pinned, Turbo Boost off, per §3).
    pub freq_ghz: f64,
    /// L1 data cache (per core).
    pub l1d: CacheConfig,
    /// L2 cache (per core).
    pub l2: CacheConfig,
    /// L3 cache (per socket, shared).
    pub l3: CacheConfig,
    /// DRAM + MEE model.
    pub mem: MemConfig,
    /// Cross-socket interconnect model.
    pub upi: UpiConfig,
    /// Pipeline/ILP model.
    pub pipeline: PipelineConfig,
    /// Enclave transition costs.
    pub transitions: TransitionConfig,
    /// Asynchronous-interrupt costs (fault injection).
    pub interrupts: InterruptConfig,
    /// Dynamic enclave memory costs.
    pub edmm: EdmmConfig,
    /// SGX generation; V1 additionally enables `paging`.
    pub generation: SgxGeneration,
    /// EPC paging model (only consulted for `SgxGeneration::V1`).
    pub paging: PagingConfig,
    /// Sealed-storage (AES-GCM) costs for the secure storage data path.
    pub seal: SealConfig,
    /// EPC capacity per socket in bytes (Table 1: 64 GB/socket).
    pub epc_per_socket: usize,
}

impl HwConfig {
    /// Total number of physical cores.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Convert a cycle count to seconds at the configured frequency.
    pub fn cycles_to_secs(&self, cycles: f64) -> f64 {
        // waiver: GHz-to-Hz unit conversion, not calibration
        cycles / (self.freq_ghz * 1e9)
    }

    /// The socket a core id belongs to (cores are numbered socket-major).
    pub fn socket_of_core(&self, core: usize) -> usize {
        core / self.cores_per_socket
    }
}

/// The paper's benchmark server (Table 1): dual-socket Intel Xeon Gold 6326
/// "Ice Lake SP", 16 cores/socket at a pinned 2.9 GHz, 48 KB L1d, 1.25 MB
/// L2, 24 MB L3 per socket, 8 channels of DDR4-3200 per socket, 64 GB EPC
/// per socket.
pub fn xeon_gold_6326() -> HwConfig {
    HwConfig {
        name: "Intel Xeon Gold 6326 (Table 1)".to_string(),
        sockets: 2, // paper: §3 Table 1, dual socket
        cores_per_socket: 16, // paper: §3 Table 1, 16 cores per socket
        freq_ghz: 2.9, // paper: §3, frequency pinned to 2.9 GHz
        l1d: CacheConfig { size: 48 * 1024, ways: 12, latency: 5.0 }, // paper: §3 Table 1, 48 KB L1d; uarch: 5-cycle load-to-use
        l2: CacheConfig { size: 1280 * 1024, ways: 20, latency: 14.0 }, // paper: §3 Table 1, 1.25 MB L2; uarch: ~14-cycle latency
        l3: CacheConfig { size: 24 * 1024 * 1024, ways: 12, latency: 42.0 }, // paper: §3 Table 1, 24 MB shared L3; uarch: ~42-cycle latency
        mem: MemConfig {
            dram_latency: 220.0, // uarch: ~76 ns local DRAM load-to-use at 2.9 GHz
            mee_fill_latency: 175.0, // paper: §4.1 Fig 5, in-EPC random reads reach ~53% of native
            mee_write_penalty: 180.0, // paper: §4.1 Fig 5, random enclave writes slower than reads
            stream_line_cycles: 14.3, // uarch: ~13 GB/s single-stream sequential read at 2.9 GHz
            mee_stream_factor: 1.025, // paper: §5.1, sequential scans lose only a few percent in EPC
            mee_stream_write_factor: 1.02, // paper: §5.4 Fig 15, near-native linear enclave writes
            enclave_serial_far_fraction: 0.6, // paper: §4.1, dependent far misses serialize behind the MEE
            socket_bw_cycles_per_byte: 2.9 / 150.0, // uarch: 8ch DDR4-3200, ~150 GB/s achievable per socket
            mlp_native: 6.0, // uarch: MSHR-bound overlap of independent misses
            mlp_enclave: 6.0, // paper: §5.4, grouped enclave misses overlap like native
            writeback_line_cycles: 7.0, // uarch: dirty-eviction bandwidth share per line
            tlb_entries: 1536, // uarch: Ice Lake SP unified second-level TLB
            tlb_walk_cycles: 40.0, // uarch: page-walk cost on an STLB miss
        },
        upi: UpiConfig {
            remote_latency: 170.0, // uarch: ~55 ns extra for remote-socket DRAM over UPI
            uce_latency: 90.0, // paper: §5.5 Fig 16, cross-NUMA enclave single-thread at ~77%
            upi_bw_cycles_per_byte: 2.9 / 67.2, // paper: §5.5, 3 UPI links at 67.2 GB/s aggregate
            remote_stream_extra: 14.0, // uarch: remote prefetched-fill tax per line
            uce_stream_extra: 8.0, // paper: §5.5 Fig 16, UCE overhead mostly hidden at full threads
        },
        pipeline: PipelineConfig {
            cycles_per_op: 0.5, // uarch: two sustained scalar ALU ops per cycle
            ilp_native: 4.0, // paper: §4.2, OOO overlap across loop iterations in native mode
            ilp_enclave_group: 6.0, // paper: §4.2 Listing 2, overlap within an unrolled issue group
            enclave_group_overhead: 5.0, // paper: §4.2 Fig 7, naive enclave loop ~225% vs unrolled ~20%
            cycles_per_vec_op: 1.0, // uarch: one 512-bit vector op per cycle (single FMA port)
        },
        // paper: §4.4, ECALL/OCALL cost 8k-14k cycles; futex wake via sgx-perf
        transitions: TransitionConfig { transition_cycles: 10_000.0, futex_cycles: 2_000.0 },
        interrupts: InterruptConfig { native_interrupt_cycles: 1_500.0 }, // uarch: ~0.5 us native interrupt round trip
        edmm: EdmmConfig { page_add_cycles: 36_000.0 }, // paper: §4.4 Fig 11, EDMM growth adds up to ~4.5%
        generation: SgxGeneration::V2,
        // paper: §2, SGXv1 exposes ~92 MB usable PRM; uarch: ~40k-cycle EWB/ELDU round trip
        paging: PagingConfig { resident_bytes: 92 * 1024 * 1024, fault_cycles: 40_000.0 },
        seal: SealConfig {
            gcm_cycles_per_line: 48.0, // uarch: AES-NI+PCLMUL AES-GCM decrypt ≈0.75 cycles/byte on Ice Lake SP
            gcm_block_setup_cycles: 220.0, // uarch: per-message GCM overhead (IV/J0 setup, final GHASH + tag compare)
            block_bytes: 4096, // uarch: sealed blocks sized to the 4 KB EPC page granularity
        },
        epc_per_socket: 64 * 1024 * 1024 * 1024, // paper: §3 Table 1, 64 GB EPC per socket
    }
}

impl HwConfig {
    /// Shrink the machine by `factor`: caches, the SGXv1 paging threshold
    /// and the EPC capacity scale down; latencies, bandwidth rates and the
    /// pipeline model are size-independent and stay fixed. Running an
    /// experiment on `1/factor`-sized data on the scaled machine preserves
    /// every cache-residency relationship of the full-size experiment.
    pub fn scaled(mut self, factor: usize) -> HwConfig {
        assert!(factor >= 1, "scale factor must be >= 1"); // waiver: structural sanity check, not calibration
        if factor == 1 {
            return self;
        }
        let shrink = |c: &mut CacheConfig| {
            c.size = (c.size / factor).max(c.ways * CACHE_LINE);
        };
        shrink(&mut self.l1d);
        shrink(&mut self.l2);
        shrink(&mut self.l3);
        // waiver: structural floor: keep at least 16 TLB entries
        self.mem.tlb_entries = (self.mem.tlb_entries / factor).max(16);
        self.paging.resident_bytes = (self.paging.resident_bytes / factor).max(PAGE_SIZE);
        self.epc_per_socket = (self.epc_per_socket / factor).max(PAGE_SIZE);
        self.name = format!("{} [1/{factor} scale]", self.name);
        self
    }

    /// The paper's machine with an SGXv1-style EPC: small usable EPC and
    /// software paging. Used by the CrkJoin ablation extension.
    pub fn sgxv1(mut self) -> HwConfig {
        self.generation = SgxGeneration::V1;
        self.name = format!("{} [SGXv1 EPC model]", self.name);
        self
    }
}

/// Default profile for tests and fast local runs: the Table 1 machine at
/// 1/16 scale (L3 = 1.5 MB, L2 = 80 KB, L1d = 3 KB).
pub fn scaled_profile() -> HwConfig {
    // waiver: test-profile scale choice, not a paper constant
    xeon_gold_6326().scaled(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::{tokenize, TokKind};
    use std::collections::BTreeSet;

    /// 1-based lines of `src`, read up to its `#[cfg(test)]` line, that
    /// hold a numeric literal outside comments, string and char literals
    /// but have no provenance comment on that line or the line above. A
    /// provenance comment names `paper:` or `uarch:`, or is a
    /// `waiver: <reason>` with a non-empty reason; it counts on the line
    /// it starts on.
    fn untagged_constant_lines(src: &str) -> Vec<u32> {
        let body = src.find("\n#[cfg(test)]").map_or(src, |end| &src[..end]);
        let lexed = tokenize(body);
        let is_tag = |comment: &str| {
            comment.contains("paper:")
                || comment.contains("uarch:")
                || comment
                    .split_once("waiver:")
                    .is_some_and(|(_, reason)| !reason.trim().is_empty())
        };
        let tagged: BTreeSet<u32> =
            lexed.comments.iter().filter(|c| is_tag(&c.text)).map(|c| c.line).collect();
        let mut untagged: Vec<u32> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.line)
            .filter(|line| !tagged.contains(line) && !tagged.contains(&(line - 1)))
            .collect();
        untagged.dedup();
        untagged
    }

    #[test]
    fn calibration_constants_carry_provenance() {
        let untagged = untagged_constant_lines(include_str!("config.rs"));
        assert!(
            untagged.is_empty(),
            "config.rs lines {untagged:?} hold a numeric constant without a `paper:`/`uarch:` \
             provenance comment or a `waiver: <reason>` on that line or the line above"
        );
    }

    #[test]
    fn provenance_check_flags_an_untagged_constant() {
        let src = "pub const A: usize = 64; // uarch: x86 cache line\n\
                   // paper: §4.1 Fig 5\n\
                   pub const B: f64 = 175.0;\n\
                   pub const C: f64 = 220.0;\n\
                   let l1d = xeon_gold_6326(\"1 GHz /* 2 */\"); /* 3 */\n\
                   let s = \"4 \\\n 5\";\n\
                   // waiver:\n\
                   let floor = 16;\n\
                   let quote = '\"'; let n = 10;\n\
                   #[cfg(test)]\n\
                   const T: u32 = 9;\n";
        // C has no tag; `floor`'s waiver gives no reason, and neither has
        // `n`, behind a char literal that holds a quote and opens no
        // string. Digits inside identifiers, strings and comments are not
        // constants, a string's line continuation still ends a line, and
        // the test module is not read.
        assert_eq!(untagged_constant_lines(src), [4, 9, 10]);
    }

    #[test]
    fn table1_matches_paper() {
        let c = xeon_gold_6326();
        assert_eq!(c.sockets, 2);
        assert_eq!(c.cores_per_socket, 16);
        assert_eq!(c.l1d.size, 48 * 1024);
        assert_eq!(c.l2.size, 1280 * 1024);
        assert_eq!(c.l3.size, 24 * 1024 * 1024);
        assert_eq!(c.epc_per_socket, 64 * 1024 * 1024 * 1024);
        assert!((c.freq_ghz - 2.9).abs() < 1e-9);
        assert_eq!(c.generation, SgxGeneration::V2);
    }

    #[test]
    fn cache_sets_are_consistent() {
        let c = xeon_gold_6326();
        assert_eq!(c.l1d.sets(), 48 * 1024 / (12 * 64));
        assert_eq!(c.l2.sets(), 1280 * 1024 / (20 * 64));
        assert_eq!(c.l3.sets(), 24 * 1024 * 1024 / (12 * 64));
    }

    #[test]
    fn scaling_preserves_ratios_and_floors() {
        let full = xeon_gold_6326();
        let s = full.clone().scaled(16);
        assert_eq!(s.l3.size, full.l3.size / 16);
        assert_eq!(s.l2.size, full.l2.size / 16);
        // Latencies and bandwidth do not change with scale.
        assert_eq!(s.mem.dram_latency, full.mem.dram_latency);
        assert_eq!(s.mem.socket_bw_cycles_per_byte, full.mem.socket_bw_cycles_per_byte);
        // Extreme scaling clamps to one line per way.
        let tiny = xeon_gold_6326().scaled(1 << 20);
        assert!(tiny.l1d.size >= tiny.l1d.ways * CACHE_LINE);
        assert!(tiny.l1d.sets() >= 1);
    }

    #[test]
    fn scaled_by_one_is_identity() {
        let a = xeon_gold_6326();
        let b = xeon_gold_6326().scaled(1);
        assert_eq!(a.l3.size, b.l3.size);
        assert_eq!(a.name, b.name);
    }

    #[test]
    fn socket_of_core_is_socket_major() {
        let c = xeon_gold_6326();
        assert_eq!(c.socket_of_core(0), 0);
        assert_eq!(c.socket_of_core(15), 0);
        assert_eq!(c.socket_of_core(16), 1);
        assert_eq!(c.socket_of_core(31), 1);
    }

    #[test]
    fn cycles_to_secs() {
        let c = xeon_gold_6326();
        assert!((c.cycles_to_secs(2.9e9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sgxv1_profile_enables_paging_generation() {
        let c = xeon_gold_6326().sgxv1();
        assert_eq!(c.generation, SgxGeneration::V1);
        assert!(c.paging.resident_bytes < 128 * 1024 * 1024);
    }
}
