//! Secure storage data path: sealed blocks decrypted, filtered, and
//! aggregated inside the enclave (reproduction extension).
//!
//! The scenario follows the confidential-analytics pattern of *Securing
//! the Storage Data Path with SGX Enclaves* and *Stress-SGX*
//! (PAPERS.md): a column lives at rest as AES-GCM-sealed 4 KB blocks in
//! untrusted memory; the enclave streams the ciphertext in (charged
//! loads), pays the modeled GCM decrypt cost per cache line plus a
//! per-block setup charge ([`sgx_sim::config::SealConfig`]), rebuilds
//! the column — plain, dictionary- or RLE-encoded — inside the EPC
//! (charged stream writes), then filters and group-aggregates it.
//! Compression composes with sealing: an encoded column means fewer
//! sealed bytes to decrypt *and* fewer MEE-priced lines to scan.
//!
//! Sealing itself happens uncharged on the data owner's machine; the
//! "ciphertext" is the encoded payload XORed with a deterministic
//! keystream — the simulator models the *cost* of AES-GCM, not its
//! cryptography, but the byte-level round trip keeps the decode path
//! honest (tests recover the exact column from sealed bytes only).

use crate::aggregate::group_mask;
use crate::compress::{rank_dictionary, split_runs, DictColumn, RleColumn};
use sgx_sim::{worker_range, Machine, Region, SimVec};

/// On-disk layout of a sealed column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFormat {
    /// Raw little-endian i32 rows.
    Plain,
    /// Dictionary header + 16-bit codes ([`DictColumn`]).
    Dict,
    /// Run header + (value, length) arrays ([`RleColumn`]).
    Rle,
}

impl StorageFormat {
    /// Stable label for figures and bench rows.
    pub fn label(self) -> &'static str {
        match self {
            StorageFormat::Plain => "plain",
            StorageFormat::Dict => "dict",
            StorageFormat::Rle => "rle",
        }
    }
}

/// A column at rest: sealed bytes in untrusted DRAM (ciphertext needs
/// no EPC protection in either setting) plus the layout metadata the
/// reader needs to interpret the plaintext.
pub struct SealedColumn {
    format: StorageFormat,
    sealed: SimVec<u8>,
    rows: usize,
}

/// The column after in-enclave unsealing, in its storage encoding.
pub enum UnsealedColumn {
    /// Decoded plain column.
    Plain(SimVec<i32>),
    /// Dictionary-encoded column (scanned without full decompression).
    Dict(DictColumn),
    /// RLE column (scanned run-at-a-time).
    Rle(RleColumn),
}

/// Cost and result shape of one storage-path query.
#[derive(Debug, Clone)]
pub struct StoragePathStats {
    /// Bytes of sealed payload streamed and decrypted.
    pub sealed_bytes: usize,
    /// Rows in the column.
    pub rows: usize,
    /// Wall cycles of the unseal (stream-in + GCM + rebuild).
    pub decrypt_cycles: f64,
    /// Wall cycles of the filter scan.
    pub scan_cycles: f64,
    /// Wall cycles of the grouped aggregation.
    pub agg_cycles: f64,
    /// Wall cycles of the whole path.
    pub total_cycles: f64,
    /// Rows passing the filter.
    pub matches: u64,
    /// Sum of matching values.
    pub sum: i64,
    /// Grouped count of matching rows by `value & (groups - 1)`.
    pub groups: Vec<u64>,
}

/// Deterministic keystream byte for sealed-payload position `i`.
fn keystream(i: usize) -> u8 {
    let x = (i as u64 / 8).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0xA5A5);
    let x = (x ^ (x >> 29)).wrapping_mul(0xBF58476D1CE4E5B9);
    (x >> ((i % 8) * 8)) as u8
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Seal `values` in `format` (uncharged — the data owner seals outside
/// the measured machine). The ciphertext lands in untrusted DRAM on
/// node 0.
pub fn seal_column(machine: &mut Machine, values: &[i32], format: StorageFormat) -> SealedColumn {
    let mut payload = Vec::new();
    match format {
        StorageFormat::Plain => {
            for &v in values {
                payload.extend_from_slice(&v.to_le_bytes());
            }
        }
        StorageFormat::Dict => {
            let (dict, codes) = rank_dictionary(values);
            push_u32(&mut payload, dict.len() as u32);
            for v in dict {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            for code in codes {
                payload.extend_from_slice(&code.to_le_bytes());
            }
        }
        StorageFormat::Rle => {
            let runs = split_runs(values);
            push_u32(&mut payload, runs.len() as u32);
            for &(v, _) in &runs {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            for &(_, l) in &runs {
                push_u32(&mut payload, l);
            }
        }
    }
    let mut sealed = machine.alloc_on::<u8>(payload.len(), Region::Untrusted(0));
    for (i, &b) in payload.iter().enumerate() {
        sealed.poke(i, b ^ keystream(i));
    }
    SealedColumn { format, sealed, rows: values.len() }
}

impl SealedColumn {
    /// Layout of the sealed payload.
    pub fn format(&self) -> StorageFormat {
        self.format
    }

    /// Rows the column decodes to.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes at rest (what the enclave must stream and decrypt).
    pub fn sealed_bytes(&self) -> usize {
        self.sealed.len()
    }
}

/// Decrypt and rebuild a sealed column inside the enclave. Workers
/// decrypt disjoint blocks round-robin (charged ciphertext loads plus
/// the GCM line + per-block setup charges); the decoded structures are
/// then written back through charged stream writers. Returns the
/// unsealed column and the unseal's wall cycles. Results are
/// byte-identical across `cores` arrangements.
pub fn unseal(machine: &mut Machine, cores: &[usize], col: &SealedColumn) -> (UnsealedColumn, f64) {
    let seal_cfg = machine.cfg().seal;
    let bytes = col.sealed.len();
    let blocks = bytes.div_ceil(seal_cfg.block_bytes).max(1);
    let t = cores.len().max(1);
    let start = machine.wall_cycles();

    // Phase 1: stream ciphertext out of untrusted DRAM and pay the GCM
    // decrypt model, collecting plaintext host-side for the rebuild.
    let mut plain = vec![0u8; bytes];
    {
        let scope = machine.phase("decrypt");
        machine.parallel(cores, |c| {
            let w = c.worker();
            for b in (w..blocks).step_by(t) {
                let lo = b * seal_cfg.block_bytes;
                let hi = ((b + 1) * seal_cfg.block_bytes).min(bytes);
                if lo >= hi {
                    continue;
                }
                c.charge(seal_cfg.gcm_block_setup_cycles);
                col.sealed.read_stream_vec(c, lo..hi, |c, at, line| {
                    c.charge(seal_cfg.gcm_cycles_per_line);
                    for (j, &cipher) in line.iter().enumerate() {
                        plain[at + j] = cipher ^ keystream(at + j);
                    }
                });
            }
        });
        drop(scope);
    }

    // Phase 2: rebuild the column in the EPC through charged writes.
    let scope = machine.phase("rebuild");
    let out = match col.format {
        StorageFormat::Plain => {
            let mut v = machine.alloc::<i32>(col.rows);
            machine.parallel(cores, |c| {
                let r = worker_range(col.rows, t, 64, c.worker());
                let mut writer = v.stream_writer(r.start);
                for i in r {
                    c.compute(1);
                    writer.push(c, read_u32(&plain, i * 4) as i32);
                }
            });
            UnsealedColumn::Plain(v)
        }
        StorageFormat::Dict => {
            let dict_len = read_u32(&plain, 0) as usize;
            let codes_at = 4 + dict_len * 4;
            let mut dict = machine.alloc::<i32>(dict_len);
            let mut codes = machine.alloc::<u16>(col.rows);
            machine.run(|c| {
                let mut writer = dict.stream_writer(0);
                for i in 0..dict_len {
                    c.compute(1);
                    writer.push(c, read_u32(&plain, 4 + i * 4) as i32);
                }
            });
            machine.parallel(cores, |c| {
                let r = worker_range(col.rows, t, 64, c.worker());
                let mut writer = codes.stream_writer(r.start);
                for i in r {
                    c.compute(1);
                    let at = codes_at + i * 2;
                    writer.push(c, u16::from_le_bytes([plain[at], plain[at + 1]]));
                }
            });
            UnsealedColumn::Dict(DictColumn::from_parts(codes, dict))
        }
        StorageFormat::Rle => {
            let runs = read_u32(&plain, 0) as usize;
            let lengths_at = 4 + runs * 4;
            let mut values = machine.alloc::<i32>(runs);
            let mut lengths = machine.alloc::<u32>(runs);
            machine.run(|c| {
                let mut vw = values.stream_writer(0);
                let mut lw = lengths.stream_writer(0);
                for i in 0..runs {
                    c.compute(2);
                    vw.push(c, read_u32(&plain, 4 + i * 4) as i32);
                    lw.push(c, read_u32(&plain, lengths_at + i * 4));
                }
            });
            UnsealedColumn::Rle(RleColumn::from_parts(values, lengths))
        }
    };
    drop(scope);
    (out, machine.wall_cycles() - start)
}

/// The full storage-path query: unseal, filter (`value >= threshold`,
/// counting matches and summing matching values), then group-count the
/// matches by `value & (groups - 1)` — the same §4.2 histogram pattern
/// the enclave punishes. Enclave-vs-native comes from the machine's
/// [`Setting`](sgx_sim::Setting).
pub fn storage_path_query(
    machine: &mut Machine,
    cores: &[usize],
    col: &SealedColumn,
    threshold: i32,
    groups: usize,
) -> StoragePathStats {
    let mask = group_mask(groups);
    let t = cores.len().max(1);
    let start = machine.wall_cycles();
    let (unsealed, decrypt_cycles) = unseal(machine, cores, col);

    // Filter scan: per-worker host accumulators, merged after the
    // barrier (worker order is fixed, so the merge is deterministic).
    let scan_start = machine.wall_cycles();
    let mut match_slots = vec![0u64; t];
    let mut sum_slots = vec![0i64; t];
    {
        let scope = machine.phase("scan");
        match &unsealed {
            UnsealedColumn::Plain(v) => drop(machine.parallel(cores, |c| {
                let w = c.worker();
                v.read_stream(c, worker_range(col.rows, t, 64, w), |c, _, x| {
                    c.compute(1);
                    c.branch(0.5);
                    if x >= threshold {
                        match_slots[w] += 1;
                        sum_slots[w] += i64::from(x);
                    }
                });
            })),
            UnsealedColumn::Dict(d) => drop(machine.parallel(cores, |c| {
                let w = c.worker();
                d.scan(c, worker_range(col.rows, t, 64, w), &mut |c, _, x| {
                    c.branch(0.5);
                    if x >= threshold {
                        match_slots[w] += 1;
                        sum_slots[w] += i64::from(x);
                    }
                });
            })),
            // Runs are variable-length, so the RLE scan is one charged
            // pass — it touches so few lines that parallelism is moot.
            UnsealedColumn::Rle(r) => machine.run(|c| {
                r.scan_runs(c, &mut |c, x, l| {
                    c.branch(0.5);
                    if x >= threshold {
                        match_slots[0] += u64::from(l);
                        sum_slots[0] += i64::from(x) * i64::from(l);
                    }
                });
            }),
        }
        drop(scope);
    }
    let scan_cycles = machine.wall_cycles() - scan_start;
    let matches: u64 = match_slots.iter().sum();
    let sum: i64 = sum_slots.iter().sum();

    // Grouped count of matching rows: private charged counter arrays +
    // streamed reduction (the aggregate.rs plan).
    let agg_start = machine.wall_cycles();
    let mut locals: Vec<SimVec<u64>> = (0..t).map(|_| machine.alloc::<u64>(groups)).collect();
    {
        let scope = machine.phase("aggregate");
        match &unsealed {
            UnsealedColumn::Plain(v) => drop(machine.parallel(cores, |c| {
                let w = c.worker();
                locals[w].fill(c, 0..groups, 0);
                v.read_stream(c, worker_range(col.rows, t, 64, w), |c, _, x| {
                    c.compute(1);
                    c.branch(0.5);
                    if x >= threshold {
                        locals[w].rmw(c, (x as u32 & mask) as usize, |e| *e += 1);
                    }
                });
            })),
            UnsealedColumn::Dict(d) => drop(machine.parallel(cores, |c| {
                let w = c.worker();
                locals[w].fill(c, 0..groups, 0);
                d.scan(c, worker_range(col.rows, t, 64, w), &mut |c, _, x| {
                    c.branch(0.5);
                    if x >= threshold {
                        locals[w].rmw(c, (x as u32 & mask) as usize, |e| *e += 1);
                    }
                });
            })),
            UnsealedColumn::Rle(r) => machine.run(|c| {
                locals[0].fill(c, 0..groups, 0);
                r.scan_runs(c, &mut |c, x, l| {
                    c.branch(0.5);
                    if x >= threshold {
                        locals[0].rmw(c, (x as u32 & mask) as usize, |e| *e += u64::from(l));
                    }
                });
            }),
        }
        drop(scope);
    }
    let mut grouped = vec![0u64; groups];
    machine.run(|c| {
        for local in &locals {
            local.read_stream(c, 0..groups, |c, g, v| {
                c.compute(1);
                grouped[g] += v;
            });
        }
    });
    let agg_cycles = machine.wall_cycles() - agg_start;

    StoragePathStats {
        sealed_bytes: col.sealed_bytes(),
        rows: col.rows,
        decrypt_cycles,
        scan_cycles,
        agg_cycles,
        total_cycles: machine.wall_cycles() - start,
        matches,
        sum,
        groups: grouped,
    }
}

/// Uncharged oracle: decode a sealed column from its bytes alone.
pub fn reference_unseal(col: &SealedColumn) -> Vec<i32> {
    #[expect(clippy::disallowed_methods, reason = "uncharged reference oracle for verification")]
    let cipher = col.sealed.as_slice_untracked();
    let plain: Vec<u8> = cipher.iter().enumerate().map(|(i, &b)| b ^ keystream(i)).collect();
    match col.format {
        StorageFormat::Plain => {
            (0..col.rows).map(|i| read_u32(&plain, i * 4) as i32).collect()
        }
        StorageFormat::Dict => {
            let dict_len = read_u32(&plain, 0) as usize;
            let dict: Vec<i32> = (0..dict_len).map(|i| read_u32(&plain, 4 + i * 4) as i32).collect();
            let codes_at = 4 + dict_len * 4;
            (0..col.rows)
                .map(|i| {
                    let at = codes_at + i * 2;
                    dict[usize::from(u16::from_le_bytes([plain[at], plain[at + 1]]))]
                })
                .collect()
        }
        StorageFormat::Rle => {
            let runs = read_u32(&plain, 0) as usize;
            let lengths_at = 4 + runs * 4;
            let mut out = Vec::with_capacity(col.rows);
            for i in 0..runs {
                let v = read_u32(&plain, 4 + i * 4) as i32;
                let l = read_u32(&plain, lengths_at + i * 4);
                out.extend(std::iter::repeat_n(v, l as usize));
            }
            out
        }
    }
}

/// Uncharged oracle for the whole query: `(matches, sum, grouped)`.
pub fn reference_storage_query(
    values: &[i32],
    threshold: i32,
    groups: usize,
) -> (u64, i64, Vec<u64>) {
    let mask = group_mask(groups);
    let mut matches = 0u64;
    let mut sum = 0i64;
    let mut grouped = vec![0u64; groups];
    for &x in values {
        if x >= threshold {
            matches += 1;
            sum += i64::from(x);
            grouped[(x as u32 & mask) as usize] += 1;
        }
    }
    (matches, sum, grouped)
}

/// One deterministic clustered column for experiments and benches:
/// short runs of small values, so both encodings actually compress.
pub fn clustered_column(n: usize, seed: u64) -> Vec<i32> {
    let mut x = seed | 1;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let v = ((x >> 33) % 256) as i32;
        let run = 1 + ((x >> 17) % 8) as usize;
        for _ in 0..run.min(n - out.len()) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests check results against the uncharged backing storage"
)]
mod tests {
    use super::*;
    use crate::compress::{reference_dict_decode, reference_rle_decode};
    use sgx_sim::config::xeon_gold_6326;
    use sgx_sim::Setting;

    const FORMATS: [StorageFormat; 3] =
        [StorageFormat::Plain, StorageFormat::Dict, StorageFormat::Rle];

    #[test]
    fn unseal_recovers_the_exact_column_in_every_format() {
        let vals = clustered_column(30_000, 0x5EA1);
        for format in FORMATS {
            let mut m = Machine::new(xeon_gold_6326().scaled(64), Setting::SgxDataInEnclave);
            let sealed = seal_column(&mut m, &vals, format);
            assert_eq!(reference_unseal(&sealed), vals, "{}", format.label());
            let (unsealed, cycles) = unseal(&mut m, &[0, 1, 2], &sealed);
            assert!(cycles > 0.0);
            let decoded = match &unsealed {
                UnsealedColumn::Plain(v) => v.as_slice_untracked().to_vec(),
                UnsealedColumn::Dict(d) => reference_dict_decode(d),
                UnsealedColumn::Rle(r) => reference_rle_decode(r),
            };
            assert_eq!(decoded, vals, "{}", format.label());
        }
    }

    #[test]
    fn query_matches_reference_across_formats_and_threads() {
        let vals = clustered_column(20_000, 0xFACE);
        let (matches, sum, grouped) = reference_storage_query(&vals, 96, 64);
        for format in FORMATS {
            for threads in [1usize, 4] {
                let mut m = Machine::new(xeon_gold_6326().scaled(64), Setting::SgxDataInEnclave);
                let sealed = seal_column(&mut m, &vals, format);
                let s = storage_path_query(
                    &mut m,
                    &(0..threads).collect::<Vec<_>>(),
                    &sealed,
                    96,
                    64,
                );
                assert_eq!(s.matches, matches, "{} threads={threads}", format.label());
                assert_eq!(s.sum, sum, "{} threads={threads}", format.label());
                assert_eq!(s.groups, grouped, "{} threads={threads}", format.label());
                assert_eq!(s.rows, vals.len());
                assert!(s.decrypt_cycles > 0.0 && s.scan_cycles > 0.0 && s.agg_cycles > 0.0);
                assert!(s.total_cycles >= s.decrypt_cycles + s.scan_cycles + s.agg_cycles - 1.0);
            }
        }
    }

    #[test]
    fn compression_shrinks_sealed_bytes_and_the_enclave_pays_more() {
        let vals = clustered_column(100_000, 0xBEEF);
        let mut costs = Vec::new();
        for format in FORMATS {
            let run = |setting: Setting| {
                let mut m = Machine::new(xeon_gold_6326().scaled(64), setting);
                let sealed = seal_column(&mut m, &vals, format);
                m.reset_wall();
                let s = storage_path_query(&mut m, &[0, 1], &sealed, 96, 64);
                (s.sealed_bytes, s.total_cycles)
            };
            let (bytes, native) = run(Setting::PlainCpu);
            let (_, sgx) = run(Setting::SgxDataInEnclave);
            assert!(sgx > native, "{}: enclave path must cost more", format.label());
            costs.push((format, bytes, sgx));
        }
        let plain_bytes = costs[0].1;
        assert!(costs[1].1 < plain_bytes, "dict seals fewer bytes");
        assert!(costs[2].1 < costs[1].1, "rle seals fewer bytes than dict");
        assert!(costs[2].2 < costs[0].2, "rle storage path beats plain in the enclave");
    }
}
