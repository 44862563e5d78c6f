//! Materializing query operators (§6).
//!
//! "In order to simplify the analysis of operator runtimes, there is no
//! pipelining in our implementation; i.e., each operator fully
//! materializes its output. This scheme is also used in existing DBMSs
//! such as MonetDB." Selections scan the predicate columns vectorized and
//! materialize `Row{key, payload}` tables; join results are reshaped into
//! the next join's input with a charged reshape pass.

use sgx_joins::{JoinTuple, Row};
use sgx_sim::{worker_range, Core, Machine, SimVec};

/// What the selection writes into the payload column of its output rows.
pub enum Payload<'a> {
    /// The source row index (late materialization handle).
    RowIndex,
    /// The value of another column.
    Col(&'a SimVec<i32>),
}

/// Vectorized filter + materialize: scans `scanned` columns (charged),
/// evaluates `pred` per row, and writes `Row { key: key_col[i], payload }`
/// for every match. Returns the output table and the operator's wall
/// cycles.
pub fn select_rows(
    machine: &mut Machine,
    cores: &[usize],
    scanned: &[&SimVec<i32>],
    key_col: &SimVec<i32>,
    payload: Payload<'_>,
    pred: &dyn Fn(usize) -> bool,
) -> (SimVec<Row>, f64) {
    let n = key_col.len();
    let t = cores.len();
    let start_wall = machine.wall_cycles();

    // Pass 1: scan predicate columns, count matches per worker.
    let mut counts = vec![0usize; t];
    machine.parallel(cores, |c| {
        let w = c.worker();
        let range = worker_range(n, t, 64, w);
        for col in scanned {
            // One vector compare per 64-byte line of each column.
            col.read_stream_vec(c, range.clone(), |c, _, _| c.vec_compute(1));
        }
        counts[w] = range.filter(|&i| pred(i)).count();
    });
    let total: usize = counts.iter().sum();
    let mut offsets = vec![0usize; t];
    let mut acc = 0usize;
    for w in 0..t {
        offsets[w] = acc;
        acc += counts[w];
    }

    // Pass 2: re-scan, gather key (and payload column), compress-store the
    // matching rows.
    let mut out = machine.alloc::<Row>(total);
    machine.parallel(cores, |c| {
        let w = c.worker();
        let range = worker_range(n, t, 64, w);
        let mut writer = out.stream_writer(offsets[w]);
        if let Payload::Col(pcol) = &payload {
            pcol.read_stream_vec(c, range.clone(), |c, _, _| c.vec_compute(1));
        }
        key_col.read_stream_vec(c, range, |c, base, keys| {
            c.vec_compute(2);
            for (k, &key) in keys.iter().enumerate() {
                let i = base + k;
                if pred(i) {
                    let payload = match &payload {
                        Payload::RowIndex => i as u32,
                        Payload::Col(pcol) => pcol.peek(i) as u32,
                    };
                    writer.push(c, Row { key: key as u32, payload });
                }
            }
        });
    });
    (out, machine.wall_cycles() - start_wall)
}

/// Stream every valid tuple of a materialized join result (its dense
/// `runs`) through `f`, distributing runs across workers.
pub fn for_each_join_tuple(
    machine: &mut Machine,
    cores: &[usize],
    jt: &SimVec<JoinTuple>,
    runs: &[std::ops::Range<usize>],
    mut f: impl FnMut(&mut Core<'_>, JoinTuple),
) -> f64 {
    let t = cores.len();
    let start_wall = machine.wall_cycles();
    machine.parallel(cores, |c| {
        let w = c.worker();
        for run in runs.iter().skip(w).step_by(t) {
            jt.read_stream(c, run.clone(), |c, _, tup| f(c, tup));
        }
    });
    machine.wall_cycles() - start_wall
}

/// Reshape a materialized join result into the next join's input table:
/// one `Row` per join tuple, via `f`. Returns the table and wall cycles.
pub fn retuple(
    machine: &mut Machine,
    cores: &[usize],
    jt: &SimVec<JoinTuple>,
    runs: &[std::ops::Range<usize>],
    f: &dyn Fn(JoinTuple) -> Row,
) -> (SimVec<Row>, f64) {
    let t = cores.len();
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out = machine.alloc::<Row>(total);
    // Output offset of each run (runs are processed round-robin but each
    // run's output slot range is fixed by the prefix sum).
    let mut run_offsets = Vec::with_capacity(runs.len());
    let mut acc = 0usize;
    for r in runs {
        run_offsets.push(acc);
        acc += r.len();
    }
    let start_wall = machine.wall_cycles();
    machine.parallel(cores, |c| {
        let w = c.worker();
        for (ri, run) in runs.iter().enumerate().skip(w).step_by(t) {
            let mut writer = out.stream_writer(run_offsets[ri]);
            jt.read_stream(c, run.clone(), |c, _, tup| {
                c.compute(2);
                writer.push(c, f(tup));
            });
        }
    });
    let cycles = machine.wall_cycles() - start_wall;
    (out, cycles)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests check results against the uncharged backing storage"
)]
mod tests {
    use super::*;
    use crate::gen::{date, generate};
    use sgx_sim::config::scaled_profile;
    use sgx_sim::Setting;

    fn machine() -> Machine {
        Machine::new(scaled_profile(), Setting::PlainCpu)
    }

    #[test]
    fn select_rows_filters_correctly() {
        let mut m = machine();
        let mut key = m.alloc::<i32>(10_000);
        let mut val = m.alloc::<i32>(10_000);
        for i in 0..10_000 {
            key.poke(i, i as i32 + 1);
            val.poke(i, (i % 10) as i32);
        }
        let (out, cycles) = select_rows(
            &mut m,
            &[0, 1, 2, 3],
            &[&val],
            &key,
            Payload::RowIndex,
            &|i| val.peek(i) < 3,
        );
        assert_eq!(out.len(), 3000);
        assert!(cycles > 0.0);
        for k in 0..out.len() {
            let row = out.peek(k);
            assert!(val.peek(row.payload as usize) < 3);
            assert_eq!(row.key as usize, row.payload as usize + 1);
        }
    }

    #[test]
    fn select_rows_with_column_payload() {
        let mut m = machine();
        let mut key = m.alloc::<i32>(1000);
        let mut pay = m.alloc::<i32>(1000);
        for i in 0..1000 {
            key.poke(i, i as i32);
            pay.poke(i, i as i32 * 2);
        }
        let (out, _) =
            select_rows(&mut m, &[0, 1], &[&key], &key, Payload::Col(&pay), &|i| i % 2 == 0);
        assert_eq!(out.len(), 500);
        assert!(out.as_slice_untracked().iter().all(|r| r.payload == r.key * 2));
    }

    #[test]
    fn select_all_and_none() {
        let mut m = machine();
        let mut key = m.alloc::<i32>(100);
        for i in 0..100 {
            key.poke(i, i as i32);
        }
        let (all, _) = select_rows(&mut m, &[0], &[&key], &key, Payload::RowIndex, &|_| true);
        assert_eq!(all.len(), 100);
        let (none, _) = select_rows(&mut m, &[0], &[&key], &key, Payload::RowIndex, &|_| false);
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn lineitem_selection_runs_at_parity_in_the_enclave() {
        // §6: "scan & selection performance is very similar across
        // settings". One ECALL plus a three-column lineitem selection
        // (TPC-H Q6's predicate) stays within 12% of native; SF 0.08 is
        // large enough that the fixed ECALL cost does not dominate.
        let run = |setting: Setting| {
            let mut m = Machine::new(scaled_profile(), setting);
            let db = generate(&mut m, 0.08, 42);
            let l = &db.lineitem;
            let (lo, hi) = (date(1994, 1, 1), date(1995, 1, 1));
            let pred = |i: usize| {
                let d = l.shipdate.peek(i);
                d >= lo
                    && d < hi
                    && (5..=7).contains(&l.discount.peek(i))
                    && l.quantity.peek(i) < 24
            };
            m.reset_wall();
            let start = m.wall_cycles();
            m.ecall();
            let (rows, _) = select_rows(
                &mut m,
                &[0, 1, 2, 3, 4, 5, 6, 7],
                &[&l.shipdate, &l.discount, &l.quantity],
                &l.orderkey,
                Payload::RowIndex,
                &pred,
            );
            let cycles = m.wall_cycles() - start;
            assert!(!rows.is_empty());
            assert_eq!(rows.len(), (0..db.lineitem_len()).filter(|&i| pred(i)).count());
            cycles
        };
        let native = run(Setting::PlainCpu);
        let sgx = run(Setting::SgxDataInEnclave);
        let overhead = sgx / native - 1.0;
        assert!(
            overhead < 0.12,
            "a selection should run near parity, got {:.1}%",
            overhead * 100.0
        );
    }

    #[test]
    fn retuple_reshapes_runs() {
        let mut m = machine();
        let mut jt = m.alloc::<JoinTuple>(100);
        for i in 0..100 {
            jt.poke(i, JoinTuple { r_payload: i as u32, s_payload: 1000 + i as u32 });
        }
        // Two valid runs with a gap between.
        let runs = vec![0..30, 50..100];
        let (rows, cycles) = retuple(&mut m, &[0, 1, 2], &jt, &runs, &|t| Row {
            key: t.s_payload,
            payload: t.r_payload,
        });
        assert_eq!(rows.len(), 80);
        assert!(cycles > 0.0);
        // Order within runs is preserved; run 0 comes first.
        assert_eq!(rows.peek(0).key, 1000);
        assert_eq!(rows.peek(30).key, 1050);
        assert!(rows.as_slice_untracked().iter().all(|r| r.key == r.payload + 1000));
    }

    #[test]
    fn for_each_join_tuple_visits_all_runs() {
        let mut m = machine();
        let mut jt = m.alloc::<JoinTuple>(64);
        for i in 0..64 {
            jt.poke(i, JoinTuple { r_payload: i as u32, s_payload: 0 });
        }
        let runs = vec![0..10, 20..25, 60..64];
        let mut seen = Vec::new();
        for_each_join_tuple(&mut m, &[0, 1], &jt, &runs, |_, t| seen.push(t.r_payload));
        seen.sort_unstable();
        let expected: Vec<u32> =
            (0..10).chain(20..25).chain(60..64).collect();
        assert_eq!(seen, expected);
    }
}
