//! The four TPC-H queries of §6 (Fig 17), simplified as the paper
//! describes: scans + RHO joins, integer-encoded dates/categories, full
//! materialization between operators. Q12/Q19 keep the paper's
//! `count(*)` materialization; Q3 and Q10 go further (ROADMAP item 3)
//! and run the plan tail the paper elides — grouped revenue aggregation
//! and an ordered (top-k) result through the external merge sort.
//! [`cost_estimate`] prices each plan from table cardinalities alone, for
//! the service model's admission control.

use crate::aggregate::group_sum_tuples;
use crate::gen::{
    date, TpchDb, FLAG_R, INSTRUCT_DELIVER_IN_PERSON, MODE_AIR, MODE_AIR_REG, MODE_MAIL,
    MODE_SHIP, SEG_BUILDING,
};
use crate::ops::{for_each_join_tuple, retuple, select_rows, Payload};
use crate::sort::{external_merge_sort, sort_input_from_join, SortRow};
use sgx_joins::rho::rho_join;
use sgx_joins::{JoinConfig, JoinStats, JoinTuple, Row};
use sgx_sim::{Machine, SimVec};

/// Rows Q3's ORDER BY … LIMIT keeps (the TPC-H spec's top 10).
pub const Q3_TOP_K: usize = 10;

/// Query identifiers of the paper's workload. Ordered/hashable so
/// service layers can key per-class tables (latency histograms, cost
/// tables) on the query class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Query {
    /// Shipping priority (customer ⋈ orders ⋈ lineitem).
    Q3,
    /// Returned items (customer ⋈ orders ⋈ lineitem ⋈ nation).
    Q10,
    /// Shipping modes (orders ⋈ lineitem).
    Q12,
    /// Discounted revenue (part ⋈ lineitem, disjunctive predicate).
    Q19,
}

impl Query {
    /// All four queries in the paper's order.
    pub fn all() -> [Query; 4] {
        [Query::Q3, Query::Q10, Query::Q12, Query::Q19]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Query::Q3 => "Q3",
            Query::Q10 => "Q10",
            Query::Q12 => "Q12",
            Query::Q19 => "Q19",
        }
    }

    /// Number of operator steps in the plan: the length of
    /// [`QueryStats::ops`] that [`run_query`] returns for this query.
    pub fn steps_total(self) -> usize {
        match self {
            Query::Q3 => 9,
            Query::Q10 => 11,
            Query::Q12 => 3,
            Query::Q19 => 4,
        }
    }
}

/// Query execution parameters.
#[derive(Debug, Clone)]
pub struct QueryConfig {
    /// Hardware cores (the paper uses all 16 cores of one socket).
    pub cores: Vec<usize>,
    /// Apply the §4.2 unroll-and-reorder optimization inside the joins.
    pub optimized: bool,
}

impl QueryConfig {
    /// `threads` cores on socket 0.
    pub fn new(threads: usize) -> QueryConfig {
        QueryConfig { cores: (0..threads).collect(), optimized: false }
    }

    /// Builder-style: enable the join optimization.
    pub fn with_optimization(mut self, on: bool) -> Self {
        self.optimized = on;
        self
    }
}

/// Result of one query execution.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Join-result cardinality (the paper's `count(*)` figure, still
    /// reported by every plan).
    pub count: u64,
    /// The real grouped + ordered output, where the plan produces one:
    /// Q3 = top-[`Q3_TOP_K`] `(orderkey, revenue)` by revenue desc;
    /// Q10 = all `(nationkey, revenue)` by revenue desc. Empty for the
    /// count-only plans (Q12, Q19, extensions).
    pub grouped: Vec<(u32, u64)>,
    /// Total simulated wall cycles.
    pub wall_cycles: f64,
    /// Per-operator wall cycles in plan order.
    pub ops: Vec<(&'static str, f64)>,
}

/// Run one query against the database.
pub fn run_query(machine: &mut Machine, db: &TpchDb, q: Query, cfg: &QueryConfig) -> QueryStats {
    match q {
        Query::Q3 => q3(machine, db, cfg),
        Query::Q10 => q10(machine, db, cfg),
        Query::Q12 => q12(machine, db, cfg),
        Query::Q19 => q19(machine, db, cfg),
    }
}

/// RHO join sized for the build side, materializing unless `count_only`.
fn join(
    machine: &mut Machine,
    build: &SimVec<Row>,
    probe: &SimVec<Row>,
    cfg: &QueryConfig,
    count_only: bool,
) -> JoinStats {
    let bits = JoinConfig::auto_radix_bits(build.size_bytes().max(64), machine.cfg().l2.size);
    let jcfg = JoinConfig::new(cfg.cores.len())
        .on_cores(cfg.cores.clone())
        .with_radix_bits(bits)
        .with_optimization(cfg.optimized)
        .with_materialization(!count_only);
    rho_join(machine, build, probe, &jcfg)
}

/// The materialized tuple table of a join executed with
/// `count_only = false`. One checked accessor shared by every plan
/// instead of a copy-pasted `expect` per site.
fn materialized_output(j: &JoinStats) -> &SimVec<JoinTuple> {
    // sgx-lint: allow(panic-in-library) join() always materializes when asked; a None output is a simulator bug, not an input condition
    j.output.as_ref().expect("materializing join returns output")
}

/// Per-lineitem revenue term, gathered by row id (charged random reads
/// into the lineitem columns): `extendedprice * (100 - discount)` in
/// fixed-point percent units.
fn gather_revenue(c: &mut sgx_sim::Core, db: &TpchDb, line_idx: usize) -> u64 {
    let price = db.lineitem.extendedprice.get(c, line_idx);
    let disc = db.lineitem.discount.get(c, line_idx);
    c.compute(2);
    price as u64 * (100 - disc) as u64
}

/// Q3 step: order the co⋈l join output by orderkey through the external
/// merge sort (`SortRow { key: orderkey, tag: lineitem row id }`), so
/// the revenue aggregation can run as a streaming per-group fold.
fn q3_sort_step(
    machine: &mut Machine,
    cfg: &QueryConfig,
    j2: &JoinStats,
) -> (SimVec<SortRow>, f64) {
    let start = machine.wall_cycles();
    let scope = machine.phase("sort");
    let jt2 = materialized_output(j2);
    let (input, _) = sort_input_from_join(machine, &cfg.cores, jt2, &j2.output_runs, &|t| {
        SortRow { key: u64::from(t.r_payload), tag: t.s_payload }
    });
    let (sorted, _) = external_merge_sort(machine, &cfg.cores, &input, input.len());
    drop(scope);
    (sorted, machine.wall_cycles() - start)
}

/// Q3 step: fold the orderkey-sorted join output into per-order revenue
/// groups. Emits `SortRow { key: !revenue, tag: orderkey }` (bitwise
/// complement, so an ascending sort yields revenue-descending order with
/// orderkey-ascending ties) and returns `(groups, group_count, cycles)`.
fn q3_agg_step(
    machine: &mut Machine,
    db: &TpchDb,
    sorted: &SimVec<SortRow>,
) -> (SimVec<SortRow>, usize, f64) {
    let start = machine.wall_cycles();
    let scope = machine.phase("agg revenue");
    let mut groups = machine.alloc::<SortRow>(sorted.len());
    let mut glen = 0usize;
    machine.run(|c| {
        let mut writer = groups.stream_writer(0);
        let mut cur: Option<u64> = None;
        let mut acc = 0u64;
        sorted.read_stream(c, 0..sorted.len(), |c, _, row| {
            let rev = gather_revenue(c, db, row.tag as usize);
            c.compute(1);
            match cur {
                Some(k) if k == row.key => acc += rev,
                Some(k) => {
                    writer.push(c, SortRow { key: !acc, tag: k as u32 });
                    glen += 1;
                    cur = Some(row.key);
                    acc = rev;
                }
                None => {
                    cur = Some(row.key);
                    acc = rev;
                }
            }
        });
        if let Some(k) = cur {
            writer.push(c, SortRow { key: !acc, tag: k as u32 });
            glen += 1;
        }
    });
    drop(scope);
    (groups, glen, machine.wall_cycles() - start)
}

/// Q3 step: order the revenue groups (external sort again — group count
/// is data-dependent) and stream out the top [`Q3_TOP_K`].
fn q3_topk_step(
    machine: &mut Machine,
    cfg: &QueryConfig,
    groups: &SimVec<SortRow>,
    glen: usize,
) -> (Vec<(u32, u64)>, f64) {
    let start = machine.wall_cycles();
    let scope = machine.phase("top-k");
    let (ordered, _) = external_merge_sort(machine, &cfg.cores, groups, glen);
    let mut top = Vec::with_capacity(Q3_TOP_K.min(glen));
    machine.run(|c| {
        ordered.read_stream(c, 0..Q3_TOP_K.min(glen), |c, _, row| {
            c.compute(1);
            top.push((row.tag, !row.key));
        });
    });
    drop(scope);
    (top, machine.wall_cycles() - start)
}

/// Q10 step: grouped revenue over the ⋈nation join output — group id is
/// the nation row (== nationkey), revenue gathered per lineitem row id.
/// The radix-histogram pattern of §4.2, so `cfg.optimized` batches the
/// counter updates exactly like [`crate::aggregate::group_count`].
fn q10_agg_step(
    machine: &mut Machine,
    db: &TpchDb,
    cfg: &QueryConfig,
    j3: &JoinStats,
) -> (Vec<u64>, f64) {
    let start = machine.wall_cycles();
    let scope = machine.phase("agg revenue");
    let jt3 = materialized_output(j3);
    let agg = group_sum_tuples(
        machine,
        &cfg.cores,
        jt3,
        &j3.output_runs,
        32,
        cfg.optimized,
        &|c, tup| (tup.r_payload as usize, gather_revenue(c, db, tup.s_payload as usize)),
    );
    drop(scope);
    (agg.sums, machine.wall_cycles() - start)
}

/// Q10 step: order the (at most 32) per-nation sums by revenue
/// descending, dropping empty groups.
fn q10_order_step(
    machine: &mut Machine,
    cfg: &QueryConfig,
    sums: &[u64],
) -> (Vec<(u32, u64)>, f64) {
    let start = machine.wall_cycles();
    let scope = machine.phase("order groups");
    let mut groups = machine.alloc::<SortRow>(sums.len());
    let mut glen = 0usize;
    machine.run(|c| {
        let mut writer = groups.stream_writer(0);
        for (g, &s) in sums.iter().enumerate() {
            c.compute(1);
            if s > 0 {
                writer.push(c, SortRow { key: !s, tag: g as u32 });
                glen += 1;
            }
        }
    });
    let (ordered, _) = external_merge_sort(machine, &cfg.cores, &groups, glen);
    let mut out = Vec::with_capacity(glen);
    machine.run(|c| {
        ordered.read_stream(c, 0..glen, |c, _, row| {
            c.compute(1);
            out.push((row.tag, !row.key));
        });
    });
    drop(scope);
    (out, machine.wall_cycles() - start)
}

/// TPC-H Q3 (simplified): the top-[`Q3_TOP_K`] orders by revenue over
/// customer(BUILDING) ⋈ orders(o_orderdate < 1995-03-15)
/// ⋈ lineitem(l_shipdate > 1995-03-15), in [`QueryStats::grouped`];
/// `count` is the join cardinality.
pub fn q3(machine: &mut Machine, db: &TpchDb, cfg: &QueryConfig) -> QueryStats {
    let cores = &cfg.cores;
    let cutoff = date(1995, 3, 15);
    let start = machine.wall_cycles();
    machine.ecall();
    let mut ops = Vec::new();

    // Each plan operator runs under a profile scope named like its `ops`
    // entry, so `--profile` yields a per-operator cycle breakdown.
    let scope = machine.phase("sel customer");
    let (cust, t) = select_rows(
        machine,
        cores,
        &[&db.customer.mktsegment],
        &db.customer.custkey,
        Payload::RowIndex,
        &|i| db.customer.mktsegment.peek(i) == SEG_BUILDING,
    );
    drop(scope);
    ops.push(("sel customer", t));

    let scope = machine.phase("sel orders");
    let (orders, t) = select_rows(
        machine,
        cores,
        &[&db.orders.orderdate],
        &db.orders.custkey,
        Payload::Col(&db.orders.orderkey),
        &|i| db.orders.orderdate.peek(i) < cutoff,
    );
    drop(scope);
    ops.push(("sel orders", t));

    let scope = machine.phase("join c⋈o");
    let j1 = join(machine, &cust, &orders, cfg, false);
    drop(scope);
    ops.push(("join c⋈o", j1.wall_cycles));
    let jt1 = materialized_output(&j1);
    let scope = machine.phase("reshape");
    let (co, t) = retuple(machine, cores, jt1, &j1.output_runs, &|t| Row {
        key: t.s_payload,
        payload: t.s_payload,
    });
    drop(scope);
    ops.push(("reshape", t));

    let scope = machine.phase("sel lineitem");
    let (line, t) = select_rows(
        machine,
        cores,
        &[&db.lineitem.shipdate],
        &db.lineitem.orderkey,
        Payload::RowIndex,
        &|i| db.lineitem.shipdate.peek(i) > cutoff,
    );
    drop(scope);
    ops.push(("sel lineitem", t));

    let scope = machine.phase("join co⋈l");
    let j2 = join(machine, &co, &line, cfg, false);
    drop(scope);
    ops.push(("join co⋈l", j2.wall_cycles));

    let (sorted, t) = q3_sort_step(machine, cfg, &j2);
    ops.push(("sort", t));
    let (groups, glen, t) = q3_agg_step(machine, db, &sorted);
    ops.push(("agg revenue", t));
    let (grouped, t) = q3_topk_step(machine, cfg, &groups, glen);
    ops.push(("top-k", t));

    QueryStats { count: j2.matches, grouped, wall_cycles: machine.wall_cycles() - start, ops }
}

/// TPC-H Q10 (simplified): revenue per nation, descending, over
/// customer ⋈ orders(one quarter) ⋈ lineitem(R) ⋈ nation, in
/// [`QueryStats::grouped`]; `count` is the join cardinality.
pub fn q10(machine: &mut Machine, db: &TpchDb, cfg: &QueryConfig) -> QueryStats {
    let cores = &cfg.cores;
    let (lo, hi) = (date(1993, 10, 1), date(1994, 1, 1));
    let start = machine.wall_cycles();
    machine.ecall();
    let mut ops = Vec::new();

    let scope = machine.phase("scan customer");
    let (cust, t) = select_rows(
        machine,
        cores,
        &[&db.customer.custkey],
        &db.customer.custkey,
        Payload::Col(&db.customer.nationkey),
        &|_| true,
    );
    drop(scope);
    ops.push(("scan customer", t));

    let scope = machine.phase("sel orders");
    let (orders, t) = select_rows(
        machine,
        cores,
        &[&db.orders.orderdate],
        &db.orders.custkey,
        Payload::Col(&db.orders.orderkey),
        &|i| {
            let d = db.orders.orderdate.peek(i);
            d >= lo && d < hi
        },
    );
    drop(scope);
    ops.push(("sel orders", t));

    let scope = machine.phase("join c⋈o");
    let j1 = join(machine, &cust, &orders, cfg, false);
    drop(scope);
    ops.push(("join c⋈o", j1.wall_cycles));
    let jt1 = materialized_output(&j1);
    // key: orderkey, payload: the customer's nationkey.
    let scope = machine.phase("reshape");
    let (co, t) = retuple(machine, cores, jt1, &j1.output_runs, &|t| Row {
        key: t.s_payload,
        payload: t.r_payload,
    });
    drop(scope);
    ops.push(("reshape", t));

    let scope = machine.phase("sel lineitem");
    let (line, t) = select_rows(
        machine,
        cores,
        &[&db.lineitem.returnflag],
        &db.lineitem.orderkey,
        Payload::RowIndex,
        &|i| db.lineitem.returnflag.peek(i) == FLAG_R,
    );
    drop(scope);
    ops.push(("sel lineitem", t));

    let scope = machine.phase("join co⋈l");
    let j2 = join(machine, &co, &line, cfg, false);
    drop(scope);
    ops.push(("join co⋈l", j2.wall_cycles));
    let jt2 = materialized_output(&j2);
    // key: nationkey carried from the customer side.
    let scope = machine.phase("reshape");
    let (col, t) = retuple(machine, cores, jt2, &j2.output_runs, &|t| Row {
        key: t.r_payload,
        payload: t.s_payload,
    });
    drop(scope);
    ops.push(("reshape", t));

    let scope = machine.phase("scan nation");
    let (nation, t) = select_rows(
        machine,
        cores,
        &[&db.nation.nationkey],
        &db.nation.nationkey,
        Payload::RowIndex,
        &|_| true,
    );
    drop(scope);
    ops.push(("scan nation", t));

    let scope = machine.phase("join ⋈n");
    let j3 = join(machine, &nation, &col, cfg, false);
    drop(scope);
    ops.push(("join ⋈n", j3.wall_cycles));

    let (sums, t) = q10_agg_step(machine, db, cfg, &j3);
    ops.push(("agg revenue", t));
    let (grouped, t) = q10_order_step(machine, cfg, &sums);
    ops.push(("order groups", t));

    QueryStats { count: j3.matches, grouped, wall_cycles: machine.wall_cycles() - start, ops }
}

/// Q12 lineitem predicate (shared with the reference count).
pub fn q12_line_pred(db: &TpchDb, i: usize) -> bool {
    let mode = db.lineitem.shipmode.peek(i);
    (mode == MODE_MAIL || mode == MODE_SHIP)
        && db.lineitem.commitdate.peek(i) < db.lineitem.receiptdate.peek(i)
        && db.lineitem.shipdate.peek(i) < db.lineitem.commitdate.peek(i)
        && db.lineitem.receiptdate.peek(i) >= date(1994, 1, 1)
        && db.lineitem.receiptdate.peek(i) < date(1995, 1, 1)
}

/// TPC-H Q12 (simplified): `count(*)` of orders ⋈ lineitem(MAIL/SHIP,
/// consistent dates, received in 1994).
pub fn q12(machine: &mut Machine, db: &TpchDb, cfg: &QueryConfig) -> QueryStats {
    let cores = &cfg.cores;
    let start = machine.wall_cycles();
    machine.ecall();
    let mut ops = Vec::new();

    let scope = machine.phase("scan orders");
    let (orders, t) = select_rows(
        machine,
        cores,
        &[&db.orders.orderkey],
        &db.orders.orderkey,
        Payload::RowIndex,
        &|_| true,
    );
    drop(scope);
    ops.push(("scan orders", t));

    let scope = machine.phase("sel lineitem");
    let (line, t) = select_rows(
        machine,
        cores,
        &[
            &db.lineitem.shipmode,
            &db.lineitem.commitdate,
            &db.lineitem.receiptdate,
            &db.lineitem.shipdate,
        ],
        &db.lineitem.orderkey,
        Payload::RowIndex,
        &|i| q12_line_pred(db, i),
    );
    drop(scope);
    ops.push(("sel lineitem", t));

    let scope = machine.phase("join o⋈l");
    let j = join(machine, &orders, &line, cfg, true);
    drop(scope);
    ops.push(("join o⋈l", j.wall_cycles));

    QueryStats {
        count: j.matches,
        grouped: Vec::new(),
        wall_cycles: machine.wall_cycles() - start,
        ops,
    }
}

/// Q19's three disjuncts: `(brand, container class, quantity range,
/// max size)`. Containers are encoded in decades: SM = 0..5, MED = 10..15,
/// LG = 20..25.
const Q19_DISJUNCTS: [(i32, i32, (i32, i32), i32); 3] =
    [(1, 0, (1, 11), 5), (12, 10, (10, 20), 10), (13, 20, (20, 30), 15)];

/// Part-side pre-filter for Q19 (union over disjuncts).
pub fn q19_part_pred(db: &TpchDb, i: usize) -> bool {
    let brand = db.part.brand.peek(i);
    let cont = db.part.container.peek(i);
    let size = db.part.size.peek(i);
    Q19_DISJUNCTS.iter().any(|&(b, c0, _, smax)| {
        brand == b && (c0..c0 + 5).contains(&cont) && (1..=smax).contains(&size)
    })
}

/// Lineitem-side pre-filter for Q19.
pub fn q19_line_pred(db: &TpchDb, i: usize) -> bool {
    let mode = db.lineitem.shipmode.peek(i);
    (mode == MODE_AIR || mode == MODE_AIR_REG)
        && db.lineitem.shipinstruct.peek(i) == INSTRUCT_DELIVER_IN_PERSON
        && (1..=30).contains(&db.lineitem.quantity.peek(i))
}

/// The full joint predicate evaluated after the join (both sides' columns).
pub fn q19_joint_pred(db: &TpchDb, part_idx: usize, line_idx: usize) -> bool {
    let brand = db.part.brand.peek(part_idx);
    let cont = db.part.container.peek(part_idx);
    let size = db.part.size.peek(part_idx);
    let qty = db.lineitem.quantity.peek(line_idx);
    Q19_DISJUNCTS.iter().any(|&(b, c0, (qlo, qhi), smax)| {
        brand == b
            && (c0..c0 + 5).contains(&cont)
            && (1..=smax).contains(&size)
            && (qlo..=qhi).contains(&qty)
    })
}

/// TPC-H Q19 (simplified): `count(*)` of part ⋈ lineitem under the
/// disjunctive brand/container/quantity predicate, evaluated with
/// pre-filters on both inputs and the exact joint predicate on the join
/// result (late materialization: the post-join pass fetches the original
/// columns by row id).
pub fn q19(machine: &mut Machine, db: &TpchDb, cfg: &QueryConfig) -> QueryStats {
    let cores = &cfg.cores;
    let start = machine.wall_cycles();
    machine.ecall();
    let mut ops = Vec::new();

    let scope = machine.phase("sel part");
    let (part, t) = select_rows(
        machine,
        cores,
        &[&db.part.brand, &db.part.container, &db.part.size],
        &db.part.partkey,
        Payload::RowIndex,
        &|i| q19_part_pred(db, i),
    );
    drop(scope);
    ops.push(("sel part", t));

    let scope = machine.phase("sel lineitem");
    let (line, t) = select_rows(
        machine,
        cores,
        &[&db.lineitem.shipmode, &db.lineitem.shipinstruct, &db.lineitem.quantity],
        &db.lineitem.partkey,
        Payload::RowIndex,
        &|i| q19_line_pred(db, i),
    );
    drop(scope);
    ops.push(("sel lineitem", t));

    let scope = machine.phase("join p⋈l");
    let j = join(machine, &part, &line, cfg, false);
    drop(scope);
    ops.push(("join p⋈l", j.wall_cycles));
    let jt = materialized_output(&j);

    // Post-join disjunct evaluation: gather the part attributes (random
    // reads by row id) and the lineitem quantity for every surviving pair.
    let mut count = 0u64;
    let scope = machine.phase("post filter");
    let t = for_each_join_tuple(machine, cores, jt, &j.output_runs, |c, tup| {
        let (pi, li) = (tup.r_payload as usize, tup.s_payload as usize);
        let _ = db.part.brand.get(c, pi);
        let _ = db.lineitem.quantity.get(c, li);
        c.compute(8);
        if q19_joint_pred(db, pi, li) {
            count += 1;
        }
    });
    drop(scope);
    ops.push(("post filter", t));

    QueryStats { count, grouped: Vec::new(), wall_cycles: machine.wall_cycles() - start, ops }
}

/// Deterministic admission-control cost estimate for one plan, in
/// abstract work units that are monotone in the plan's simulated cycles.
///
/// Derived from table cardinalities only — never executes anything, so
/// admission control can price a queue's backlog in O(1) per entry. Scan
/// operators cost one unit per input row; join operators cost
/// `per_join_row` units per row fed into a radix partition + build/probe
/// (the §4.2 optimized variant streams partitions more cheaply, which is
/// what makes it the degraded-mode plan of choice); the Q3/Q10 ordered
/// tails cost `per_sorted_row` units per join-output row driven through
/// the external sort + revenue aggregation.
pub fn cost_estimate(db: &TpchDb, q: Query, optimized: bool) -> f64 {
    let li = db.lineitem_len() as f64;
    let ord = db.orders.orderkey.len() as f64;
    let cust = db.customer.custkey.len() as f64;
    let part = db.part.partkey.len() as f64;
    let nation = db.nation.nationkey.len() as f64;
    // (rows scanned, rows through joins, rows through sort+aggregate);
    // selectivities are the paper's fixed predicates, hard-coded as
    // coarse fractions.
    let (scanned, joined, sorted) = match q {
        Query::Q3 => (cust + ord + li, 0.2 * cust + 0.5 * ord + 0.55 * li, 0.3 * li),
        Query::Q10 => (cust + ord + li + nation, cust + 0.05 * ord + 0.3 * li + nation, 0.25 * li),
        Query::Q12 => (ord + li, ord + 0.01 * li, 0.0),
        Query::Q19 => (part + li, 0.05 * part + 0.02 * li, 0.0),
    };
    let per_join_row = if optimized { 3.0 } else { 4.0 };
    let per_sorted_row = 3.0;
    scanned + joined * per_join_row + sorted * per_sorted_row
}

/// Largest estimate-vs-actual spread admission control tolerates: the
/// max/min ratio of `wall_cycles / cost_estimate` across every plan
/// variant must stay below this bound, because sgx-serve's calibration
/// derives ONE cycles-per-unit factor for the whole query table — a
/// plan whose ratio drifts outside the band is silently mis-priced.
/// A test in this module keeps the estimate honest as plans grow new
/// steps.
pub const ESTIMATE_SPREAD_TOLERANCE: f64 = 3.0;

/// TPC-H Q1-style pricing summary (reproduction extension): scan LINEITEM
/// with the shipdate predicate and aggregate `count(*)` grouped by
/// `(returnflag, shipmode)` — the aggregation operator the paper's
/// simplification elides. Returns the per-group counts alongside the
/// timing; the group id is `returnflag * 8 + shipmode` (32 radix groups).
pub fn q1_pricing_summary(
    machine: &mut Machine,
    db: &TpchDb,
    cfg: &QueryConfig,
) -> (QueryStats, Vec<u64>) {
    let cores = &cfg.cores;
    let cutoff = date(1998, 9, 2);
    let start = machine.wall_cycles();
    machine.ecall();
    let mut ops = Vec::new();

    // Materialize group ids for qualifying rows: key = group id.
    let n = db.lineitem_len();
    let mut group_col = machine.alloc::<i32>(n);
    for i in 0..n {
        group_col.poke(i, db.lineitem.returnflag.peek(i) * 8 + db.lineitem.shipmode.peek(i));
    }
    let scope = machine.phase("sel lineitem");
    let (rows, t) = select_rows(
        machine,
        cores,
        &[&db.lineitem.shipdate],
        &group_col,
        Payload::RowIndex,
        &|i| db.lineitem.shipdate.peek(i) <= cutoff,
    );
    drop(scope);
    ops.push(("sel lineitem", t));

    let scope = machine.phase("group count");
    let agg = crate::aggregate::group_count(machine, cores, &rows, 32, cfg.optimized);
    drop(scope);
    ops.push(("group count", agg.cycles));

    let total: u64 = agg.counts.iter().sum();
    (
        QueryStats {
            count: total,
            grouped: Vec::new(),
            wall_cycles: machine.wall_cycles() - start,
            ops,
        },
        agg.counts,
    )
}

/// TPC-H Q6-style forecasting revenue query (reproduction extension): a
/// pure scan — no join — counting lineitems shipped in 1994 with a
/// discount of 5–7 % and quantity below 24. End to end it demonstrates the
/// paper's §6 observation that "scan & selection performance is very
/// similar across settings".
pub fn q6_forecast_revenue(machine: &mut Machine, db: &TpchDb, cfg: &QueryConfig) -> QueryStats {
    let (lo, hi) = (date(1994, 1, 1), date(1995, 1, 1));
    let start = machine.wall_cycles();
    machine.ecall();
    let scope = machine.phase("sel lineitem");
    let (rows, t) = select_rows(
        machine,
        &cfg.cores,
        &[&db.lineitem.shipdate, &db.lineitem.discount, &db.lineitem.quantity],
        &db.lineitem.orderkey,
        Payload::RowIndex,
        &|i| {
            let d = db.lineitem.shipdate.peek(i);
            d >= lo
                && d < hi
                && (5..=7).contains(&db.lineitem.discount.peek(i))
                && db.lineitem.quantity.peek(i) < 24
        },
    );
    drop(scope);
    QueryStats {
        count: rows.len() as u64,
        grouped: Vec::new(),
        wall_cycles: machine.wall_cycles() - start,
        ops: vec![("sel lineitem", t)],
    }
}

/// Uncharged reference for [`q6_forecast_revenue`].
pub fn reference_q6(db: &TpchDb) -> u64 {
    let (lo, hi) = (date(1994, 1, 1), date(1995, 1, 1));
    (0..db.lineitem_len())
        .filter(|&i| {
            let d = db.lineitem.shipdate.peek(i);
            d >= lo
                && d < hi
                && (5..=7).contains(&db.lineitem.discount.peek(i))
                && db.lineitem.quantity.peek(i) < 24
        })
        .count() as u64
}

/// Uncharged reference for [`q1_pricing_summary`]'s per-group counts.
pub fn reference_q1(db: &TpchDb) -> Vec<u64> {
    let cutoff = date(1998, 9, 2);
    let mut counts = vec![0u64; 32];
    for i in 0..db.lineitem_len() {
        if db.lineitem.shipdate.peek(i) <= cutoff {
            let g = db.lineitem.returnflag.peek(i) * 8 + db.lineitem.shipmode.peek(i);
            counts[g as usize] += 1;
        }
    }
    counts
}

/// Uncharged reference counts for all four queries (tests).
pub fn reference_count(db: &TpchDb, q: Query) -> u64 {
    use std::collections::{BTreeMap, BTreeSet};
    match q {
        Query::Q3 => {
            let cutoff = date(1995, 3, 15);
            let building: BTreeSet<i32> = (0..db.customer.custkey.len())
                .filter(|&i| db.customer.mktsegment.peek(i) == SEG_BUILDING)
                .map(|i| db.customer.custkey.peek(i))
                .collect();
            let orders: BTreeSet<i32> = (0..db.orders.orderkey.len())
                .filter(|&i| {
                    db.orders.orderdate.peek(i) < cutoff
                        && building.contains(&db.orders.custkey.peek(i))
                })
                .map(|i| db.orders.orderkey.peek(i))
                .collect();
            (0..db.lineitem_len())
                .filter(|&i| {
                    db.lineitem.shipdate.peek(i) > cutoff
                        && orders.contains(&db.lineitem.orderkey.peek(i))
                })
                .count() as u64
        }
        Query::Q10 => {
            let (lo, hi) = (date(1993, 10, 1), date(1994, 1, 1));
            let nation_of_cust: BTreeMap<i32, i32> = (0..db.customer.custkey.len())
                .map(|i| (db.customer.custkey.peek(i), db.customer.nationkey.peek(i)))
                .collect();
            let orders: BTreeSet<i32> = (0..db.orders.orderkey.len())
                .filter(|&i| {
                    let d = db.orders.orderdate.peek(i);
                    d >= lo
                        && d < hi
                        && nation_of_cust.contains_key(&db.orders.custkey.peek(i))
                })
                .map(|i| db.orders.orderkey.peek(i))
                .collect();
            (0..db.lineitem_len())
                .filter(|&i| {
                    db.lineitem.returnflag.peek(i) == FLAG_R
                        && orders.contains(&db.lineitem.orderkey.peek(i))
                })
                .count() as u64
        }
        Query::Q12 => (0..db.lineitem_len()).filter(|&i| q12_line_pred(db, i)).count() as u64,
        Query::Q19 => (0..db.lineitem_len())
            .filter(|&i| {
                q19_line_pred(db, i)
                    && q19_joint_pred(db, db.lineitem.partkey.peek(i) as usize - 1, i)
            })
            .count() as u64,
    }
}

/// Uncharged reference for Q3's real output: the top-[`Q3_TOP_K`]
/// `(orderkey, revenue)` pairs, revenue descending with orderkey
/// breaking ties ascending.
pub fn reference_q3_topk(db: &TpchDb) -> Vec<(u32, u64)> {
    use std::collections::{BTreeMap, BTreeSet};
    let cutoff = date(1995, 3, 15);
    let building: BTreeSet<i32> = (0..db.customer.custkey.len())
        .filter(|&i| db.customer.mktsegment.peek(i) == SEG_BUILDING)
        .map(|i| db.customer.custkey.peek(i))
        .collect();
    let orders: BTreeSet<i32> = (0..db.orders.orderkey.len())
        .filter(|&i| {
            db.orders.orderdate.peek(i) < cutoff && building.contains(&db.orders.custkey.peek(i))
        })
        .map(|i| db.orders.orderkey.peek(i))
        .collect();
    let mut rev: BTreeMap<u32, u64> = BTreeMap::new();
    for i in 0..db.lineitem_len() {
        let ok = db.lineitem.orderkey.peek(i);
        if db.lineitem.shipdate.peek(i) > cutoff && orders.contains(&ok) {
            let r = db.lineitem.extendedprice.peek(i) as u64
                * (100 - db.lineitem.discount.peek(i)) as u64;
            *rev.entry(ok as u32).or_insert(0) += r;
        }
    }
    let mut out: Vec<(u32, u64)> = rev.into_iter().collect();
    out.sort_by_key(|&(ok, r)| (std::cmp::Reverse(r), ok));
    out.truncate(Q3_TOP_K);
    out
}

/// Uncharged reference for Q10's real output: per-nation revenue,
/// descending, empty nations dropped, nationkey breaking ties ascending.
pub fn reference_q10_revenue(db: &TpchDb) -> Vec<(u32, u64)> {
    use std::collections::BTreeMap;
    let (lo, hi) = (date(1993, 10, 1), date(1994, 1, 1));
    let nation_of_cust: BTreeMap<i32, i32> = (0..db.customer.custkey.len())
        .map(|i| (db.customer.custkey.peek(i), db.customer.nationkey.peek(i)))
        .collect();
    let nation_of_order: BTreeMap<i32, i32> = (0..db.orders.orderkey.len())
        .filter_map(|i| {
            let d = db.orders.orderdate.peek(i);
            if d >= lo && d < hi {
                nation_of_cust
                    .get(&db.orders.custkey.peek(i))
                    .map(|&n| (db.orders.orderkey.peek(i), n))
            } else {
                None
            }
        })
        .collect();
    let mut rev: BTreeMap<u32, u64> = BTreeMap::new();
    for i in 0..db.lineitem_len() {
        if db.lineitem.returnflag.peek(i) != FLAG_R {
            continue;
        }
        if let Some(&n) = nation_of_order.get(&db.lineitem.orderkey.peek(i)) {
            let r = db.lineitem.extendedprice.peek(i) as u64
                * (100 - db.lineitem.discount.peek(i)) as u64;
            *rev.entry(n as u32).or_insert(0) += r;
        }
    }
    let mut out: Vec<(u32, u64)> = rev.into_iter().filter(|&(_, r)| r > 0).collect();
    out.sort_by_key(|&(n, r)| (std::cmp::Reverse(r), n));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use sgx_sim::config::scaled_profile;
    use sgx_sim::Setting;


    fn setup(sf: f64, setting: Setting) -> (Machine, TpchDb) {
        let mut m = Machine::new(scaled_profile(), setting);
        let db = generate(&mut m, sf, 42);
        (m, db)
    }

    #[test]
    fn all_queries_match_reference_counts() {
        let (mut m, db) = setup(0.005, Setting::PlainCpu);
        for q in Query::all() {
            let stats = run_query(&mut m, &db, q, &QueryConfig::new(4));
            let expected = reference_count(&db, q);
            assert_eq!(stats.count, expected, "{} count", q.label());
            assert!(stats.wall_cycles > 0.0);
            if q != Query::Q19 {
                // Q19's disjunctive predicate is legitimately ultra
                // selective (a handful of rows per unit scale factor).
                assert!(expected > 0, "{} reference should be non-trivial", q.label());
            }
        }
    }

    #[test]
    fn q3_and_q10_produce_verified_ordered_outputs() {
        let (mut m, db) = setup(0.005, Setting::PlainCpu);
        for threads in [1usize, 4] {
            for optimized in [false, true] {
                let cfg = QueryConfig::new(threads).with_optimization(optimized);
                let s3 = q3(&mut m, &db, &cfg);
                assert_eq!(
                    s3.grouped,
                    reference_q3_topk(&db),
                    "Q3 top-k, threads={threads} optimized={optimized}"
                );
                assert!(!s3.grouped.is_empty() && s3.grouped.len() <= Q3_TOP_K);
                assert!(s3.grouped.windows(2).all(|w| w[0].1 >= w[1].1), "revenue descending");
                let s10 = q10(&mut m, &db, &cfg);
                assert_eq!(
                    s10.grouped,
                    reference_q10_revenue(&db),
                    "Q10 per-nation revenue, threads={threads} optimized={optimized}"
                );
                assert!(!s10.grouped.is_empty() && s10.grouped.len() <= 25);
                assert!(s10.grouped.windows(2).all(|w| w[0].1 >= w[1].1), "revenue descending");
            }
        }
    }

    #[test]
    fn q19_returns_rows_at_larger_scale() {
        let (mut m, db) = setup(0.08, Setting::PlainCpu);
        let stats = run_query(&mut m, &db, Query::Q19, &QueryConfig::new(8));
        assert_eq!(stats.count, reference_count(&db, Query::Q19));
        assert!(stats.count > 0, "Q19 should match some rows at SF 0.08");
    }

    #[test]
    fn optimization_does_not_change_results() {
        let (mut m, db) = setup(0.005, Setting::PlainCpu);
        for q in Query::all() {
            let plain = run_query(&mut m, &db, q, &QueryConfig::new(4));
            let opt = run_query(&mut m, &db, q, &QueryConfig::new(4).with_optimization(true));
            assert_eq!(plain.count, opt.count, "{}", q.label());
            assert_eq!(plain.grouped, opt.grouped, "{} ordered output", q.label());
        }
    }

    #[test]
    fn degraded_variant_is_result_identical_and_cheaper_in_enclave() {
        // The service's degrade policy swaps in the §4.2-optimized plan:
        // it must never change answers, and must actually be cheaper
        // where it is used (in the enclave). Each run gets a fresh
        // machine and database so neither plan inherits warm caches.
        for q in Query::all() {
            let run = |optimized: bool| {
                let (mut m, db) = setup(0.005, Setting::SgxDataInEnclave);
                run_query(&mut m, &db, q, &QueryConfig::new(4).with_optimization(optimized))
            };
            let (normal, degraded) = (run(false), run(true));
            assert_eq!(normal.count, degraded.count, "{}: degraded plan changed count", q.label());
            assert_eq!(normal.grouped, degraded.grouped, "{}: degraded plan reordered", q.label());
            assert!(
                degraded.wall_cycles < normal.wall_cycles,
                "{}: optimized plan must be cheaper in the enclave ({} vs {})",
                q.label(),
                degraded.wall_cycles,
                normal.wall_cycles
            );
        }
    }

    #[test]
    fn run_query_reports_one_op_per_plan_step() {
        // The service's cost table is calibrated from `QueryStats::ops`,
        // one entry per step of `Query::steps_total`.
        let (mut m, db) = setup(0.003, Setting::PlainCpu);
        for q in Query::all() {
            for optimized in [false, true] {
                let cfg = QueryConfig::new(2).with_optimization(optimized);
                let stats = run_query(&mut m, &db, q, &cfg);
                assert_eq!(stats.ops.len(), q.steps_total(), "{} optimized={optimized}", q.label());
                assert!(stats.ops.iter().all(|&(_, c)| c >= 0.0), "{}", q.label());
            }
        }
    }

    #[test]
    fn single_thread_matches_multi_thread() {
        let (mut m, db) = setup(0.003, Setting::PlainCpu);
        for q in Query::all() {
            let one = run_query(&mut m, &db, q, &QueryConfig::new(1));
            let many = run_query(&mut m, &db, q, &QueryConfig::new(8));
            assert_eq!(one.count, many.count, "{}", q.label());
            assert_eq!(one.grouped, many.grouped, "{} ordered output", q.label());
            assert!(
                many.wall_cycles < one.wall_cycles,
                "{} should speed up with threads",
                q.label()
            );
        }
    }

    #[test]
    fn enclave_overhead_shrinks_with_optimization() {
        // Fig 17: the optimization reduces the enclave-vs-native gap.
        let run = |setting: Setting, optimized: bool| {
            let mut m = Machine::new(scaled_profile(), setting);
            let db = generate(&mut m, 0.01, 42);
            let mut total = 0.0;
            for q in Query::all() {
                total +=
                    run_query(&mut m, &db, q, &QueryConfig::new(8).with_optimization(optimized))
                        .wall_cycles;
            }
            total
        };
        let native = run(Setting::PlainCpu, false);
        let sgx_plain = run(Setting::SgxDataInEnclave, false);
        let sgx_opt = run(Setting::SgxDataInEnclave, true);
        assert!(sgx_plain > native, "queries should cost more in the enclave");
        assert!(sgx_opt < sgx_plain, "optimization should help in the enclave");
        let gap_plain = sgx_plain / native - 1.0;
        let gap_opt = sgx_opt / native - 1.0;
        assert!(
            gap_opt < gap_plain,
            "optimized gap {gap_opt:.3} should undercut plain gap {gap_plain:.3}"
        );
    }

    #[test]
    fn q6_extension_matches_reference_and_scans_at_parity() {
        let (mut m, db) = setup(0.01, Setting::PlainCpu);
        let stats = q6_forecast_revenue(&mut m, &db, &QueryConfig::new(8));
        assert_eq!(stats.count, reference_q6(&db));
        assert!(stats.count > 0);
        // Pure-scan query: the enclave overhead stays in single digits.
        // (SF large enough that the fixed ECALL cost does not dominate.)
        let run = |setting: Setting| {
            let mut m = Machine::new(scaled_profile(), setting);
            let db = generate(&mut m, 0.08, 42);
            m.reset_wall();
            q6_forecast_revenue(&mut m, &db, &QueryConfig::new(8)).wall_cycles
        };
        let native = run(Setting::PlainCpu);
        let sgx = run(Setting::SgxDataInEnclave);
        let overhead = sgx / native - 1.0;
        assert!(
            overhead < 0.12,
            "scan-only query should be near parity, got {:.1}%",
            overhead * 100.0
        );
    }

    #[test]
    fn q1_extension_matches_reference() {
        let (mut m, db) = setup(0.005, Setting::PlainCpu);
        for optimized in [false, true] {
            let (stats, counts) = q1_pricing_summary(
                &mut m,
                &db,
                &QueryConfig::new(4).with_optimization(optimized),
            );
            assert_eq!(counts, reference_q1(&db), "optimized={optimized}");
            assert_eq!(stats.count, counts.iter().sum::<u64>());
            // returnflag 0..3 x shipmode 0..7 => only ids < 24 populated.
            assert!(counts[24..].iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn query_ops_breakdown_present() {
        let (mut m, db) = setup(0.003, Setting::PlainCpu);
        let stats = q3(&mut m, &db, &QueryConfig::new(2));
        let names: Vec<&str> = stats.ops.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"sel customer"));
        assert!(names.contains(&"join c⋈o"));
        let op_sum: f64 = stats.ops.iter().map(|(_, c)| c).sum();
        assert!(op_sum <= stats.wall_cycles * 1.01);
    }

    #[test]
    fn cost_estimate_is_deterministic_and_monotone() {
        let (mut m, _) = setup(0.001, Setting::PlainCpu);
        let small = generate(&mut m, 0.004, 7);
        let large = generate(&mut m, 0.008, 7);
        for q in Query::all() {
            let c = cost_estimate(&small, q, false);
            assert!(c > 0.0);
            assert_eq!(c, cost_estimate(&small, q, false), "pure function");
            assert!(
                cost_estimate(&large, q, false) > c,
                "{}: estimate must grow with data",
                q.label()
            );
            assert!(
                cost_estimate(&small, q, true) < c,
                "{}: degraded plan must estimate cheaper",
                q.label()
            );
        }
        // The heaviest plan (Q10: three joins over the largest inputs)
        // must estimate above the lightest (Q19: two selective scans).
        assert!(cost_estimate(&small, Query::Q10, false) > cost_estimate(&small, Query::Q19, false));
    }

    #[test]
    fn cost_estimate_tracks_actual_cycles_within_admission_tolerance() {
        // Admission control calibrates one cycles-per-unit factor across
        // all plan variants; the estimate only works if the actual/estimate
        // ratio stays inside a bounded band for EVERY variant — including
        // the Q3/Q10 sort + aggregation tails.
        let (mut m, db) = setup(0.005, Setting::SgxDataInEnclave);
        let mut ratios: Vec<(String, f64)> = Vec::new();
        for q in Query::all() {
            for optimized in [false, true] {
                let cfg = QueryConfig::new(4).with_optimization(optimized);
                let stats = run_query(&mut m, &db, q, &cfg);
                let est = cost_estimate(&db, q, optimized);
                ratios.push((format!("{} optimized={optimized}", q.label()), stats.wall_cycles / est));
            }
        }
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for &(_, r) in &ratios {
            lo = lo.min(r);
            hi = hi.max(r);
        }
        assert!(
            hi / lo < ESTIMATE_SPREAD_TOLERANCE,
            "estimate-vs-actual spread {:.2} exceeds admission tolerance {ESTIMATE_SPREAD_TOLERANCE}: {ratios:?}",
            hi / lo
        );
    }
}
