//! TPC-H subset generator.
//!
//! §6 of the paper uses TPC-H Q3, Q10, Q12 and Q19, "mimicking the
//! evaluation setup for CrkJoin": dates and categorical strings are
//! represented as integers, only the columns the simplified queries touch
//! are generated, and the final aggregation is `count(*)`. All columns are
//! stored columnar in [`SimVec`]s so scans and joins charge the simulator.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sgx_sim::{Machine, SimVec};

/// Days from 1992-01-01 to 1998-12-31 (the TPC-H date domain).
pub const DATE_MAX: i32 = 2556;
/// Integer code of `MKTSEGMENT = 'BUILDING'`.
pub const SEG_BUILDING: i32 = 0;
/// Integer code of `RETURNFLAG = 'R'`.
pub const FLAG_R: i32 = 2;
/// Integer codes of the ship modes used by Q12 and Q19.
pub const MODE_MAIL: i32 = 0;
/// `SHIPMODE = 'SHIP'`.
pub const MODE_SHIP: i32 = 1;
/// `SHIPMODE = 'AIR'`.
pub const MODE_AIR: i32 = 2;
/// `SHIPMODE = 'AIR REG'`.
pub const MODE_AIR_REG: i32 = 3;
/// Total distinct ship modes.
pub const N_MODES: i32 = 7;
/// Integer code of `SHIPINSTRUCT = 'DELIVER IN PERSON'`.
pub const INSTRUCT_DELIVER_IN_PERSON: i32 = 0;

/// Convert a TPC-H date literal `(y, m, d)` to the integer encoding (days
/// since 1992-01-01; months approximated at TPC-H's granularity).
pub const fn date(y: i32, m: i32, d: i32) -> i32 {
    (y - 1992) * 365 + (m - 1) * 30 + (d - 1)
}

/// CUSTOMER columns (Q3, Q10).
pub struct Customer {
    /// Primary key `1..=n`.
    pub custkey: SimVec<i32>,
    /// Market segment code (5 segments).
    pub mktsegment: SimVec<i32>,
    /// Nation key (25 nations).
    pub nationkey: SimVec<i32>,
}

/// ORDERS columns (Q3, Q10, Q12).
pub struct Orders {
    /// Primary key `1..=n`.
    pub orderkey: SimVec<i32>,
    /// FK into CUSTOMER.
    pub custkey: SimVec<i32>,
    /// Order date (integer days).
    pub orderdate: SimVec<i32>,
}

/// LINEITEM columns (all four queries).
pub struct Lineitem {
    /// FK into ORDERS.
    pub orderkey: SimVec<i32>,
    /// FK into PART.
    pub partkey: SimVec<i32>,
    /// Quantity `1..=50`.
    pub quantity: SimVec<i32>,
    /// Discount in percent `0..=10`.
    pub discount: SimVec<i32>,
    /// Extended price (integer cents, correlated with quantity).
    pub extendedprice: SimVec<i32>,
    /// Ship date.
    pub shipdate: SimVec<i32>,
    /// Commit date.
    pub commitdate: SimVec<i32>,
    /// Receipt date.
    pub receiptdate: SimVec<i32>,
    /// Return flag code (N/A/R).
    pub returnflag: SimVec<i32>,
    /// Ship mode code (7 modes).
    pub shipmode: SimVec<i32>,
    /// Ship instruction code (4 instructions).
    pub shipinstruct: SimVec<i32>,
}

/// PART columns (Q19).
pub struct Part {
    /// Primary key `1..=n`.
    pub partkey: SimVec<i32>,
    /// Brand code (25 brands).
    pub brand: SimVec<i32>,
    /// Container code (40 containers).
    pub container: SimVec<i32>,
    /// Size `1..=50`.
    pub size: SimVec<i32>,
}

/// NATION columns (Q10).
pub struct Nation {
    /// Primary key `0..25`.
    pub nationkey: SimVec<i32>,
}

/// The generated database.
pub struct TpchDb {
    /// CUSTOMER table.
    pub customer: Customer,
    /// ORDERS table.
    pub orders: Orders,
    /// LINEITEM table.
    pub lineitem: Lineitem,
    /// PART table.
    pub part: Part,
    /// NATION table.
    pub nation: Nation,
    /// Scale factor the database was generated at.
    pub sf: f64,
}

impl TpchDb {
    /// Rows in LINEITEM.
    pub fn lineitem_len(&self) -> usize {
        self.lineitem.orderkey.len()
    }
}

/// Generate a TPC-H subset at scale factor `sf` into the machine's default
/// data region. Cardinalities follow the spec: 150k customers, 1.5M
/// orders, ~6M lineitems, 200k parts per unit scale factor.
pub fn generate(machine: &mut Machine, sf: f64, seed: u64) -> TpchDb {
    let n_cust = ((150_000.0 * sf) as usize).max(1);
    let n_orders = ((1_500_000.0 * sf) as usize).max(1);
    let n_part = ((200_000.0 * sf) as usize).max(1);
    let mut rng = StdRng::seed_from_u64(seed);

    // CUSTOMER
    let mut customer = Customer {
        custkey: machine.alloc(n_cust),
        mktsegment: machine.alloc(n_cust),
        nationkey: machine.alloc(n_cust),
    };
    for i in 0..n_cust {
        customer.custkey.poke(i, i as i32 + 1);
        customer.mktsegment.poke(i, rng.random_range(0..5));
        customer.nationkey.poke(i, rng.random_range(0..25));
    }

    // ORDERS: orderdate leaves room for the longest shipping chain.
    let mut orders = Orders {
        orderkey: machine.alloc(n_orders),
        custkey: machine.alloc(n_orders),
        orderdate: machine.alloc(n_orders),
    };
    for i in 0..n_orders {
        orders.orderkey.poke(i, i as i32 + 1);
        orders.custkey.poke(i, rng.random_range(1..=n_cust as i32));
        orders.orderdate.poke(i, rng.random_range(0..DATE_MAX - 151));
    }

    // LINEITEM: 1..=7 lines per order (avg 4 ⇒ ~6M at SF 1).
    let mut ok = Vec::new();
    let mut lines_of_order = Vec::with_capacity(n_orders);
    for o in 0..n_orders {
        let lines = rng.random_range(1..=7u32);
        lines_of_order.push(lines);
        for _ in 0..lines {
            ok.push(o);
        }
    }
    let n_li = ok.len();
    let mut lineitem = Lineitem {
        orderkey: machine.alloc(n_li),
        partkey: machine.alloc(n_li),
        quantity: machine.alloc(n_li),
        discount: machine.alloc(n_li),
        extendedprice: machine.alloc(n_li),
        shipdate: machine.alloc(n_li),
        commitdate: machine.alloc(n_li),
        receiptdate: machine.alloc(n_li),
        returnflag: machine.alloc(n_li),
        shipmode: machine.alloc(n_li),
        shipinstruct: machine.alloc(n_li),
    };
    for (i, &o) in ok.iter().enumerate() {
        let odate = orders.orderdate.peek(o);
        let ship = odate + rng.random_range(1..=121);
        let commit = odate + rng.random_range(30..=90);
        let receipt = ship + rng.random_range(1..=30);
        lineitem.orderkey.poke(i, o as i32 + 1);
        lineitem.partkey.poke(i, rng.random_range(1..=n_part as i32));
        let qty = rng.random_range(1..=50);
        lineitem.quantity.poke(i, qty);
        lineitem.discount.poke(i, rng.random_range(0..=10));
        lineitem.extendedprice.poke(i, qty * rng.random_range(900..=110_000));
        lineitem.shipdate.poke(i, ship);
        lineitem.commitdate.poke(i, commit);
        lineitem.receiptdate.poke(i, receipt);
        // TPC-H: R or A when the receipt predates the "current date"
        // 1995-06-17, N otherwise.
        let flag = if receipt <= date(1995, 6, 17) {
            if rng.random_range(0..2) == 0 {
                1 // 'A'
            } else {
                FLAG_R
            }
        } else {
            0 // 'N'
        };
        lineitem.returnflag.poke(i, flag);
        lineitem.shipmode.poke(i, rng.random_range(0..N_MODES));
        lineitem.shipinstruct.poke(i, rng.random_range(0..4));
    }

    // PART
    let mut part = Part {
        partkey: machine.alloc(n_part),
        brand: machine.alloc(n_part),
        container: machine.alloc(n_part),
        size: machine.alloc(n_part),
    };
    for i in 0..n_part {
        part.partkey.poke(i, i as i32 + 1);
        part.brand.poke(i, rng.random_range(0..25));
        part.container.poke(i, rng.random_range(0..40));
        part.size.poke(i, rng.random_range(1..=50));
    }

    // NATION
    let mut nation = Nation { nationkey: machine.alloc(25) };
    for i in 0..25 {
        nation.nationkey.poke(i, i as i32);
    }

    TpchDb { customer, orders, lineitem, part, nation, sf }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests check results against the uncharged backing storage"
)]
mod tests {
    use super::*;
    use sgx_sim::config::scaled_profile;
    use sgx_sim::Setting;

    fn db() -> (Machine, TpchDb) {
        let mut m = Machine::new(scaled_profile(), Setting::PlainCpu);
        let db = generate(&mut m, 0.01, 42);
        (m, db)
    }

    #[test]
    fn cardinalities_scale() {
        let (_m, db) = db();
        assert_eq!(db.customer.custkey.len(), 1500);
        assert_eq!(db.orders.orderkey.len(), 15_000);
        assert_eq!(db.part.partkey.len(), 2000);
        let li = db.lineitem_len();
        // 1..=7 lines per order, mean 4.
        assert!((3 * 15_000..5 * 15_000).contains(&li), "lineitem {li}");
        assert_eq!(db.nation.nationkey.len(), 25);
    }

    #[test]
    fn foreign_keys_are_valid() {
        let (_m, db) = db();
        let n_cust = db.customer.custkey.len() as i32;
        assert!(db.orders.custkey.as_slice_untracked().iter().all(|&c| (1..=n_cust).contains(&c)));
        let n_ord = db.orders.orderkey.len() as i32;
        assert!(db.lineitem.orderkey.as_slice_untracked().iter().all(|&o| (1..=n_ord).contains(&o)));
        let n_part = db.part.partkey.len() as i32;
        assert!(db.lineitem.partkey.as_slice_untracked().iter().all(|&p| (1..=n_part).contains(&p)));
    }

    #[test]
    fn date_chains_are_consistent() {
        let (_m, db) = db();
        for i in 0..db.lineitem_len() {
            let o = db.lineitem.orderkey.peek(i) - 1;
            let odate = db.orders.orderdate.peek(o as usize);
            let ship = db.lineitem.shipdate.peek(i);
            let receipt = db.lineitem.receiptdate.peek(i);
            assert!(ship > odate, "lineitem {i} shipped before ordered");
            assert!(receipt > ship, "lineitem {i} received before shipped");
            assert!(receipt <= DATE_MAX, "date overflow at {i}");
        }
    }

    #[test]
    fn date_literal_encoding() {
        assert_eq!(date(1992, 1, 1), 0);
        assert_eq!(date(1995, 3, 15), 3 * 365 + 2 * 30 + 14);
        assert!(date(1998, 12, 31) <= DATE_MAX);
    }

    #[test]
    fn generation_is_deterministic() {
        let (_m1, a) = db();
        let (_m2, b) = db();
        assert_eq!(a.lineitem.shipdate.as_slice_untracked(), b.lineitem.shipdate.as_slice_untracked());
        assert_eq!(a.part.brand.as_slice_untracked(), b.part.brand.as_slice_untracked());
    }

    #[test]
    fn q6_columns_within_domain() {
        let (_m, db) = db();
        assert!(db.lineitem.discount.as_slice_untracked().iter().all(|&d| (0..=10).contains(&d)));
        for i in 0..db.lineitem_len() {
            let q = db.lineitem.quantity.peek(i);
            let p = db.lineitem.extendedprice.peek(i);
            assert!(p >= q * 900, "price below floor at {i}");
        }
    }

    #[test]
    fn selectivities_are_plausible() {
        let (_m, db) = db();
        // ~20% of customers in each segment.
        let building = db
            .customer
            .mktsegment
            .as_slice_untracked()
            .iter()
            .filter(|&&s| s == SEG_BUILDING)
            .count() as f64
            / db.customer.custkey.len() as f64;
        assert!((0.15..0.25).contains(&building), "BUILDING share {building}");
        // ~25% returnflag 'R' (half of the ~50% of receipts before mid-95).
        let r = db.lineitem.returnflag.as_slice_untracked().iter().filter(|&&f| f == FLAG_R).count()
            as f64
            / db.lineitem_len() as f64;
        assert!((0.15..0.35).contains(&r), "R share {r}");
    }
}
