//! The seeded generator: the benchmark's only consumer of randomness.
//! The program under test sees generated rows and query parameters and
//! nothing else; the generator keeps, per table, the reference answers
//! every query is checked against.

use vortex::row::{Row, RowSet, Value};
use vortex::schema::{Field, FieldType, PartitionTransform, Schema};

/// Distinct `day` values (the partition column).
pub const DAYS: usize = 8;
/// Distinct `customer` values (the clustering key), uniform.
pub const CUSTOMERS: u64 = 20_000;
/// `amount` is uniform in `0..AMOUNT_MAX`.
pub const AMOUNT_MAX: i64 = 1_000_000;
/// Width of one `amount` histogram bucket; `q_filter` bounds are
/// multiples of it so the histogram answers them exactly.
const AMOUNT_BUCKET: i64 = 1_000;
/// `q_filter` keeps a tenth of the `amount` range.
const FILTER_WIDTH: i64 = AMOUNT_MAX / 10;
/// Rows `q_recent` must see: the newest `RECENT_ROWS` by `seq`.
pub const RECENT_ROWS: u64 = 500;

/// splitmix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The `orders` schema: ≈100 B/row, one column per encoding family
/// (IntPack for the integers, ALP for `price`, Dict/FSST for the
/// strings, a validity bitmap for `note`).
pub fn orders_schema() -> Schema {
    Schema::new(vec![
        Field::required("day", FieldType::Int64),
        Field::required("customer", FieldType::String),
        Field::required("amount", FieldType::Int64),
        Field::required("price", FieldType::Float64),
        Field::nullable("note", FieldType::String),
        Field::required("seq", FieldType::Int64),
    ])
    .with_partition("day", PartitionTransform::Identity)
    .with_clustering(&["customer"])
}

/// Column positions in [`orders_schema`].
pub mod col {
    /// `day`
    pub const DAY: usize = 0;
    /// `customer`
    pub const CUSTOMER: usize = 1;
    /// `amount`
    pub const AMOUNT: usize = 2;
    /// `price`
    pub const PRICE: usize = 3;
    /// `seq`
    pub const SEQ: usize = 5;
}

/// The `customer` value with index `i`.
pub fn customer_name(i: u64) -> String {
    format!("cust-{i:05}")
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Tally {
    rows: u64,
    sum_amount: i64,
    /// Σ price in cents — exact, unlike an f64 running sum.
    sum_cents: i64,
}

/// Reference answers for one table, updated as rows are generated for it.
#[derive(Debug, Clone)]
pub struct Reference {
    all: Tally,
    /// Σ `RowSet::approx_bytes` of everything generated for the table.
    pub user_bytes: u64,
    by_day: [Tally; DAYS],
    by_customer: Vec<u32>,
    by_amount_bucket: Vec<Tally>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            all: Tally::default(),
            user_bytes: 0,
            by_day: [Tally::default(); DAYS],
            by_customer: vec![0; CUSTOMERS as usize],
            by_amount_bucket: vec![Tally::default(); (AMOUNT_MAX / AMOUNT_BUCKET) as usize],
        }
    }
}

impl Reference {
    /// Rows generated for the table so far (also the next `seq`).
    pub fn rows(&self) -> u64 {
        self.all.rows
    }

    /// `SUM(amount)` over the table.
    pub fn sum_amount(&self) -> i64 {
        self.all.sum_amount
    }

    /// `q_agg`: per non-empty day, `(day, rows, SUM(amount), AVG(price))`.
    pub fn agg_by_day(&self) -> Vec<(i64, u64, i64, f64)> {
        self.by_day
            .iter()
            .enumerate()
            .filter(|(_, t)| t.rows > 0)
            .map(|(d, t)| {
                let avg = t.sum_cents as f64 / 100.0 / t.rows as f64;
                (d as i64, t.rows, t.sum_amount, avg)
            })
            .collect()
    }

    /// `q_filter`: `(rows, SUM(amount))` with `lo <= amount < hi`.
    pub fn amount_range(&self, lo: i64, hi: i64) -> (u64, i64) {
        assert!(lo % AMOUNT_BUCKET == 0 && hi % AMOUNT_BUCKET == 0);
        let b = |x: i64| (x / AMOUNT_BUCKET) as usize;
        self.by_amount_bucket[b(lo)..b(hi)]
            .iter()
            .fold((0, 0), |(n, s), t| (n + t.rows, s + t.sum_amount))
    }

    /// `q_point`: rows of one customer.
    pub fn customer_rows(&self, customer: u64) -> u64 {
        u64::from(self.by_customer[customer as usize])
    }

    /// `q_narrow`: `(rows, SUM(amount))` of one day.
    pub fn day(&self, day: i64) -> (u64, i64) {
        let t = &self.by_day[day as usize];
        (t.rows, t.sum_amount)
    }
}

/// Parameters of one query, drawn from the seed.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Index of the customer `q_point` looks up.
    pub customer: u64,
    /// The day `q_narrow` selects.
    pub day: i64,
    /// `q_filter` lower bound (inclusive).
    pub amount_lo: i64,
    /// `q_filter` upper bound (exclusive).
    pub amount_hi: i64,
}

/// The generator. Two independent streams from one seed: row contents
/// and query parameters, so changing how many queries a stage issues
/// never changes the rows a later stage loads.
#[derive(Debug, Clone)]
pub struct Generator {
    data: SplitMix64,
    params: SplitMix64,
}

impl Generator {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Generator {
            data: SplitMix64(seed),
            params: SplitMix64(seed ^ 0xA5A5_5A5A_C3C3_3C3C),
        }
    }

    /// The next `n` rows of a table, tallied into its reference. `seq`
    /// continues the table's ingest sequence.
    pub fn batch(&mut self, n: usize, table: &mut Reference) -> RowSet {
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let r = self.data.next_u64();
            let day = (r % DAYS as u64) as i64;
            let customer = (r >> 8) % CUSTOMERS;
            let amount = self.data.below(AMOUNT_MAX as u64) as i64;
            let cents = self.data.below(100_000) as i64;
            let note = if (r >> 40).is_multiple_of(10) {
                Value::Null
            } else {
                Value::String(format!(
                    "sess={:08x} ua=Chrome os=Linux zone=us-central1",
                    (r >> 32) as u32
                ))
            };
            let seq = table.all.rows as i64;
            for t in [
                &mut table.all,
                &mut table.by_day[day as usize],
                &mut table.by_amount_bucket[(amount / AMOUNT_BUCKET) as usize],
            ] {
                t.rows += 1;
                t.sum_amount += amount;
                t.sum_cents += cents;
            }
            table.by_customer[customer as usize] += 1;
            rows.push(Row::insert(vec![
                Value::Int64(day),
                Value::String(customer_name(customer)),
                Value::Int64(amount),
                Value::Float64(cents as f64 / 100.0),
                note,
                Value::Int64(seq),
            ]));
        }
        let set = RowSet::new(rows);
        table.user_bytes += set.approx_bytes() as u64;
        set
    }

    /// Parameters for the next query.
    pub fn params(&mut self) -> Params {
        let lo_buckets = ((AMOUNT_MAX - FILTER_WIDTH) / AMOUNT_BUCKET) as u64;
        let amount_lo = self.params.below(lo_buckets + 1) as i64 * AMOUNT_BUCKET;
        Params {
            customer: self.params.below(CUSTOMERS),
            day: self.params.below(DAYS as u64) as i64,
            amount_lo,
            amount_hi: amount_lo + FILTER_WIDTH,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn as_i64(v: &Value) -> i64 {
        match v {
            Value::Int64(i) => *i,
            other => panic!("not an int: {other:?}"),
        }
    }

    #[test]
    fn same_seed_same_rows_and_reference_matches_a_recount() {
        let mut a = Generator::new(42);
        let mut b = Generator::new(42);
        let (mut ra, mut rb) = (Reference::default(), Reference::default());
        let rows_a = a.batch(3_000, &mut ra);
        assert_eq!(rows_a, b.batch(3_000, &mut rb));
        assert_ne!(
            rows_a,
            Generator::new(43).batch(3_000, &mut Reference::default())
        );
        let more = a.batch(10, &mut ra);
        assert_eq!(
            as_i64(&more.rows[0].values[col::SEQ]),
            3_000,
            "seq continues"
        );
        // Recount the first batch by hand.
        let p = a.params();
        assert_eq!(p.amount_hi - p.amount_lo, FILTER_WIDTH);
        let (mut n, mut s, mut day_n, mut nulls) = (0u64, 0i64, 0u64, 0);
        for r in &rows_a.rows {
            let amount = as_i64(&r.values[col::AMOUNT]);
            if (p.amount_lo..p.amount_hi).contains(&amount) {
                n += 1;
                s += amount;
            }
            day_n += u64::from(as_i64(&r.values[col::DAY]) == p.day);
            nulls += usize::from(r.values[4].is_null());
        }
        assert_eq!(rb.amount_range(p.amount_lo, p.amount_hi), (n, s));
        assert_eq!(rb.day(p.day).0, day_n);
        assert!((200..400).contains(&nulls), "~10% NULL notes, got {nulls}");
        let agg = rb.agg_by_day();
        assert_eq!(agg.iter().map(|g| g.1).sum::<u64>(), 3_000);
        assert_eq!(agg.iter().map(|g| g.2).sum::<i64>(), rb.sum_amount());
        let bytes_per_row = rb.user_bytes / rb.rows();
        assert!((85..=115).contains(&bytes_per_row), "{bytes_per_row} B/row");
    }
}
