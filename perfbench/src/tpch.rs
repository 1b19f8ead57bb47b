//! `tpch-analytic`: one session sends TPC-H Q1/Q3/Q5/Q8/Q9/Q10 as ad hoc
//! SQL with seeded parameters, over TPC-H data ingested into a
//! `StorageDb` (B-tree indexes on the join keys) and served by
//! `QueryService::open_paged` with a page cache that holds all the data,
//! one engine thread.

use crate::queries::{self, Client, Request};
use crate::report::Report;
use crate::Args;
use htqo_tpch::dbgen::{generate, DbgenOptions};
use htqo_tpch::queries as q;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

pub const CLASSES: [&str; 6] = ["q1", "q3", "q5", "q8", "q9", "q10"];

/// Parameter sets drawn per class. Consecutive requests of a class never
/// repeat a set, so every request takes the plan cache's shape-hit
/// (revalidate) path; a small pool keeps the reference evaluations few.
const PARAMS_PER_CLASS: usize = 6;

const INDEXES: &[(&str, &[&str])] = &[
    ("region", &["r_regionkey"]),
    ("nation", &["n_nationkey", "n_regionkey"]),
    ("supplier", &["s_suppkey", "s_nationkey"]),
    ("customer", &["c_custkey", "c_nationkey"]),
    ("part", &["p_partkey"]),
    ("partsupp", &["ps_partkey", "ps_suppkey"]),
    ("orders", &["o_orderkey", "o_custkey"]),
    ("lineitem", &["l_orderkey", "l_partkey", "l_suppkey"]),
];

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const TYPES: [&str; 6] = [
    "ECONOMY ANODIZED STEEL",
    "STANDARD POLISHED BRASS",
    "SMALL PLATED COPPER",
    "MEDIUM BRUSHED NICKEL",
    "LARGE BURNISHED TIN",
    "PROMO PLATED STEEL",
];

/// One seeded parameter draw for `class`.
fn draw(class: usize, rng: &mut StdRng) -> String {
    match CLASSES[class] {
        "q1" => q::q1(rng.gen_range(60..=120)),
        "q3" => q::q3(
            SEGMENTS[rng.gen_range(0..SEGMENTS.len())],
            &format!("1995-03-{:02}", rng.gen_range(1..=31)),
        ),
        "q5" => q::q5(
            REGIONS[rng.gen_range(0..REGIONS.len())],
            rng.gen_range(1993..=1997),
        ),
        "q8" => q::q8(
            REGIONS[rng.gen_range(0..REGIONS.len())],
            TYPES[rng.gen_range(0..TYPES.len())],
        ),
        "q9" => q::q9(&format!(
            "Brand#{}{}",
            rng.gen_range(1..=5),
            rng.gen_range(1..=5)
        )),
        _ => {
            let m = rng.gen_range(0..24);
            q::q10(&format!("{}-{:02}-01", 1993 + m / 12, 1 + m % 12))
        }
    }
}

struct TpchClient {
    rng: StdRng,
    /// Classes still due in the current round: every round sends each
    /// class once, in a seeded order, so the class mix of a window does
    /// not depend on chance.
    round: Vec<usize>,
    /// `pool[class][i]`: the class's parameter sets, as SQL.
    pool: Vec<Vec<Arc<str>>>,
    last: Vec<Option<usize>>,
}

impl TpchClient {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ec4_a11c);
        let pool = (0..CLASSES.len())
            .map(|c| {
                let mut sqls: Vec<Arc<str>> = Vec::new();
                // Distinct sets only (a draw may repeat an earlier one).
                for _ in 0..100 {
                    if sqls.len() == PARAMS_PER_CLASS {
                        break;
                    }
                    let sql: Arc<str> = draw(c, &mut rng).into();
                    if !sqls.contains(&sql) {
                        sqls.push(sql);
                    }
                }
                sqls
            })
            .collect();
        TpchClient {
            rng,
            round: Vec::new(),
            pool,
            last: vec![None; CLASSES.len()],
        }
    }
}

impl Client for TpchClient {
    fn prepared(&self) -> Vec<String> {
        Vec::new()
    }

    fn next_request(&mut self) -> Request {
        if self.round.is_empty() {
            self.round = (0..CLASSES.len()).collect();
            self.round.shuffle(&mut self.rng);
        }
        let class = self.round.pop().expect("round refilled");
        let n = self.pool[class].len();
        let mut i = self.rng.gen_range(0..n);
        if n > 1 && self.last[class] == Some(i) {
            i = (i + 1 + self.rng.gen_range(0..n - 1)) % n;
        }
        self.last[class] = Some(i);
        let sql = Arc::clone(&self.pool[class][i]);
        Request {
            key: (class * 1000 + i) as u64,
            class,
            sql: sql.to_string(),
            oracle_sql: sql,
            prepared: None,
        }
    }
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let scale = if args.smoke { 0.002 } else { 0.05 };
    let dbgen = DbgenOptions {
        scale,
        seed: args.seed,
    };
    report.config("scale_factor", scale);
    let dir = args.work_dir.join("db");
    queries::run_workload(
        args,
        report,
        "tpch-analytic",
        &CLASSES,
        || queries::serve(generate(&dbgen), INDEXES, &dir),
        vec![Box::new(TpchClient::new(args.seed))],
        CLASSES.len(),
        || generate(&dbgen),
    )
}
