//! Bit-identity of the columnar aggregation kernel: on random typed
//! answer relations (Int, Float, Date, Str and heterogeneous columns,
//! NULLs everywhere), `finalize_c` must return exactly what the row
//! `finalize` returns on the same answer converted to rows — the same
//! groups in the same order, every float equal in `f64::to_bits`, the
//! same error when evaluation fails, and the same `Budget::charged()`.
//!
//! The query family covers GROUP BY over every key type (including
//! `0.0`/`-0.0` and NULL keys), COUNT(*) vs COUNT(col), Int SUM overflow,
//! Int×Float and division expressions, MIN/MAX over strings and dates,
//! AVG, expressions over a mixed Int/Float column, HAVING, ORDER BY and
//! LIMIT, plus `SpillMode::Force`.

use htqo::prelude::*;
use htqo_cq::{AggFunc, ArithOp, CmpOp, Literal, ScalarExpr, SortDir};
use htqo_engine::aggregate::{finalize, finalize_c};
use htqo_engine::crel::CRel;
use htqo_engine::error::SpillMode;
use htqo_engine::value::Row;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Answer columns: four group-key candidates, then the aggregate inputs
/// and the hidden rowid guard.
const COLS: [&str; 11] = [
    "GI", "GF", "GD", "GS", "I", "J", "F", "S", "D", "M", "__rid_t",
];
const KEYS: [&str; 4] = ["GI", "GF", "GD", "GS"];

fn var(v: &str) -> ScalarExpr {
    ScalarExpr::Var(v.into())
}

fn bin(l: ScalarExpr, op: ArithOp, r: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Binary(Box::new(l), op, Box::new(r))
}

fn int(i: i64) -> ScalarExpr {
    ScalarExpr::Lit(Literal::Int(i))
}

/// The aggregate menu. The last two always fail on a non-NULL input
/// (SUM over strings, arithmetic on dates).
fn menu() -> Vec<(AggFunc, Option<ScalarExpr>)> {
    vec![
        (AggFunc::Count, None),
        (AggFunc::Count, Some(var("I"))),
        (AggFunc::Count, Some(var("S"))),
        (AggFunc::Sum, Some(var("I"))),
        (AggFunc::Sum, Some(var("F"))),
        (AggFunc::Sum, Some(bin(var("I"), ArithOp::Mul, var("F")))),
        (AggFunc::Sum, Some(bin(var("I"), ArithOp::Div, var("J")))),
        (
            AggFunc::Sum,
            Some(bin(
                var("F"),
                ArithOp::Mul,
                bin(int(1), ArithOp::Sub, var("F")),
            )),
        ),
        (AggFunc::Sum, Some(bin(var("I"), ArithOp::Add, int(7)))),
        (AggFunc::Avg, Some(var("I"))),
        (AggFunc::Avg, Some(var("F"))),
        (AggFunc::Min, Some(var("S"))),
        (AggFunc::Max, Some(var("S"))),
        (AggFunc::Min, Some(var("D"))),
        (AggFunc::Max, Some(var("F"))),
        (AggFunc::Sum, Some(var("M"))),
        (AggFunc::Avg, Some(bin(var("M"), ArithOp::Add, int(1)))),
        (AggFunc::Sum, Some(var("S"))),
        (AggFunc::Sum, Some(bin(var("D"), ArithOp::Add, int(1)))),
    ]
}

/// A random answer relation over [`COLS`]: `rows` rows, each cell NULL
/// with probability `nulls`%.
fn answer(rows: usize, nulls: u32, seed: u64) -> VRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    let strs = ["apple", "pear", "fig", "kiwi", "plum"];
    let data: Vec<Row> = (0..rows)
        .map(|i| {
            let i_val = if rng.gen_range(0..4u32) == 0 {
                i64::MAX - rng.gen_range(0..1000u64) as i64
            } else {
                rng.gen_range(0..200u64) as i64 - 100
            };
            let m = if rng.gen_range(0..2u32) == 0 {
                Value::Int(rng.gen_range(0..50u64) as i64)
            } else {
                Value::Float(rng.gen_range(0..10_000u64) as f64 / 7.0)
            };
            let mut row = vec![
                Value::Int(rng.gen_range(0..3u64) as i64),
                Value::Float([0.5, 1.5, 0.0, -0.0][rng.gen_range(0..4usize)]),
                Value::Date(100 + rng.gen_range(0..3u64) as i32),
                Value::str(["a", "b", "c"][rng.gen_range(0..3usize)]),
                Value::Int(i_val),
                Value::Int(rng.gen_range(0..5u64) as i64 - 2),
                Value::Float((rng.gen_range(0..2_000_000u64) as f64 - 1e6) / 1000.0),
                Value::str(strs[rng.gen_range(0..strs.len())]),
                Value::Date(rng.gen_range(0..20_000u64) as i32),
                m,
            ];
            for v in &mut row {
                if rng.gen_range(0..100u32) < nulls {
                    *v = Value::Null;
                }
            }
            row.push(Value::Int(i as i64));
            row.into_boxed_slice()
        })
        .collect();
    VRelation::from_rows(COLS.iter().map(|c| c.to_string()).collect(), data)
}

/// A random GROUP BY query over [`answer`]'s columns.
#[derive(Debug, Clone)]
struct Shape {
    rows: usize,
    nulls: u32,
    seed: u64,
    keys: Vec<usize>,
    aggs: Vec<usize>,
    having: bool,
    order: Option<(usize, bool)>,
    limit: Option<usize>,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        (0usize..120, 0u32..40, any::<u64>()),
        (
            proptest::collection::vec(0usize..KEYS.len(), 0..3),
            proptest::collection::vec(0usize..menu().len(), 1..6),
        ),
        (
            any::<bool>(),
            proptest::option::of((0usize..8, any::<bool>())),
            proptest::option::of(0usize..5),
        ),
    )
        .prop_map(
            |((rows, nulls, seed), (mut keys, aggs), (having, order, limit))| {
                keys.sort_unstable();
                keys.dedup();
                Shape {
                    rows,
                    nulls,
                    seed,
                    keys,
                    aggs,
                    having,
                    order,
                    limit,
                }
            },
        )
}

fn query(shape: &Shape) -> ConjunctiveQuery {
    let menu = menu();
    let mut b = CqBuilder::new().atom_vars("t", &COLS);
    let mut labels = Vec::new();
    for &k in &shape.keys {
        b = b.out_var(KEYS[k]);
        labels.push(KEYS[k].to_string());
    }
    for (n, &a) in shape.aggs.iter().enumerate() {
        let (func, expr) = menu[a].clone();
        let label = format!("a{n}");
        b = b.out_agg(func, expr, &label);
        labels.push(label);
    }
    // The hidden multiplicity guard the isolator adds: never output.
    b = b.out_var("__rid_t");
    for &k in &shape.keys {
        b = b.group(KEYS[k]);
    }
    if shape.having {
        b = b.having("a0", CmpOp::Gt, Literal::Int(0));
    }
    if let Some((i, desc)) = shape.order {
        let dir = if desc { SortDir::Desc } else { SortDir::Asc };
        b = b.order(&labels[i % labels.len()], dir);
    }
    if let Some(n) = shape.limit {
        b = b.limit(n);
    }
    b.build()
}

/// Rows with every float replaced by its bit pattern, so `==` is
/// bit-identity (`Value`'s own equality treats `0.0 == -0.0` and all
/// NaNs as equal).
fn bits(r: &VRelation) -> Vec<Vec<(u8, String)>> {
    r.rows()
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Null => (0, String::new()),
                    Value::Int(i) => (1, i.to_string()),
                    Value::Float(x) => (2, x.to_bits().to_string()),
                    Value::Str(s) => (3, s.to_string()),
                    Value::Date(d) => (4, d.to_string()),
                })
                .collect()
        })
        .collect()
}

/// `bits` of the rows in sorted order: the group set, ignoring order.
fn group_set(r: &VRelation) -> Vec<Vec<(u8, String)>> {
    let mut rows = bits(r);
    rows.sort();
    rows
}

/// Runs both fronts under fresh budgets from `budget` and checks they
/// agree: same columns and charges; when `ordered`, the same rows in the
/// same order and the same error. Unordered (the spill path emits groups
/// in partition order, and the two fronts partition by different key
/// hashes) the group sets must match, or only their count under a LIMIT,
/// which then keeps different groups, and both must fail or neither.
/// Returns the row front's result.
fn agree(
    rel: &VRelation,
    q: &ConjunctiveQuery,
    budget: impl Fn() -> Budget,
    ordered: bool,
) -> Result<Result<VRelation, EvalError>, TestCaseError> {
    let crel = CRel::from_vrel(rel);
    let (mut b_row, mut b_col) = (budget(), budget());
    let row = finalize(&crel.to_vrel(), q, &mut b_row);
    let col = finalize_c(&crel, q, &mut b_col);
    match (&row, &col) {
        (Ok(r), Ok(c)) => {
            prop_assert_eq!(r.cols(), c.cols());
            if ordered {
                prop_assert_eq!(bits(r), bits(c));
            } else if q.limit.is_none() {
                prop_assert_eq!(group_set(r), group_set(c));
            } else {
                prop_assert_eq!(r.len(), c.len());
            }
            prop_assert_eq!(b_row.charged(), b_col.charged());
        }
        // Unordered, each front meets the first failing row of its own
        // partition order.
        (Err(r), Err(c)) if ordered => prop_assert_eq!(r, c),
        (Err(_), Err(_)) => {}
        _ => prop_assert!(false, "row {row:?} vs columnar {col:?}"),
    }
    Ok(row)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// In memory: identical groups, order, float bits, errors and charges.
    #[test]
    fn columnar_aggregation_is_bit_identical_to_rows(shape in arb_shape()) {
        let rel = answer(shape.rows, shape.nulls, shape.seed);
        let _ = agree(&rel, &query(&shape), Budget::unlimited, true)?;
    }

    /// Forced spill: both fronts take the partitioned path and agree on
    /// the group set and charges; without LIMIT the groups also equal the
    /// in-memory ones bit for bit (rows within a group keep their input
    /// order through every spill level, so float sums match).
    #[test]
    fn forced_spill_agrees_with_rows_and_memory(shape in arb_shape()) {
        let rel = answer(shape.rows, shape.nulls, shape.seed);
        let q = query(&shape);
        let force = || Budget::unlimited().with_spill_mode(SpillMode::Force);
        let spilled = agree(&rel, &q, force, false)?;
        let memory = agree(&rel, &q, Budget::unlimited, true)?;
        prop_assert_eq!(spilled.is_ok(), memory.is_ok());
        if let (Ok(s), Ok(m), None) = (&spilled, &memory, shape.limit) {
            prop_assert_eq!(group_set(s), group_set(m));
        }
    }
}

/// Every aggregate of the menu over an empty input, global and grouped:
/// a global aggregate yields its single row (COUNT 0, everything else
/// NULL), a grouped one nothing — and the two fronts agree.
#[test]
fn empty_input_global_and_grouped() {
    let rel = answer(0, 0, 1);
    for a in 0..menu().len() {
        for keys in [vec![], vec![3]] {
            let shape = Shape {
                rows: 0,
                nulls: 0,
                seed: 1,
                keys: keys.clone(),
                aggs: vec![a],
                having: false,
                order: None,
                limit: None,
            };
            let out = agree(&rel, &query(&shape), Budget::unlimited, true)
                .unwrap()
                .expect("an empty input never fails");
            assert_eq!(out.len(), usize::from(keys.is_empty()), "aggregate {a}");
        }
    }
}

/// Int SUM wraps exactly like the row feed, and errors surface as the
/// row-major feed meets them: the first failing row, the first failing
/// aggregate within it.
#[test]
fn overflow_wraps_and_errors_match_the_row_feed() {
    let rel = VRelation::from_rows(
        vec!["I".into(), "S".into(), "D".into(), "__rid_t".into()],
        vec![
            vec![
                Value::Int(i64::MAX),
                Value::Null,
                Value::Date(1),
                Value::Int(0),
            ],
            vec![Value::Int(2), Value::Null, Value::Null, Value::Int(1)],
            vec![
                Value::Int(3),
                Value::str("x"),
                Value::Date(2),
                Value::Int(2),
            ],
        ]
        .into_iter()
        .map(Vec::into_boxed_slice)
        .collect(),
    );
    let q = |aggs: Vec<(AggFunc, ScalarExpr)>| {
        let mut b = CqBuilder::new().atom_vars("t", &["I", "S", "D", "__rid_t"]);
        for (n, (f, e)) in aggs.into_iter().enumerate() {
            b = b.out_agg(f, Some(e), &format!("a{n}"));
        }
        b.out_var("__rid_t").build()
    };
    let sum = agree(
        &rel,
        &q(vec![(AggFunc::Sum, var("I"))]),
        Budget::unlimited,
        true,
    )
    .unwrap()
    .unwrap();
    assert_eq!(sum.rows()[0][0], Value::Int(i64::MAX.wrapping_add(5)));
    // Row 0 fails in the date arithmetic (second aggregate) before row 2
    // reaches SUM(S) (first aggregate): the row feed reports the former.
    let err = agree(
        &rel,
        &q(vec![
            (AggFunc::Sum, var("S")),
            (AggFunc::Sum, bin(var("D"), ArithOp::Add, int(1))),
        ]),
        Budget::unlimited,
        true,
    )
    .unwrap()
    .unwrap_err();
    assert!(err.to_string().contains("arithmetic"), "{err}");
    // An unknown variable fails at the first row, and not at all on an
    // empty input.
    let unknown = q(vec![(AggFunc::Sum, var("nope"))]);
    assert!(matches!(
        agree(&rel, &unknown, Budget::unlimited, true).unwrap(),
        Err(EvalError::UnknownVariable(_))
    ));
    let empty = VRelation::from_rows(rel.cols().to_vec(), vec![]);
    assert!(agree(&empty, &unknown, Budget::unlimited, true)
        .unwrap()
        .is_ok());
}
