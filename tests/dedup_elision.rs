//! Soundness of the duplicate-free shortcut in distinct projection.
//!
//! A columnar relation is marked duplicate-free only when that is proven
//! (a scan carrying the hidden rowid column, a distinct projection, a
//! join or semijoin of marked inputs, a projection keeping every column),
//! and `cops::project(.., distinct = true)` skips its hash pass only for a
//! marked input it keeps whole. These tests pin both halves:
//!
//! - a table with exact duplicate rows and no rowid guard is never marked
//!   and is still deduplicated — at P‴ (the evaluator's final distinct
//!   projection onto `out(Q)`) and in `project_onto_available`;
//! - on rowid-keyed scans and their joins the shortcut returns the same
//!   rows, in the same order, with the same tuple and byte charges as the
//!   hash pass it skips.

use htqo::prelude::*;
use htqo_cq::isolator::ROWID_COLUMN;
use htqo_cq::AtomId;
use htqo_engine::cops;
use htqo_engine::crel::CRel;
use htqo_engine::scan::scan_query_atom_c;
use htqo_engine::schema::ColumnType;
use htqo_eval::{evaluate_qhd_with, ExecOptions};

/// `d(a, b)` and `e(b, c)`, both with exact duplicate rows.
fn db() -> Database {
    let mut db = Database::new();
    let mut d = Relation::new(Schema::new(&[
        ("a", ColumnType::Int),
        ("b", ColumnType::Str),
    ]));
    for (a, b) in [(1, "x"), (1, "x"), (2, "x"), (2, "y"), (2, "y"), (3, "z")] {
        d.push_row(vec![Value::Int(a), Value::str(b)]).unwrap();
    }
    db.insert_table("d", d);
    let mut e = Relation::new(Schema::new(&[
        ("b", ColumnType::Str),
        ("c", ColumnType::Int),
    ]));
    for (b, c) in [("x", 10), ("x", 10), ("y", 20), ("z", 30), ("z", 30)] {
        e.push_row(vec![Value::str(b), Value::Int(c)]).unwrap();
    }
    db.insert_table("e", e);
    db
}

fn strings(vars: &[&str]) -> Vec<String> {
    vars.iter().map(|v| v.to_string()).collect()
}

/// The same relation with its duplicate-free mark cleared.
fn unmarked(r: &CRel) -> CRel {
    CRel::new(r.cols().to_vec(), r.columns().to_vec(), r.len())
}

fn scan(db: &Database, q: &ConjunctiveQuery, a: u32) -> CRel {
    scan_query_atom_c(db, q, AtomId(a), &mut Budget::unlimited()).unwrap()
}

/// q-HD evaluation on one carrier, one thread.
fn evaluate(db: &Database, q: &ConjunctiveQuery, columnar: bool) -> (VRelation, u64) {
    let plan = q_hypertree_decomp(q, &QhdOptions::default(), &StructuralCost).unwrap();
    let opts = ExecOptions {
        columnar,
        threads: 1,
        ..ExecOptions::default()
    };
    let mut budget = Budget::unlimited();
    let out = evaluate_qhd_with(db, q, &plan, &mut budget, &opts).unwrap();
    (out, budget.charged())
}

#[test]
fn rowid_less_scan_keeps_its_duplicates_until_projected() {
    let db = db();
    let q = CqBuilder::new()
        .atom("d", "d", &[("a", "X"), ("b", "Y")])
        .out_var("X")
        .out_var("Y")
        .build();
    let s = scan(&db, &q, 0);
    assert_eq!(s.len(), 6);
    assert!(!s.is_duplicate_free());

    // P‴-shaped: a distinct projection onto every column, reordered.
    let mut budget = Budget::unlimited();
    let p = cops::project(&s, &strings(&["Y", "X"]), true, &mut budget).unwrap();
    assert_eq!(p.len(), 4);
    assert!(p.is_duplicate_free());
    // A bag projection keeping every column does not make a set.
    let bag = cops::project(&s, &strings(&["Y", "X"]), false, &mut budget).unwrap();
    assert_eq!(bag.len(), 6);
    assert!(!bag.is_duplicate_free());
    // `project_onto_available` dropping a column dedups too.
    let pa = cops::project_onto_available(&s, &strings(&["X", "W"]), &mut budget).unwrap();
    assert_eq!(pa.len(), 3);

    // Through the evaluator's P‴, on both carriers.
    for columnar in [true, false] {
        let (out, _) = evaluate(&db, &q, columnar);
        assert_eq!(out.len(), 4, "columnar={columnar}");
    }
}

#[test]
fn rowid_less_join_is_deduplicated_at_p3() {
    // d(X, Y) ⋈ e(Y, Z) onto (X, Z): the bag join has 10 rows, the set 4.
    let db = db();
    let q = CqBuilder::new()
        .atom("d", "d", &[("a", "X"), ("b", "Y")])
        .atom("e", "e", &[("b", "Y"), ("c", "Z")])
        .out_var("X")
        .out_var("Z")
        .build();
    let mut budget = Budget::unlimited();
    let j = cops::natural_join(&scan(&db, &q, 0), &scan(&db, &q, 1), &mut budget).unwrap();
    assert_eq!(j.len(), 10);
    assert!(!j.is_duplicate_free());
    let (rows, row_charges) = evaluate(&db, &q, false);
    let (cols, col_charges) = evaluate(&db, &q, true);
    assert_eq!(cols.len(), 4);
    assert!(cols.set_eq(&rows));
    assert_eq!(col_charges, row_charges);
}

#[test]
fn rowid_keyed_scans_and_joins_skip_dedup_with_identical_results_and_charges() {
    let db = db();
    let q = CqBuilder::new()
        .atom(
            "d",
            "d",
            &[("a", "X"), ("b", "Y"), (ROWID_COLUMN, "__rid_d")],
        )
        .atom(
            "e",
            "e",
            &[("b", "Y"), ("c", "Z"), (ROWID_COLUMN, "__rid_e")],
        )
        .out_var("X")
        .out_var("Z")
        .out_var("__rid_d")
        .out_var("__rid_e")
        .build();
    let (sd, se) = (scan(&db, &q, 0), scan(&db, &q, 1));
    assert!(sd.is_duplicate_free() && se.is_duplicate_free());
    let mut budget = Budget::unlimited();
    let join = cops::natural_join(&sd, &se, &mut budget).unwrap();
    let semi = cops::semijoin(&sd, &se, &mut budget).unwrap();
    assert!(join.is_duplicate_free() && semi.is_duplicate_free());
    // Mixed with a rowid-less side, a join proves nothing.
    let plain = CqBuilder::new()
        .atom("e", "e", &[("b", "Y"), ("c", "Z")])
        .build();
    let mixed = cops::natural_join(&sd, &scan(&db, &plain, 0), &mut budget).unwrap();
    assert!(!mixed.is_duplicate_free());
    // Dropping a column loses the mark (and dedups).
    let narrow = cops::project(&join, &strings(&["X", "Z"]), false, &mut budget).unwrap();
    assert!(!narrow.is_duplicate_free());

    for rel in [&sd, &join, &semi] {
        let mut vars = rel.cols().to_vec();
        vars.reverse();
        for distinct in [true, false] {
            let (mut fast_b, mut slow_b) = (Budget::unlimited(), Budget::unlimited());
            let fast = cops::project(rel, &vars, distinct, &mut fast_b).unwrap();
            let slow = cops::project(&unmarked(rel), &vars, distinct, &mut slow_b).unwrap();
            assert_eq!(fast.cols(), slow.cols());
            assert_eq!(fast.to_vrel().rows(), slow.to_vrel().rows());
            assert_eq!(fast_b.charged(), slow_b.charged());
            assert_eq!(fast_b.mem_used(), slow_b.mem_used());
            assert!(fast.is_duplicate_free());
        }
        // Keeping every column through `project_onto_available` keeps
        // the relation (and its mark) as is.
        let same = cops::project_onto_available(rel, &vars, &mut budget).unwrap();
        assert!(same.is_duplicate_free());
    }

    // End to end: the columnar P‴ skips, the row carrier always dedups;
    // the answers and charges agree.
    let (rows, row_charges) = evaluate(&db, &q, false);
    let (cols, col_charges) = evaluate(&db, &q, true);
    assert_eq!(cols.len(), join.len());
    assert!(cols.set_eq(&rows));
    assert_eq!(col_charges, row_charges);
}
