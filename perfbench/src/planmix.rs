//! `plan-mix`: two sessions, served in turn by one closed loop, over
//! twelve small binary relations held in memory. A seeded stream of cyclic chains, acyclic
//! lines and stars of 3–12 atoms, sent with random alias renaming and
//! atom permutation, in three kinds: prepared exact repeats, ad hoc
//! renamed isomorphs (plan-cache shape hits) and a minority of novel
//! chorded cycles (plan-cache misses, so cost-k-decomp runs).

use crate::queries::{self, Client, Request};
use crate::report::Report;
use crate::Args;
use htqo_workloads::synth::{workload_db, WorkloadSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;

pub const CLASSES: [&str; 3] = ["prepared", "isomorph", "novel"];

const RELATIONS: usize = 12;
const ROWS: usize = 60;
/// Distinct values per attribute: each join step keeps about
/// `ROWS / SELECTIVITY` = 1.5 partners per tuple, so answers stay small
/// and naive reference joins stay cheap even at twelve atoms.
const SELECTIVITY: u64 = 40;
/// Sessions. One loop serves them in turn: on the 2-CPU reference host a
/// thread per session would leave no CPU for anything else, and every
/// disturbance would show in the figures.
const CLIENTS: usize = 2;
/// The relations and the base pool's relation assignments are the same
/// for every seed, so each base query costs the same from run to run and
/// the latency distribution's median does not hop between shapes; the
/// seed draws the request stream: kinds, order, aliases, permutations
/// and the novel shapes.
const DATA_SEED: u64 = 0x5eed_0001;
/// The base shapes, fixed so that every seed gets the same mix of sizes
/// (the seed picks relations, aliases, orders and the stream).
const BASE_SHAPES: [(Kind, usize); 16] = [
    (Kind::Cycle, 3),
    (Kind::Cycle, 4),
    (Kind::Cycle, 6),
    (Kind::Cycle, 8),
    (Kind::Cycle, 10),
    (Kind::Cycle, 12),
    (Kind::Line, 3),
    (Kind::Line, 5),
    (Kind::Line, 8),
    (Kind::Line, 10),
    (Kind::Line, 12),
    (Kind::Star, 3),
    (Kind::Star, 5),
    (Kind::Star, 8),
    (Kind::Star, 10),
    (Kind::Star, 12),
];
/// Relation assignments per base shape.
const ASSIGNMENTS: usize = 3;
/// Per-mille shares of the request kinds (the rest are novel).
const PREPARED_PERMILLE: u32 = 450;
const ISOMORPH_PERMILLE: u32 = 450;

#[derive(Clone, Copy)]
enum Kind {
    Cycle,
    Line,
    Star,
}

/// A query shape over variables `X0…`: each atom joins two variables.
#[derive(Clone)]
struct Shape {
    /// `(l, r)` variable of each atom.
    atoms: Vec<(usize, usize)>,
    /// The output variables.
    out: Vec<usize>,
}

impl Shape {
    fn base(kind: Kind, n: usize) -> Shape {
        let atoms: Vec<(usize, usize)> = match kind {
            Kind::Cycle => (0..n).map(|i| (i, (i + 1) % n)).collect(),
            Kind::Line => (0..n).map(|i| (i, i + 1)).collect(),
            // A hub atom (X0, X1); satellites hang off X0 or X1 alternately.
            Kind::Star => std::iter::once((0, 1))
                .chain((1..n).map(|i| ((i + 1) % 2, i + 1)))
                .collect(),
        };
        let last = atoms.iter().map(|&(l, r)| l.max(r)).max().unwrap_or(0);
        Shape {
            atoms,
            out: vec![0, last.min(n / 2 + 1)],
        }
    }

    /// A cycle of `n` atoms plus `chords` atoms joining non-adjacent
    /// cycle variables; the output is the two variables of a random cycle
    /// atom, so it never forces a wider decomposition. Some 40 000 chord
    /// and output choices face a plan cache of 128 entries, so a novel
    /// query seldom finds its shape cached.
    fn chorded(n: usize, chords: usize, rng: &mut StdRng) -> Shape {
        let mut s = Shape::base(Kind::Cycle, n);
        while s.atoms.len() < n + chords {
            let i = rng.gen_range(0..n);
            let j = (i + 2 + rng.gen_range(0..n - 3)) % n;
            let chord = (i.min(j), i.max(j));
            if !s.atoms.contains(&chord) {
                s.atoms.push(chord);
            }
        }
        let i = rng.gen_range(0..n);
        s.out = vec![i, (i + 1) % n];
        s
    }

    /// SQL over relations `rels` (one per atom). `rename` draws fresh
    /// aliases and permutes the FROM list and the WHERE conjuncts; the
    /// answer is the same either way.
    fn sql(&self, rels: &[usize], rename: Option<&mut StdRng>) -> String {
        let n = self.atoms.len();
        let mut aliases: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
        let mut from: Vec<usize> = (0..n).collect();
        let mut rng = rename;
        if let Some(rng) = rng.as_deref_mut() {
            let letter = ["r", "s", "t", "u", "v", "w"][rng.gen_range(0..6usize)];
            let base = rng.gen_range(0..1000usize);
            let mut ids: Vec<usize> = (0..n).collect();
            ids.shuffle(rng);
            aliases = ids
                .iter()
                .map(|k| format!("{letter}{}", base + k))
                .collect();
            from.shuffle(rng);
        }
        // The first occurrence of each variable, as alias.column.
        let mut first: Vec<Option<String>> = vec![None; n + 2];
        let mut preds = Vec::new();
        for (i, &(l, r)) in self.atoms.iter().enumerate() {
            for (v, col) in [(l, "l"), (r, "r")] {
                let here = format!("{}.{col}", aliases[i]);
                match &first[v] {
                    Some(prev) => preds.push(format!("{prev} = {here}")),
                    None => first[v] = Some(here),
                }
            }
        }
        if let Some(rng) = rng {
            preds.shuffle(rng);
        }
        let outs: Vec<String> = self
            .out
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                let col = first[v].as_deref().expect("output variable occurs");
                format!("{col} AS x{k}")
            })
            .collect();
        let mut sql = format!("SELECT {} FROM ", outs.join(", "));
        for (k, &i) in from.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(sql, "{sep}p{} {}", rels[i], aliases[i]);
        }
        if !preds.is_empty() {
            let _ = write!(sql, " WHERE {}", preds.join(" AND "));
        }
        sql
    }
}

/// The seeded base pool every client draws from: shapes, and for each a
/// few relation assignments (distinct relations per query).
struct Pool {
    shapes: Vec<Shape>,
    rels: Vec<Vec<Vec<usize>>>,
}

impl Pool {
    fn new(seed: u64) -> Pool {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9a11_3b1c);
        let mut shapes = Vec::new();
        let mut rels = Vec::new();
        for &(kind, n) in &BASE_SHAPES {
            let shape = Shape::base(kind, n);
            rels.push(
                (0..ASSIGNMENTS)
                    .map(|_| assignment(shape.atoms.len(), &mut rng))
                    .collect(),
            );
            shapes.push(shape);
        }
        Pool { shapes, rels }
    }

    fn key(s: usize, a: usize) -> u64 {
        (s * ASSIGNMENTS + a) as u64
    }

    fn oracle_sql(&self, s: usize, a: usize) -> Arc<str> {
        self.shapes[s].sql(&self.rels[s][a], None).into()
    }
}

fn assignment(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut all: Vec<usize> = (0..RELATIONS).collect();
    all.shuffle(rng);
    all.truncate(n);
    all
}

struct MixClient {
    id: usize,
    rng: StdRng,
    pool: Arc<Pool>,
    /// `(shape, assignment, text)` of each prepared statement: one per
    /// base shape, with a seeded assignment and renaming.
    prepared: Vec<(usize, usize, String)>,
    novel: u64,
}

impl MixClient {
    fn new(id: usize, seed: u64, pool: Arc<Pool>) -> Self {
        let rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(id as u64 + 1));
        // Prepared texts keep the base atom order: they are a large share
        // of the traffic, and a permutation fixed for a whole run would
        // tie that share's cost to the seed.
        let prepared = (0..BASE_SHAPES.len())
            .map(|s| {
                let a = (s + id) % ASSIGNMENTS;
                (s, a, pool.shapes[s].sql(&pool.rels[s][a], None))
            })
            .collect();
        MixClient {
            id,
            rng,
            pool,
            prepared,
            novel: 0,
        }
    }
}

impl Client for MixClient {
    fn prepared(&self) -> Vec<String> {
        self.prepared
            .iter()
            .map(|(_, _, sql)| sql.clone())
            .collect()
    }

    fn next_request(&mut self) -> Request {
        let roll: u32 = self.rng.gen_range(0..1000);
        if roll < PREPARED_PERMILLE {
            let i = self.rng.gen_range(0..self.prepared.len());
            let (s, a, ref sql) = self.prepared[i];
            Request {
                key: Pool::key(s, a),
                class: 0,
                sql: sql.clone(),
                oracle_sql: self.pool.oracle_sql(s, a),
                prepared: Some(i),
            }
        } else if roll < PREPARED_PERMILLE + ISOMORPH_PERMILLE {
            let s = self.rng.gen_range(0..BASE_SHAPES.len());
            let a = self.rng.gen_range(0..ASSIGNMENTS);
            let sql = self.pool.shapes[s].sql(&self.pool.rels[s][a], Some(&mut self.rng));
            Request {
                key: Pool::key(s, a),
                class: 1,
                sql,
                oracle_sql: self.pool.oracle_sql(s, a),
                prepared: None,
            }
        } else {
            let n = self.rng.gen_range(8..=9usize);
            let chords = self.rng.gen_range(2..=3usize);
            let shape = Shape::chorded(n, chords, &mut self.rng);
            let rels = assignment(shape.atoms.len(), &mut self.rng);
            let sql = shape.sql(&rels, Some(&mut self.rng));
            self.novel += 1;
            Request {
                key: ((self.id as u64 + 1) << 32) | self.novel,
                class: 2,
                sql,
                oracle_sql: shape.sql(&rels, None).into(),
                prepared: None,
            }
        }
    }
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let spec = WorkloadSpec::new(RELATIONS, ROWS, SELECTIVITY, DATA_SEED);
    report.config("relations", RELATIONS);
    report.config("rows_per_relation", ROWS);
    report.config("selectivity", SELECTIVITY);
    report.config("clients", CLIENTS);
    let pool = Arc::new(Pool::new(DATA_SEED));
    queries::run_workload(
        args,
        report,
        "plan-mix",
        &CLASSES,
        || Ok(queries::serve_in_memory(workload_db(&spec))),
        (0..CLIENTS)
            .map(|id| Box::new(MixClient::new(id, args.seed, Arc::clone(&pool))) as Box<dyn Client>)
            .collect(),
        40,
        || workload_db(&spec),
    )
}
