//! Acceptance harness for the execution-layer overhauls: measures
//!
//! 1. the row hash-join kernels (seed `key_of`-boxing and the in-place
//!    partitioned overhaul) against the **columnar** kernel on a
//!    100k × 100k skewed join, and
//! 2. the same join kernels under a byte cap of a quarter of their
//!    working set, so the build side must take the Grace-style
//!    spill-to-disk path (`HTQO_MEM_LIMIT` machinery), and
//! 3. multi-threaded vs single-threaded `evaluate_qhd` on a bushy query
//!    whose decomposition has three independent subtrees, on both the
//!    row and the columnar carrier, and
//! 4. factorized vs materialized `COUNT(*) GROUP BY` on a bag-semantics
//!    variant of the bushy query whose full join dwarfs its inputs: the
//!    factorized path multiplies per-vertex partial counts along the
//!    cover instead of enumerating every derivation, and
//! 5. the shape-canonical plan cache: cold planning (full cost-k-decomp)
//!    vs a shape hit (renamed-isomorphic template: canonicalize,
//!    transport, re-price) vs an exact hit, asserting the ≥10x hit
//!    speedup and bit-identical served plans under unchanged stats, and
//! 6. service throughput: one shared [`QueryService`] driven by 1/4/16
//!    concurrent sessions over a warm plan cache, and
//! 7. paged storage: warm restart vs cold ingest, index seek vs hash
//!    join, and
//! 8. WAL durability: logged-append overhead and recovery time, and
//! 9. a TPC-H Q1-shaped GROUP BY (one string key, seven aggregates):
//!    the columnar aggregation kernel (`finalize_c`) against the row
//!    aggregation (`finalize`), asserting bit-identical results,
//!
//! and writes the numbers to `results/kernels.md` plus a
//! machine-readable `BENCH_kernels.json` at the repo root.
//!
//! ```text
//! cargo run -p htqo-bench --release --bin kernels [-- --threads N]
//! ```
//!
//! `HTQO_KERNELS_ROWS` scales every input (default 100000 rows per join
//! side); CI smoke-runs the harness at a tiny scale.

use std::fmt::Write as _;
use std::time::Instant;

use htqo_core::{q_hypertree_decomp, QhdOptions, StructuralCost};
use htqo_cq::{AtomId, CqBuilder};
use htqo_engine::aggregate::{finalize, finalize_c};
use htqo_engine::cops;
use htqo_engine::crel::CRel;
use htqo_engine::error::{Budget, SpillMode};
use htqo_engine::exec;
use htqo_engine::ops::{natural_join, natural_join_seed};
use htqo_engine::relation::Relation;
use htqo_engine::scan::scan_query_atom;
use htqo_engine::schema::{ColumnType, Database, Schema};
use htqo_engine::value::Value;
use htqo_engine::vrel::VRelation;
use htqo_eval::{
    evaluate_qhd_with, evaluate_yannakakis_query_traced, ExecOptions, FactorizedTrace,
};
use htqo_optimizer::HybridOptimizer;
use htqo_service::{QueryService, ServiceConfig};
use htqo_storage::StorageDb;
use htqo_workloads::{acyclic_query, workload_db, WorkloadSpec};

const REPS: usize = 5;

fn best_of<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("REPS >= 1"))
}

fn main() {
    let max_threads = htqo_bench::harness::threads_from_args().max(4);
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sweep: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect();
    let scale = htqo_bench::harness::env_f64("HTQO_KERNELS_ROWS", 100_000.0) as usize;

    let mut report = String::new();
    // Machine-readable companion: kernel → variant → seconds.
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"rows_per_side\": {scale},\n  \"cpus\": {cpus},\n  \"threads_sweep\": {sweep:?},"
    );
    let _ = writeln!(report, "# Execution-layer kernel acceptance numbers\n");
    let _ = writeln!(
        report,
        "Machine: {cpus} CPU(s) visible to the process; thread sweep {sweep:?}; \
         {scale} rows per join side (`HTQO_KERNELS_ROWS`). \
         Wall-clock parallel speedup requires >1 CPU — on a single-CPU host every \
         parallel row in this file (multi-threaded join kernels, parallel q-HD \
         schedules, and the parallel decomposition search in `results/decomp.md`) \
         measures scheduling overhead only.\n"
    );

    // ---- 1. Hash-join kernels: row (seed + in-place) vs columnar. ----
    //
    // Two key domains: dense (output materialization dominates — where the
    // columnar gather pays off most) and selective (table build+probe
    // dominates, isolating the hashing difference).
    let _ = writeln!(json, "  \"join\": {{");
    for (di, (domain, tag)) in [
        ((scale / 2) as u64, "dense"),
        ((scale * 5) as u64, "selective"),
    ]
    .into_iter()
    .enumerate()
    {
        let db = workload_db(&WorkloadSpec::new(2, scale, domain, 7).with_zipf(0.5));
        let q = acyclic_query(2);
        let mut scan_budget = Budget::unlimited();
        let left: VRelation = scan_query_atom(&db, &q, AtomId(0), &mut scan_budget).unwrap();
        let right: VRelation = scan_query_atom(&db, &q, AtomId(1), &mut scan_budget).unwrap();
        let cleft = CRel::from_vrel(&left);
        let cright = CRel::from_vrel(&right);

        // Kernel 0 is the seed; kernels 1..=s are `natural_join` at
        // sweep[i] threads; kernels s+1.. are the columnar kernel at
        // sweep[i] threads. Measurement rounds are interleaved across
        // kernels so host-load drift biases no single row.
        let s = sweep.len();
        let nkernels = 1 + 2 * s;
        let run = |kernel: usize| -> usize {
            let mut b = Budget::unlimited();
            if kernel == 0 {
                natural_join_seed(&left, &right, &mut b).unwrap().len()
            } else if kernel <= s {
                exec::set_threads(sweep[kernel - 1]);
                natural_join(&left, &right, &mut b).unwrap().len()
            } else {
                exec::set_threads(sweep[kernel - 1 - s]);
                cops::natural_join(&cleft, &cright, &mut b).unwrap().len()
            }
        };

        // Warm up every code path (allocator, page cache) before timing.
        let expected = run(0);
        assert_eq!(run(nkernels - 1), expected, "columnar kernel disagrees");
        let mut best = vec![f64::INFINITY; nkernels];
        for _ in 0..REPS {
            for (k, slot) in best.iter_mut().enumerate() {
                let t = Instant::now();
                let r = run(k);
                *slot = slot.min(t.elapsed().as_secs_f64());
                assert_eq!(r, expected);
            }
        }

        let _ = writeln!(
            report,
            "## Hash join ({tag}), {scale} × {scale} rows, Zipf(0.5) keys over {domain} values\n"
        );
        let _ = writeln!(
            report,
            "Output: {expected} rows. Best of {REPS} interleaved rounds.\n"
        );
        let _ = writeln!(report, "| kernel | time | speedup vs seed |");
        let _ = writeln!(report, "|---|---|---|");
        let _ = writeln!(
            report,
            "| seed (`key_of` boxing) | {:.3}s | 1.00x |",
            best[0]
        );
        for (i, &t) in sweep.iter().enumerate() {
            let label = if t == 1 {
                "row, in-place, sequential".to_string()
            } else {
                format!("row, partitioned, {t} threads")
            };
            let _ = writeln!(
                report,
                "| {label} | {:.3}s | {:.2}x |",
                best[1 + i],
                best[0] / best[1 + i]
            );
        }
        for (i, &t) in sweep.iter().enumerate() {
            let label = if t == 1 {
                "columnar, sequential".to_string()
            } else {
                format!("columnar, partitioned, {t} threads")
            };
            let _ = writeln!(
                report,
                "| {label} | {:.3}s | {:.2}x |",
                best[1 + s + i],
                best[0] / best[1 + s + i]
            );
        }
        let _ = writeln!(report);

        let fmt_sweep = |offset: usize| {
            sweep
                .iter()
                .enumerate()
                .map(|(i, t)| format!("\"{t}\": {:.6}", best[offset + i]))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(
            json,
            "    \"{tag}\": {{ \"output_rows\": {expected}, \"seed_s\": {:.6}, \
             \"row_s\": {{ {} }}, \"columnar_s\": {{ {} }} }}{}",
            best[0],
            fmt_sweep(1),
            fmt_sweep(1 + s),
            if di == 0 { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }},");
    exec::set_threads(max_threads);

    // ---- 2. Constrained memory: in-memory vs Grace spill at a quarter
    // of the working set, both carriers. Sequential so the comparison
    // isolates the spill I/O cost, selective keys so the hash table (not
    // the output) is what blows the cap.
    exec::set_threads(1);
    {
        // Mostly disjoint keys: ~1% of the build side joins, so the hash
        // table — the spillable state — dwarfs the output (whose charges
        // are owed in both modes and cannot spill).
        let mut db = Database::new();
        for (name, off) in [("r", 0i64), ("s", 1i64)] {
            let mut t = Relation::new(Schema::new(&[
                ("l", ColumnType::Int),
                ("r", ColumnType::Int),
            ]));
            t.reserve(scale);
            for i in 0..scale as i64 {
                let key = i + off * (scale as i64 - (scale as i64 / 100).max(1));
                t.push_row(vec![Value::Int(key), Value::Int(key)]).unwrap();
            }
            db.insert_table(name, t);
        }
        let q = CqBuilder::new()
            .atom("r", "r", &[("l", "X"), ("r", "Y")])
            .atom("s", "s", &[("l", "Y"), ("r", "Z")])
            .build();
        let mut scan_budget = Budget::unlimited();
        let left: VRelation = scan_query_atom(&db, &q, AtomId(0), &mut scan_budget).unwrap();
        let right: VRelation = scan_query_atom(&db, &q, AtomId(1), &mut scan_budget).unwrap();
        let cleft = CRel::from_vrel(&left);
        let cright = CRel::from_vrel(&right);

        let _ = writeln!(
            report,
            "## Hash join under a memory cap (~1% matching keys, 1 thread)\n"
        );
        let _ = writeln!(
            report,
            "Working set = the smallest byte cap the in-memory path (spill \
             disabled) completes under, probed per kernel; the measured cap is \
             a quarter of it, forcing Grace-style partitioned spilling.\n"
        );
        let _ = writeln!(
            report,
            "| kernel | working set | in-memory | spilling at 1/4 cap | slowdown | \
             spilled bytes | partitions |"
        );
        let _ = writeln!(report, "|---|---|---|---|---|---|---|");
        let _ = writeln!(json, "  \"join_mem\": {{");
        for (ci, name) in ["row", "columnar"].into_iter().enumerate() {
            let run = |b: &mut Budget| -> Result<usize, htqo_engine::error::EvalError> {
                if ci == 0 {
                    natural_join(&left, &right, b).map(|r| r.len())
                } else {
                    cops::natural_join(&cleft, &cright, b).map(|r| r.len())
                }
            };
            // Peak in-memory charge, by geometric probe + binary search
            // (the budget's residual after a run is only the output; the
            // build table's transient charges are returned on completion).
            let fits = |limit: u64| {
                run(&mut Budget::unlimited()
                    .with_mem_limit(limit)
                    .with_spill_mode(SpillMode::Off))
                .is_ok()
            };
            let mut hi = 1u64 << 16;
            while !fits(hi) {
                hi <<= 1;
            }
            let mut lo = 0u64;
            while hi - lo > 1024 {
                let mid = lo + (hi - lo) / 2;
                if fits(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            let working_set = hi;
            let limit = (working_set / 4).max(1);

            let (mem_s, rows) = best_of(|| run(&mut Budget::unlimited()).unwrap());
            let mut spilled = 0u64;
            let mut parts = 0u64;
            let (spill_s, srows) = best_of(|| {
                let mut b = Budget::unlimited().with_mem_limit(limit);
                let n = run(&mut b).unwrap();
                spilled = b.spill_stats().bytes_written();
                parts = b.spill_stats().partitions();
                n
            });
            assert_eq!(rows, srows, "spilling changed the answer ({name})");
            assert!(spilled > 0, "cap of {limit} bytes did not trigger a spill");
            let _ = writeln!(
                report,
                "| {name} | {working_set} B | {mem_s:.3}s | {spill_s:.3}s | {:.2}x | \
                 {spilled} | {parts} |",
                spill_s / mem_s
            );
            let _ = writeln!(
                json,
                "    \"{name}\": {{ \"working_set_bytes\": {working_set}, \
                 \"limit_bytes\": {limit}, \"in_memory_s\": {mem_s:.6}, \
                 \"spill_s\": {spill_s:.6}, \"spill_bytes\": {spilled}, \
                 \"spill_partitions\": {parts} }}{}",
                if ci == 0 { "," } else { "" }
            );
        }
        let _ = writeln!(report);
        let _ = writeln!(json, "  }},");
    }
    exec::set_threads(max_threads);

    // ---- 3. Parallel q-hypertree evaluation, row vs columnar carrier. ----
    // hub(A,B,C) with three independent 3-atom chains hanging off A, B, C:
    // the decomposition's root has three independent subtrees.
    let (bdb, bq) = bushy_workload(scale * 3, (scale * 3 / 5) as u64, scale / 50);
    let plan = q_hypertree_decomp(&bq, &QhdOptions::default(), &StructuralCost).unwrap();

    // Warm-up pass.
    let r1 = {
        let mut b = Budget::unlimited();
        evaluate_qhd_with(
            &bdb,
            &bq,
            &plan,
            &mut b,
            &ExecOptions {
                threads: 1,
                columnar: true,
                ..ExecOptions::default()
            },
        )
        .unwrap()
    };

    let _ = writeln!(
        report,
        "## `evaluate_qhd`, bushy query (3 independent subtrees, {}-row chains)\n",
        scale * 3
    );
    let _ = writeln!(report, "Output: {} rows. Best of {REPS} runs.\n", r1.len());
    let _ = writeln!(report, "| schedule | row carrier | columnar carrier |");
    let _ = writeln!(report, "|---|---|---|");
    let _ = writeln!(json, "  \"qhd_bushy\": {{");
    let mut carrier_best = [f64::INFINITY; 2];
    for (ti, &t) in sweep.iter().enumerate() {
        let mut cells = Vec::new();
        let mut secs = [0.0f64; 2];
        for (ci, columnar) in [false, true].into_iter().enumerate() {
            let (dt, r) = best_of(|| {
                let mut b = Budget::unlimited();
                evaluate_qhd_with(
                    &bdb,
                    &bq,
                    &plan,
                    &mut b,
                    &ExecOptions {
                        threads: t,
                        columnar,
                        ..ExecOptions::default()
                    },
                )
                .unwrap()
            });
            assert!(r.set_eq(&r1), "schedule changed the answer");
            carrier_best[ci] = carrier_best[ci].min(dt);
            secs[ci] = dt;
            cells.push(format!("{dt:.3}s"));
        }
        let label = if t == 1 {
            "sequential (1 thread)".to_string()
        } else {
            format!("parallel ({t} threads)")
        };
        let _ = writeln!(report, "| {label} | {} |", cells.join(" | "));
        let _ = writeln!(
            json,
            "    \"{t}\": {{ \"row_s\": {:.6}, \"columnar_s\": {:.6} }}{}",
            secs[0],
            secs[1],
            if ti + 1 == sweep.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        report,
        "\nBest schedule: row {:.3}s, columnar {:.3}s ({:.2}x).\n",
        carrier_best[0],
        carrier_best[1],
        carrier_best[0] / carrier_best[1]
    );

    // ---- 4. Factorized aggregation vs materialized COUNT/GROUP-BY. ----
    // The same bushy shape, but every chain atom exports its hidden rowid
    // (bag semantics) and the chains are dense, so the full join has one
    // row per derivation. `COUNT(*) GROUP BY A` needs only the per-vertex
    // counts; the materialized pipeline must enumerate every derivation.
    // Evaluated on the Yannakakis join forest: the q-HD planner roots its
    // tree at an output-covering vertex, which with rowid guards on every
    // chain atom would put the whole join in the root's λ — the forest
    // has no such constraint, so the cover stays per-atom.
    // Fanout ~3 per chain step → ~27³ derivations per hub row: heavy
    // output from modest inputs.
    let (adb, aq) = bushy_count_workload(scale, (scale as u64 / 3).max(2), (scale / 1000).max(1));
    let run_agg = |factorized: bool| {
        let mut trace = FactorizedTrace::default();
        let mut b = Budget::unlimited();
        let r = evaluate_yannakakis_query_traced(
            &adb,
            &aq,
            &mut b,
            &ExecOptions {
                factorized,
                ..ExecOptions::default()
            },
            &mut trace,
        )
        .unwrap();
        (r, trace)
    };
    // Warm-up + sanity: the factorized attempt must actually take the
    // cover, and both paths must agree on every group count.
    let (magg, mtrace) = run_agg(false);
    let (fagg, ftrace) = run_agg(true);
    assert!(
        ftrace.factorized,
        "count query fell back to materialization: {:?}",
        ftrace.fallback
    );
    assert!(fagg.set_eq(&magg), "factorized aggregate disagrees");
    let derivations = mtrace.answer_rows.unwrap_or(0);
    let (mat_s, _) = best_of(|| run_agg(false));
    let (fac_s, _) = best_of(|| run_agg(true));

    let _ = writeln!(
        report,
        "## Factorized `COUNT(*) GROUP BY`, bushy query with rowid guards\n"
    );
    let _ = writeln!(
        report,
        "{derivations} derivations collapse into {} groups. Best of {REPS} runs.\n",
        magg.len()
    );
    let _ = writeln!(report, "| pipeline | time | speedup |");
    let _ = writeln!(report, "|---|---|---|");
    let _ = writeln!(
        report,
        "| materialized join + aggregate | {mat_s:.3}s | 1.00x |"
    );
    let _ = writeln!(
        report,
        "| factorized cover + pushed-down count | {fac_s:.3}s | {:.2}x |",
        mat_s / fac_s
    );
    let _ = writeln!(
        json,
        "  \"factorized\": {{ \"derivations\": {derivations}, \"groups\": {}, \
         \"materialized_s\": {mat_s:.6}, \"factorized_s\": {fac_s:.6}, \
         \"speedup\": {:.2} }},",
        magg.len(),
        mat_s / fac_s
    );

    // ---- 5. Plan cache: cold vs shape-hit vs exact-hit planning. ----
    // A 10-atom cyclic chain at k = 4: cost-k-decomp examines thousands
    // of separators cold, while a cache hit only canonicalizes ten
    // variables, transports the stored tree and re-prices its covers.
    // Variants rename every variable and alias (atom order unchanged, so
    // per-relation statistics line up edge-for-edge and the served plan
    // must be bit-identical to the cold one); no variant shares a
    // rendered query string, so alternating them defeats the exact-match
    // fast path and times the true revalidation hit.
    let n_atoms = 10usize;
    let pdb = workload_db(&WorkloadSpec::new(n_atoms, 64, 8, 13));
    let pstats = htqo_stats::analyze(&pdb);
    let cycle_variant = |tag: &str| {
        let mut b = CqBuilder::new();
        for i in 0..n_atoms {
            let l = format!("{tag}{i}");
            let r = format!("{tag}{}", (i + 1) % n_atoms);
            b = b.atom(
                &format!("q{tag}{i}"),
                &format!("p{i}"),
                &[("l", &l), ("r", &r)],
            );
        }
        b.out_var(&format!("{tag}0")).build()
    };
    let base = cycle_variant("v");
    let cold_s = {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let opt = HybridOptimizer::with_stats(QhdOptions::default(), pstats.clone());
            let t = Instant::now();
            let p = opt
                .plan_cq_cached(&base)
                .expect("cycle decomposes at k = 4");
            best = best.min(t.elapsed().as_secs_f64());
            std::hint::black_box(&p);
        }
        best
    };
    let warm = HybridOptimizer::with_stats(QhdOptions::default(), pstats.clone());
    let cold_plan = warm.plan_cq_cached(&base).expect("fills the cache");
    let exact_s = {
        let mut best = f64::INFINITY;
        for _ in 0..200 {
            let t = Instant::now();
            let p = warm.plan_cq_cached(&base).expect("exact hit");
            best = best.min(t.elapsed().as_secs_f64());
            std::hint::black_box(&p);
        }
        best
    };
    let (qa, qb) = (cycle_variant("w"), cycle_variant("x"));
    let shape_s = {
        let mut best = f64::INFINITY;
        for i in 0..200 {
            let q = if i % 2 == 0 { &qa } else { &qb };
            let t = Instant::now();
            let p = warm.plan_cq_cached(q).expect("shape hit");
            best = best.min(t.elapsed().as_secs_f64());
            std::hint::black_box(&p);
        }
        best
    };
    let pc = warm.plan_cache_stats();
    assert_eq!(pc.misses, 1, "every variant must land on one entry");
    assert_eq!(warm.cached_plans(), 1);
    // Bit-identity under unchanged statistics: the shape hit transports
    // the stored tree and prices it to exactly the stored cost, so the
    // served plan is the cold plan, bit for bit.
    let hit_plan = warm.plan_cq_cached(&qa).expect("shape hit");
    let bit_identical = format!("{:?}", hit_plan.tree) == format!("{:?}", cold_plan.tree)
        && hit_plan.estimated_cost == cold_plan.estimated_cost;
    assert!(
        bit_identical,
        "shape hit must serve the cold plan bit-identically"
    );
    assert!(
        cold_s / shape_s >= 10.0,
        "shape-hit planning must be >=10x faster than cold: cold {cold_s:.6}s, hit {shape_s:.6}s"
    );
    let _ = writeln!(report, "\n## Plan cache: cold vs shape-hit vs exact-hit\n");
    let _ = writeln!(
        report,
        "{n_atoms}-atom cyclic chain, k = 4, statistics cost model. Shape hits \
         serve renamed-isomorphic templates (bit-identical plan: {bit_identical}). \
         Best of {REPS} cold / 200 hit calls.\n"
    );
    let _ = writeln!(report, "| path | time | speedup vs cold |");
    let _ = writeln!(report, "|---|---|---|");
    let _ = writeln!(
        report,
        "| cold (cost-k-decomp) | {:.3}ms | 1.00x |",
        cold_s * 1e3
    );
    let _ = writeln!(
        report,
        "| shape hit (canonicalize + transport + re-price) | {:.3}ms | {:.1}x |",
        shape_s * 1e3,
        cold_s / shape_s
    );
    let _ = writeln!(
        report,
        "| exact hit (rendered-string match) | {:.3}ms | {:.1}x |",
        exact_s * 1e3,
        cold_s / exact_s
    );
    let _ = writeln!(
        json,
        "  \"plan_cache\": {{ \"atoms\": {n_atoms}, \"cold_s\": {cold_s:.6}, \
         \"shape_hit_s\": {shape_s:.6}, \"exact_hit_s\": {exact_s:.6}, \
         \"cold_over_shape\": {:.1}, \"cold_over_exact\": {:.1}, \
         \"bit_identical\": {bit_identical} }},",
        cold_s / shape_s,
        cold_s / exact_s
    );

    // ---- 6. Service throughput at 1/4/16 concurrent sessions. ----
    // Inter-query concurrency is the axis under test, so the engine's
    // intra-query pool is pinned to one thread; every session hammers the
    // same cyclic template through a shared (warm) plan cache.
    exec::set_threads(1);
    let service_rows = (scale / 1000).max(60);
    let per_session = 30usize;
    let mut service_qps: Vec<(usize, f64)> = Vec::new();
    for &sessions in &[1usize, 4, 16] {
        let sdb = workload_db(&WorkloadSpec::new(3, service_rows, 6, 9));
        let sstats = htqo_stats::analyze(&sdb);
        let svc = QueryService::new(
            sdb,
            HybridOptimizer::with_stats(QhdOptions::default(), sstats),
            ServiceConfig {
                max_in_flight: sessions + 1,
                ..ServiceConfig::default()
            },
        );
        const TEMPLATE: &str = "SELECT p0.l FROM p0, p1, p2 \
                                WHERE p0.r = p1.l AND p1.r = p2.l AND p2.r = p0.l";
        // Warm the plan cache so the sweep measures steady state.
        svc.session()
            .execute_sql(TEMPLATE)
            .expect("admitted")
            .result
            .expect("template runs clean");
        let t = Instant::now();
        let handles: Vec<_> = (0..sessions)
            .map(|_| {
                let session = svc.session();
                std::thread::spawn(move || {
                    for _ in 0..per_session {
                        session
                            .execute_sql(TEMPLATE)
                            .expect("admitted")
                            .result
                            .expect("template runs clean");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("session thread panicked");
        }
        let secs = t.elapsed().as_secs_f64();
        service_qps.push((sessions, (sessions * per_session) as f64 / secs));
    }
    let _ = writeln!(
        report,
        "\n## Service throughput (shared plan cache, 1 engine thread)\n"
    );
    let _ = writeln!(
        report,
        "{per_session} queries per session on the cyclic 3-atom template, \
         {service_rows} rows per relation.\n"
    );
    let _ = writeln!(report, "| concurrent sessions | queries/s |");
    let _ = writeln!(report, "|---|---|");
    for &(sessions, qps) in &service_qps {
        let _ = writeln!(report, "| {sessions} | {qps:.0} |");
    }
    let _ = writeln!(
        json,
        "  \"service\": {{ \"queries_per_session\": {per_session}, {} }},",
        service_qps
            .iter()
            .map(|(s, q)| format!("\"qps_{s}\": {q:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // ---- 7. Paged storage: warm restart vs cold CSV re-ingest, and
    // index-seek vs hash-build on a selective join. ----
    //
    // A large fact table with unique keys and a small probe (~1% of the
    // fact side): the hash path must scan and build over the whole fact
    // table to answer a join that touches ~1 row per probe, which is
    // exactly where a B-tree seek wins. The fact table is ingested into
    // the paged catalog with an index on its key column; the warm path
    // reloads pages and the pre-built index instead of re-parsing CSV.
    {
        let dir = std::env::temp_dir().join(format!("htqo-kernels-storage-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let fact_rows = scale;
        let probe_rows = (scale / 100).max(16);
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % m) as i64
        };
        let mut fact = Relation::new(Schema::new(&[
            ("k", ColumnType::Int),
            ("payload", ColumnType::Int),
        ]));
        fact.reserve(fact_rows);
        for i in 0..fact_rows as i64 {
            fact.push_row(vec![Value::Int(i), Value::Int(i * 7)])
                .unwrap();
        }
        let mut probe = Relation::new(Schema::new(&[
            ("k", ColumnType::Int),
            ("tag", ColumnType::Int),
        ]));
        probe.reserve(probe_rows);
        for i in 0..probe_rows as i64 {
            probe
                .push_row(vec![Value::Int(next(fact_rows as u64)), Value::Int(i)])
                .unwrap();
        }

        // Cold path: parse both tables from CSV (the pre-storage startup).
        let mut fact_csv = Vec::new();
        let mut probe_csv = Vec::new();
        htqo_engine::write_csv(&fact, &mut fact_csv).unwrap();
        htqo_engine::write_csv(&probe, &mut probe_csv).unwrap();
        let (cold_ingest_s, cold_rows) = best_of(|| {
            let f = htqo_engine::read_csv(&fact_csv[..]).unwrap();
            let p = htqo_engine::read_csv(&probe_csv[..]).unwrap();
            f.len() + p.len()
        });

        // Warm path: load heap pages + the persisted B-tree index.
        let storage = StorageDb::open(&dir).unwrap();
        storage.ingest("fact", &fact, &["k"]).unwrap();
        storage.ingest("probe", &probe, &[]).unwrap();
        let cache = 64 * 1024 * 1024;
        let (warm_restart_s, wdb) = best_of(|| storage.load_database(cache, None).unwrap());
        assert_eq!(
            wdb.tables().map(|(_, r)| r.len()).sum::<usize>(),
            cold_rows,
            "warm restart lost rows"
        );

        // The selective join, hash-build vs index-seek, on the warm db.
        let q = CqBuilder::new()
            .atom("probe", "probe", &[("k", "K"), ("tag", "T")])
            .atom("fact", "fact", &[("k", "K"), ("payload", "P")])
            .out_var("K")
            .out_var("T")
            .out_var("P")
            .build();
        let mut sb = Budget::unlimited();
        let acc: VRelation = scan_query_atom(&wdb, &q, AtomId(0), &mut sb).unwrap();
        let (hash_join_s, hash_rows) = best_of(|| {
            let mut b = Budget::unlimited();
            let fact_scan: VRelation = scan_query_atom(&wdb, &q, AtomId(1), &mut b).unwrap();
            natural_join(&acc, &fact_scan, &mut b).unwrap()
        });
        let (index_seek_s, seek_rows) = best_of(|| {
            let mut b = Budget::unlimited();
            htqo_engine::iseek::index_seek_join(&wdb, &q, AtomId(1), &acc, &mut b)
                .unwrap()
                .expect("fact.k is indexed")
        });
        let bit_identical = seek_rows.cols() == hash_rows.cols()
            && seek_rows.sorted_rows() == hash_rows.sorted_rows();
        assert!(
            bit_identical,
            "index-seek join disagrees with the hash oracle"
        );

        let _ = writeln!(
            report,
            "\n## Paged storage: warm restart and index-seek joins\n"
        );
        let _ = writeln!(
            report,
            "{fact_rows}-row fact table (unique keys, B-tree on `k`) and a \
             {probe_rows}-row probe. Warm restart loads slotted heap pages and the \
             persisted index through the buffer pool; cold start re-parses CSV. \
             Join output: {} rows, bit-identical across kernels: {bit_identical}.\n",
            hash_rows.len()
        );
        let _ = writeln!(report, "| path | time | speedup |");
        let _ = writeln!(report, "|---|---|---|");
        let _ = writeln!(
            report,
            "| cold start (CSV re-ingest) | {cold_ingest_s:.3}s | 1.00x |"
        );
        let _ = writeln!(
            report,
            "| warm restart (paged catalog) | {warm_restart_s:.3}s | {:.2}x |",
            cold_ingest_s / warm_restart_s
        );
        let _ = writeln!(report, "| hash build + probe | {hash_join_s:.3}s | 1.00x |");
        let _ = writeln!(
            report,
            "| index-seek join | {index_seek_s:.3}s | {:.2}x |",
            hash_join_s / index_seek_s
        );
        let _ = writeln!(
            json,
            "  \"storage\": {{ \"fact_rows\": {fact_rows}, \"probe_rows\": {probe_rows}, \
             \"cold_ingest_s\": {cold_ingest_s:.6}, \"warm_restart_s\": {warm_restart_s:.6}, \
             \"restart_speedup\": {:.2}, \"hash_join_s\": {hash_join_s:.6}, \
             \"index_seek_s\": {index_seek_s:.6}, \"seek_speedup\": {:.2}, \
             \"join_output_rows\": {}, \"bit_identical\": {bit_identical} }},",
            cold_ingest_s / warm_restart_s,
            hash_join_s / index_seek_s,
            hash_rows.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // ---- 8. WAL durability: logged-append overhead and recovery time. ----
    //
    // The same batch of small appends runs under `HTQO_WAL=off` (no
    // fsync, process-crash safe only) and the default `commit` policy
    // (fsync per batch, power-loss durable): the gap is the price of
    // durability. Then the commit-policy directory is "killed" with all
    // its batches un-checkpointed and the recovery pass (scan + redo +
    // GC) is timed — the crash-restart latency an operator would see.
    {
        let batches = htqo_bench::harness::env_f64("HTQO_WAL_BATCHES", 64.0) as usize;
        let rows_per_batch = 32usize;
        let mk_base = || {
            let mut rel = Relation::new(Schema::new(&[
                ("k", ColumnType::Int),
                ("payload", ColumnType::Int),
            ]));
            rel.push_row(vec![Value::Int(0), Value::Int(0)]).unwrap();
            rel
        };
        let run_appends = |policy: htqo_storage::WalPolicy,
                           label: &str|
         -> (f64, StorageDb, std::path::PathBuf) {
            let dir = std::env::temp_dir()
                .join(format!("htqo-kernels-wal-{label}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            // Huge checkpoint threshold: the whole run stays in the log,
            // so recovery below has real work to do.
            let storage = StorageDb::open_with(&dir, policy, u64::MAX).unwrap();
            storage.ingest("t", &mk_base(), &[]).unwrap();
            let t = Instant::now();
            for b in 0..batches {
                let rows: Vec<Vec<Value>> = (0..rows_per_batch)
                    .map(|i| vec![Value::Int((b * rows_per_batch + i) as i64), Value::Int(7)])
                    .collect();
                storage.append_rows("t", rows).unwrap();
            }
            (t.elapsed().as_secs_f64(), storage, dir)
        };
        let (off_s, _off_db, off_dir) = run_appends(htqo_storage::WalPolicy::Off, "off");
        std::fs::remove_dir_all(&off_dir).ok();
        let (commit_s, commit_db, commit_dir) =
            run_appends(htqo_storage::WalPolicy::Commit, "commit");

        // Crash with every batch still in the WAL, then time recovery.
        commit_db.simulate_crash();
        drop(commit_db);
        let wal_bytes = std::fs::metadata(commit_dir.join("db.wal"))
            .map(|m| m.len())
            .unwrap_or(0);
        let t = Instant::now();
        let cold =
            StorageDb::open_with(&commit_dir, htqo_storage::WalPolicy::Commit, u64::MAX).unwrap();
        let recovery = cold.recover().unwrap();
        let recovery_s = t.elapsed().as_secs_f64();
        let (rel, _) = cold.load_table("t", 64 * 1024 * 1024, None).unwrap();
        assert_eq!(
            rel.len(),
            1 + batches * rows_per_batch,
            "recovery lost committed appends"
        );
        std::fs::remove_dir_all(&commit_dir).ok();

        let total_rows = batches * rows_per_batch;
        let overhead_pct = if off_s > 0.0 {
            (commit_s - off_s) / off_s * 100.0
        } else {
            0.0
        };
        let _ = writeln!(report, "\n## WAL durability: logged appends and recovery\n");
        let _ = writeln!(
            report,
            "{batches} batches × {rows_per_batch} appended rows, whole run kept in \
             the log (no checkpoint). Recovery replays {} committed batches \
             ({} pages redone, {wal_bytes} WAL bytes) after a simulated kill.\n",
            recovery.batches_replayed, recovery.pages_redone
        );
        let _ = writeln!(report, "| policy | time | rows/s |");
        let _ = writeln!(report, "|---|---|---|");
        let _ = writeln!(
            report,
            "| HTQO_WAL=off (no fsync) | {off_s:.3}s | {:.0} |",
            total_rows as f64 / off_s
        );
        let _ = writeln!(
            report,
            "| HTQO_WAL=commit (fsync per batch) | {commit_s:.3}s | {:.0} ({overhead_pct:+.0}% vs off) |",
            total_rows as f64 / commit_s
        );
        let _ = writeln!(
            report,
            "| crash recovery (scan + redo + GC) | {recovery_s:.3}s | — |"
        );
        let _ = writeln!(
            json,
            "  \"wal\": {{ \"batches\": {batches}, \"rows_per_batch\": {rows_per_batch}, \
             \"off_s\": {off_s:.6}, \"commit_s\": {commit_s:.6}, \
             \"commit_overhead_pct\": {overhead_pct:.1}, \"wal_bytes\": {wal_bytes}, \
             \"recovery_s\": {recovery_s:.6}, \"batches_replayed\": {}, \
             \"pages_redone\": {} }},",
            recovery.batches_replayed, recovery.pages_redone
        );
    }

    // ---- 9. Q1-shaped GROUP BY: columnar kernel vs row aggregation. ----
    //
    // Three rows per `HTQO_KERNELS_ROWS` (≈ TPC-H Q1's 296k-row answer at
    // the default), three group keys, Int and Float arguments, one
    // arithmetic expression, COUNT(*) and a hidden rowid column. The row
    // side is timed on a pre-converted answer, so only aggregation counts.
    {
        let (answer, q) = q1_shaped_answer(3 * scale);
        let rows = answer.to_vrel();
        let (col_s, col_out) =
            best_of(|| finalize_c(&answer, &q, &mut Budget::unlimited()).unwrap());
        let (row_s, row_out) = best_of(|| finalize(&rows, &q, &mut Budget::unlimited()).unwrap());
        let bits = |r: &VRelation| -> Vec<Vec<u64>> {
            r.rows()
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|v| match v {
                            Value::Float(x) => x.to_bits(),
                            Value::Int(i) => *i as u64,
                            _ => 0,
                        })
                        .collect()
                })
                .collect()
        };
        let bit_identical = col_out == row_out && bits(&col_out) == bits(&row_out);
        assert!(
            bit_identical,
            "columnar aggregation disagrees with the row path"
        );
        let n = answer.len() as f64;
        let _ = writeln!(
            report,
            "\n## Q1-shaped GROUP BY (1 string key, 7 aggregates)\n\n\
             {} input rows, {} groups, bit-identical: {bit_identical}. Best of {REPS} runs.\n",
            answer.len(),
            col_out.len()
        );
        let _ = writeln!(report, "| aggregation | time | rows/s | speedup |");
        let _ = writeln!(report, "|---|---|---|---|");
        let _ = writeln!(
            report,
            "| row `finalize` | {row_s:.4}s | {:.0} | 1.00x |",
            n / row_s
        );
        let _ = writeln!(
            report,
            "| columnar `finalize_c` | {col_s:.4}s | {:.0} | {:.2}x |",
            n / col_s,
            row_s / col_s
        );
        let _ = writeln!(
            json,
            "  \"aggregate\": {{ \"rows\": {}, \"groups\": {}, \"aggregates\": 7, \
             \"row_s\": {row_s:.6}, \"columnar_s\": {col_s:.6}, \
             \"row_rows_per_s\": {:.0}, \"columnar_rows_per_s\": {:.0}, \
             \"speedup\": {:.2}, \"bit_identical\": {bit_identical} }},",
            answer.len(),
            col_out.len(),
            n / row_s,
            n / col_s,
            row_s / col_s
        );
    }

    let _ = writeln!(
        json,
        "  \"qhd_bushy_output_rows\": {},\n  \"qhd_best_row_s\": {:.6},\n  \
         \"qhd_best_columnar_s\": {:.6}\n}}",
        r1.len(),
        carrier_best[0],
        carrier_best[1]
    );

    print!("{report}");
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/kernels.md", &report).expect("write results/kernels.md");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    eprintln!("\nwrote results/kernels.md and BENCH_kernels.json");
}

const HUB_VARS: [&str; 3] = ["A", "B", "C"];

/// `hub(A,B,C)` plus one 3-atom chain per hub variable, with random keys
/// over `domain`. Deterministic LCG so the harness needs no RNG
/// dependency.
fn bushy_db(chain_rows: usize, domain: u64, hub_rows: usize) -> Database {
    let mut state = 0x9E37_79B9_97F4_A7C5u64;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % m) as i64
    };

    let mut db = Database::new();
    let mut hub = Relation::new(Schema::new(&[
        ("a", ColumnType::Int),
        ("b", ColumnType::Int),
        ("c", ColumnType::Int),
    ]));
    hub.reserve(hub_rows);
    for _ in 0..hub_rows {
        hub.push_row(vec![
            Value::Int(next(domain)),
            Value::Int(next(domain)),
            Value::Int(next(domain)),
        ])
        .unwrap();
    }
    db.insert_table("hub", hub);

    for i in 0..HUB_VARS.len() {
        for k in 0..3usize {
            let name = format!("c{i}{k}");
            let mut rel = Relation::new(Schema::new(&[
                ("l", ColumnType::Int),
                ("r", ColumnType::Int),
            ]));
            rel.reserve(chain_rows);
            for _ in 0..chain_rows {
                rel.push_row(vec![Value::Int(next(domain)), Value::Int(next(domain))])
                    .unwrap();
            }
            db.insert_table(&name, rel);
        }
    }
    db
}

/// The bushy query atoms: `hub(A,B,C)` and chains
/// `ci0(V, V1) ∧ ci1(V1, V2) ∧ ci2(V2, V3)` per hub variable `V`. With
/// `rowids`, every atom also exports its hidden rowid as an output
/// variable (exactly what the SQL isolator does for `COUNT(*)`), turning
/// the (set-semantics) answer into one row per derivation of the join —
/// SQL bag semantics.
fn bushy_atoms(rowids: bool) -> (CqBuilder, Vec<String>) {
    let mut rid_vars = Vec::new();
    let mut b = CqBuilder::new();
    if rowids {
        let rid = format!("{}hub", htqo_cq::isolator::ROWID_VAR_PREFIX);
        b = b.atom(
            "hub",
            "hub",
            &[
                ("a", "A"),
                ("b", "B"),
                ("c", "C"),
                (htqo_cq::isolator::ROWID_COLUMN, rid.as_str()),
            ],
        );
        rid_vars.push(rid);
    } else {
        b = b.atom("hub", "hub", &[("a", "A"), ("b", "B"), ("c", "C")]);
    }
    for (i, &v) in HUB_VARS.iter().enumerate() {
        for k in 0..3usize {
            let name = format!("c{i}{k}");
            let l = if k == 0 {
                v.to_string()
            } else {
                format!("{v}{k}")
            };
            let r = format!("{v}{}", k + 1);
            if rowids {
                let rid = format!("{}{name}", htqo_cq::isolator::ROWID_VAR_PREFIX);
                b = b.atom(
                    &name,
                    &name,
                    &[
                        ("l", l.as_str()),
                        ("r", r.as_str()),
                        (htqo_cq::isolator::ROWID_COLUMN, rid.as_str()),
                    ],
                );
                rid_vars.push(rid);
            } else {
                b = b.atom(&name, &name, &[("l", &l), ("r", &r)]);
            }
        }
    }
    (b, rid_vars)
}

/// `q(A,B,C) ← hub(A,B,C) ∧ chains` (set semantics).
fn bushy_workload(
    chain_rows: usize,
    domain: u64,
    hub_rows: usize,
) -> (Database, htqo_cq::ConjunctiveQuery) {
    let domain = domain.max(2);
    let db = bushy_db(chain_rows, domain, hub_rows.max(1));
    let (mut b, _) = bushy_atoms(false);
    for v in HUB_VARS {
        b = b.out_var(v);
    }
    (db, b.build())
}

/// `q(A, COUNT(*)) ← hub ∧ chains GROUP BY A` under bag semantics: the
/// hidden rowid guards make every derivation a distinct answer row for
/// the materialized pipeline, while the factorized path only multiplies
/// per-vertex counts.
fn bushy_count_workload(
    chain_rows: usize,
    domain: u64,
    hub_rows: usize,
) -> (Database, htqo_cq::ConjunctiveQuery) {
    let domain = domain.max(2);
    let db = bushy_db(chain_rows, domain, hub_rows.max(1));
    let (mut b, rid_vars) = bushy_atoms(true);
    b = b.out_var("A");
    for rid in &rid_vars {
        b = b.out_var(rid);
    }
    b = b.out_agg(htqo_cq::AggFunc::Count, None, "n").group("A");
    (db, b.build())
}

/// The answer TPC-H Q1 aggregates, as a columnar relation over
/// `(F, Q, P, D, __rid_l)` — return flag (3 values), Int quantity, Float
/// price and discount, rowid — plus Q1's GROUP BY with seven aggregates:
/// `sum(Q), sum(P), sum(P * (1 - D)), avg(Q), avg(P), avg(D), count(*)`.
fn q1_shaped_answer(rows: usize) -> (CRel, htqo_cq::ConjunctiveQuery) {
    use htqo_cq::{AggFunc, ArithOp, Literal, ScalarExpr};
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let flags = ["A", "N", "R"];
    let data: Vec<Box<[Value]>> = (0..rows)
        .map(|i| {
            let qty = 1 + next(50) as i64;
            let price = qty as f64 * (900.0 + next(100_000) as f64 / 100.0);
            vec![
                Value::str(flags[next(3) as usize]),
                Value::Int(qty),
                Value::Float(price),
                Value::Float(next(11) as f64 / 100.0),
                Value::Int(i as i64),
            ]
            .into_boxed_slice()
        })
        .collect();
    let cols = ["F", "Q", "P", "D", "__rid_l"];
    let answer = CRel::from_vrel(&VRelation::from_rows(
        cols.iter().map(|c| c.to_string()).collect(),
        data,
    ));
    let var = |v: &str| ScalarExpr::Var(v.into());
    let disc_price = ScalarExpr::Binary(
        Box::new(var("P")),
        ArithOp::Mul,
        Box::new(ScalarExpr::Binary(
            Box::new(ScalarExpr::Lit(Literal::Int(1))),
            ArithOp::Sub,
            Box::new(var("D")),
        )),
    );
    let q = CqBuilder::new()
        .atom_vars("lineitem", &cols)
        .out_var("F")
        .out_agg(AggFunc::Sum, Some(var("Q")), "sum_qty")
        .out_agg(AggFunc::Sum, Some(var("P")), "sum_base_price")
        .out_agg(AggFunc::Sum, Some(disc_price), "sum_disc_price")
        .out_agg(AggFunc::Avg, Some(var("Q")), "avg_qty")
        .out_agg(AggFunc::Avg, Some(var("P")), "avg_price")
        .out_agg(AggFunc::Avg, Some(var("D")), "avg_disc")
        .out_agg(AggFunc::Count, None, "count_order")
        .out_var("__rid_l")
        .group("F")
        .build();
    (answer, q)
}
