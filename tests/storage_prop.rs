//! Property tests for the paged storage layer.
//!
//! Two families:
//!
//! 1. **Buffer-pool invariants** against a reference model: every pin
//!    observes the latest written content (so eviction, write-back, and
//!    snapshot publication never alias or lose a page), pinned pages
//!    survive arbitrary pressure, the `Budget` byte charge equals
//!    `resident × PAGE_SIZE` after every operation and returns to zero
//!    on drop, a dirty page is written back at most once per dirty
//!    period, and every update is durable after the pool goes away.
//!
//! 2. **Index-seek ≡ hash-join oracle**: on random relations persisted
//!    through the paged catalog (B-tree indexes read back through the
//!    buffer pool at a *random, often tiny, page-cache limit*), the
//!    index-nested-loop join must produce bit-identical rows to the
//!    scan-and-hash oracle on both carriers, with identical tuple
//!    charges — and a full `evaluate_qhd` run with `index_join` on must
//!    match the classic path for every carrier × thread-count
//!    combination.
//!
//! 3. **Slot directory ≡ page scan**: random interleavings of accepted
//!    and rejected mutation batches, checkpoints, re-ingests, and
//!    crash + recovery, after each of which `load_table` must equal a
//!    slot-level reference model row for row and every rowid's
//!    `StorageDb::locate` must agree with a from-scratch page scan.

use htqo::prelude::*;
use htqo_cq::{AtomId, CqBuilder};
use htqo_engine::schema::{ColumnType, Schema};
use htqo_engine::{iseek, ops, scan, MemIndex};
use htqo_eval::{evaluate_qhd_with, ExecOptions};
use htqo_storage::page::MAX_CELL;
use htqo_storage::{MutationBatch, StorageDb, WalPolicy, PAGE_DATA, PAGE_SIZE};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A unique scratch directory per proptest case (cases run concurrently
/// across test threads; the counter keeps them disjoint).
fn scratch(label: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "htqo-storage-prop-{}-{label}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

// ---------------------------------------------------------------------
// 1. Buffer-pool model
// ---------------------------------------------------------------------

const FILE_PAGES: u64 = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random pin/update traffic at a random (small) capacity, with a
    /// rolling window of held pins, checked against a byte-per-page
    /// model.
    #[test]
    fn buffer_pool_matches_reference_model(
        ops in prop::collection::vec((0u64..FILE_PAGES, any::<bool>()), 1..80),
        cap_pages in 1usize..6,
    ) {
        let dir = scratch("pool");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pages");
        let mut file = htqo_storage::PageFile::create(&path).unwrap();
        for pid in 0..FILE_PAGES {
            file.append(&vec![pid as u8; PAGE_SIZE]).unwrap();
        }
        file.sync().unwrap();

        let mut master = Budget::unlimited().with_mem_limit(1 << 30);
        let _ = master.fork(); // promote to shared counters
        let observer = master.fork();
        let pool = htqo_storage::BufferPool::new(
            file,
            (cap_pages * PAGE_SIZE) as u64,
            Some(master),
        );

        // Model: pid → the byte every cell of that page must hold.
        let mut model: Vec<u8> = (0..FILE_PAGES).map(|p| p as u8).collect();
        let mut held: std::collections::VecDeque<htqo_storage::PagePin> =
            std::collections::VecDeque::new();
        let mut updates = 0u64;
        for (pid, write) in ops {
            if write {
                let tag = model[pid as usize].wrapping_add(1);
                pool.update(pid, |d| d.fill(tag)).unwrap();
                model[pid as usize] = tag;
                updates += 1;
            }
            let pin = pool.pin(pid).unwrap();
            // Only the data region carries content — the trailer holds
            // the pager's checksum stamp.
            prop_assert!(
                pin[..PAGE_DATA].iter().all(|&b| b == model[pid as usize]),
                "page {pid} content drifted from the model"
            );
            held.push_back(pin);
            // Keep strictly fewer pins than frames so eviction always has
            // a victim (the all-pinned error path has its own unit test).
            while held.len() >= cap_pages {
                held.pop_front();
            }
            let st = pool.stats();
            prop_assert!(st.resident <= cap_pages);
            prop_assert_eq!(
                observer.mem_used(),
                st.resident as u64 * PAGE_SIZE as u64,
                "budget charge must equal resident frames × PAGE_SIZE"
            );
        }
        drop(held);

        // Dirty pages are written at most once per dirty period: every
        // write-back (evict or flush) is justified by an update.
        pool.flush().unwrap();
        let st = pool.stats();
        prop_assert!(
            st.flushes <= updates,
            "{} flushes for {} updates",
            st.flushes,
            updates
        );
        // Flushing again writes nothing.
        pool.flush().unwrap();
        prop_assert_eq!(pool.stats().flushes, st.flushes);

        drop(pool);
        prop_assert_eq!(observer.mem_used(), 0, "drop returns every byte");

        // Durability: every model byte survives in the file.
        let mut file = htqo_storage::PageFile::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        for pid in 0..FILE_PAGES {
            file.read(pid, &mut buf).unwrap();
            prop_assert!(buf[..PAGE_DATA].iter().all(|&b| b == model[pid as usize]));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flipping any single bit of any page's data region on disk turns
    /// the next read of that page into a typed `CorruptPage` error —
    /// never silently decoded rows.
    #[test]
    fn bit_flip_on_disk_is_caught_by_the_page_checksum(
        pid in 0u64..4,
        byte in 0usize..PAGE_DATA,
        bit in 0u8..8,
    ) {
        use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
        let dir = scratch("flip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pages");
        let mut file = htqo_storage::PageFile::create(&path).unwrap();
        for p in 0..4u64 {
            file.append(&vec![p as u8; PAGE_SIZE]).unwrap();
        }
        file.sync().unwrap();
        drop(file);

        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let off = pid * PAGE_SIZE as u64 + byte as u64;
        let mut b = [0u8; 1];
        f.seek(SeekFrom::Start(off)).unwrap();
        f.read_exact(&mut b).unwrap();
        b[0] ^= 1 << bit;
        f.seek(SeekFrom::Start(off)).unwrap();
        f.write_all(&b).unwrap();
        drop(f);

        let mut file = htqo_storage::PageFile::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        let err = file.read(pid, &mut buf).unwrap_err();
        prop_assert!(
            matches!(err, htqo_engine::EvalError::CorruptPage { pid: p, .. } if p == pid),
            "expected CorruptPage for page {pid}, got {err:?}"
        );
        // Untouched pages still read fine.
        let other = (pid + 1) % 4;
        prop_assert!(file.read(other, &mut buf).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// 2. Index-seek ≡ hash-join oracle
// ---------------------------------------------------------------------

/// Random fact/probe pair: integer keys over a small domain, with
/// occasional NULL keys (the seek must match NULLs exactly like the hash
/// join's join-key semantics).
#[derive(Debug, Clone)]
struct JoinCase {
    fact_keys: Vec<Option<i64>>,
    probe_keys: Vec<Option<i64>>,
    /// Page-cache budget in pages — often 1, so B-tree descents and heap
    /// reads constantly evict each other.
    cache_pages: u64,
}

fn arb_key() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![
        9 => (0i64..12).prop_map(Some),
        1 => Just(None),
    ]
}

fn arb_join_case() -> impl Strategy<Value = JoinCase> {
    (
        prop::collection::vec(arb_key(), 1..120),
        prop::collection::vec(arb_key(), 1..40),
        1u64..16,
    )
        .prop_map(|(fact_keys, probe_keys, cache_pages)| JoinCase {
            fact_keys,
            probe_keys,
            cache_pages,
        })
}

fn rel_from_keys(keys: &[Option<i64>]) -> Relation {
    let mut rel = Relation::new(Schema::new(&[
        ("k", ColumnType::Int),
        ("p", ColumnType::Int),
    ]));
    for (i, k) in keys.iter().enumerate() {
        let kv = k.map(Value::Int).unwrap_or(Value::Null);
        rel.push_row(vec![kv, Value::Int(i as i64)]).unwrap();
    }
    rel
}

fn probe_query() -> ConjunctiveQuery {
    CqBuilder::new()
        .atom("probe", "probe", &[("k", "K"), ("p", "T")])
        .atom("fact", "fact", &[("k", "K"), ("p", "P")])
        .out_var("K")
        .out_var("T")
        .out_var("P")
        .build()
}

/// Guard against vacuous properties: on a decisively selective vertex
/// (tiny probe, large indexed fact) the evaluator must actually *take*
/// the seek path, and it must charge strictly fewer tuples than the
/// scan-and-hash path (it never materializes the scanned atom).
#[test]
fn evaluator_takes_the_seek_path_when_profitable() {
    let dir = scratch("nonvacuous");
    let storage = StorageDb::open(&dir).unwrap();
    let fact_keys: Vec<Option<i64>> = (0..4000).map(|i| Some(i % 97)).collect();
    let probe_keys: Vec<Option<i64>> = (0..5).map(|i| Some(i * 7)).collect();
    storage
        .ingest("fact", &rel_from_keys(&fact_keys), &["k"])
        .unwrap();
    storage
        .ingest("probe", &rel_from_keys(&probe_keys), &[])
        .unwrap();
    let db = storage.load_database(64 * PAGE_SIZE as u64, None).unwrap();
    let q = probe_query();
    let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();
    let run = |index_join: bool| {
        let mut b = Budget::unlimited();
        let r = evaluate_qhd_with(
            &db,
            &q,
            &plan,
            &mut b,
            &ExecOptions {
                threads: 1,
                index_join,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        (r, b.charged(), b.join_stats().index_seeks())
    };
    let (classic, classic_charge, classic_seeks) = run(false);
    let (seek, seek_charge, seeks) = run(true);
    assert_eq!(classic_seeks, 0);
    assert!(seeks > 0, "the seek kernel never fired");
    assert!(seek.set_eq(&classic));
    assert!(
        seek_charge < classic_charge,
        "seek ({seek_charge}) must charge fewer tuples than scan+hash ({classic_charge})"
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The persisted B-tree seek join equals the hash oracle and the
    /// in-memory `MemIndex` seek join, on both carriers, with identical
    /// tuple charges, at a random page-cache limit.
    #[test]
    fn paged_seek_join_equals_hash_oracle(case in arb_join_case()) {
        let dir = scratch("seek");
        let fact = rel_from_keys(&case.fact_keys);
        let probe = rel_from_keys(&case.probe_keys);
        let storage = StorageDb::open(&dir).unwrap();
        storage.ingest("fact", &fact, &["k"]).unwrap();
        storage.ingest("probe", &probe, &[]).unwrap();
        let paged = storage
            .load_database(case.cache_pages * PAGE_SIZE as u64, None)
            .unwrap();
        prop_assert!(paged.has_indexes());

        let q = probe_query();
        let mut ob = Budget::unlimited();
        let acc = scan::scan_query_atom(&paged, &q, AtomId(0), &mut ob).unwrap();
        let oracle = {
            let scanned = scan::scan_query_atom(&paged, &q, AtomId(1), &mut ob).unwrap();
            ops::natural_join(&acc, &scanned, &mut ob).unwrap()
        };

        let mut br = Budget::unlimited();
        let seek = iseek::index_seek_join(&paged, &q, AtomId(1), &acc, &mut br)
            .unwrap()
            .expect("fact.k is indexed");
        prop_assert_eq!(seek.cols(), oracle.cols());
        prop_assert_eq!(seek.sorted_rows(), oracle.sorted_rows());

        let mut bc = Budget::unlimited();
        let acc_c = scan::scan_query_atom_c(&paged, &q, AtomId(0), &mut bc).unwrap();
        let before_c = bc.charged();
        let seek_c = iseek::index_seek_join_c(&paged, &q, AtomId(1), &acc_c, &mut bc)
            .unwrap()
            .expect("fact.k is indexed");
        prop_assert_eq!(seek_c.to_vrel().sorted_rows(), oracle.sorted_rows());
        prop_assert_eq!(
            bc.charged() - before_c,
            br.charged(),
            "carrier tuple-charge parity"
        );

        // The paged B-tree agrees with an in-memory hash index seek.
        let mut mem_db = Database::new();
        mem_db.insert_table("fact", fact);
        mem_db.insert_table("probe", probe);
        let idx = MemIndex::build(mem_db.table("fact").unwrap(), 0);
        mem_db.register_index("fact", "k", Arc::new(idx));
        let mut bm = Budget::unlimited();
        let mem_seek = iseek::index_seek_join(&mem_db, &q, AtomId(1), &acc, &mut bm)
            .unwrap()
            .unwrap();
        prop_assert_eq!(mem_seek.sorted_rows(), seek.sorted_rows());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end `evaluate_qhd` on a triangle whose decomposition packs
    /// two atoms into one vertex: with indexes loaded from disk,
    /// `index_join` on must match `index_join` off for every carrier ×
    /// thread-count combination (the answer and the tuple charges are
    /// schedule- and carrier-independent within each mode).
    #[test]
    fn qhd_with_index_join_matches_classic_path(
        case in arb_join_case(),
        threads_idx in 0usize..3,
    ) {
        let threads = [1usize, 2, 4][threads_idx];
        let dir = scratch("qhd");
        let storage = StorageDb::open(&dir).unwrap();
        for name in ["t0", "t1", "t2"] {
            // Reuse the fact keys for all three relations (rotated) so the
            // triangle has matches without a separate generator.
            let rel = rel_from_keys(&case.fact_keys);
            storage.ingest(name, &rel, &["k", "p"]).unwrap();
        }
        let db = storage
            .load_database(case.cache_pages * PAGE_SIZE as u64, None)
            .unwrap();
        let q = CqBuilder::new()
            .atom("t0", "t0", &[("k", "X"), ("p", "Y")])
            .atom("t1", "t1", &[("k", "Y"), ("p", "Z")])
            .atom("t2", "t2", &[("k", "Z"), ("p", "X")])
            .out_var("X")
            .out_var("Y")
            .build();
        let plan = q_hypertree_decomp(&q, &QhdOptions::default(), &StructuralCost).unwrap();

        let run = |columnar: bool, index_join: bool, threads: usize| {
            let mut b = Budget::unlimited();
            let r = evaluate_qhd_with(&db, &q, &plan, &mut b, &ExecOptions {
                threads,
                columnar,
                index_join,
                ..ExecOptions::default()
            })
            .unwrap();
            (r, b.charged())
        };
        let (classic, classic_charge) = run(false, false, 1);
        let mut seek_charge = None;
        for columnar in [false, true] {
            for t in [1usize, threads] {
                let (seek, charged) = run(columnar, true, t);
                prop_assert!(
                    seek.set_eq(&classic),
                    "index_join answer drifted (columnar={columnar}, threads={t})"
                );
                match seek_charge {
                    None => seek_charge = Some(charged),
                    Some(c) => prop_assert_eq!(
                        charged, c,
                        "seek charges must be carrier- and schedule-independent"
                    ),
                }
                let (classic2, c2) = run(columnar, false, t);
                prop_assert!(classic2.set_eq(&classic));
                prop_assert_eq!(c2, classic_charge);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// 3. Slot directory ≡ page scan
// ---------------------------------------------------------------------

/// One step of a slot-directory case. Rowid choices are raw picks,
/// resolved against the model's state when the step runs.
#[derive(Clone, Debug)]
enum SlotStep {
    /// An accepted batch: `appends` rows padded to `pad` bytes (enough
    /// to fill the last page and open fresh ones), then updates and
    /// deletes of live rowids.
    Batch {
        appends: usize,
        pad: usize,
        updates: Vec<u64>,
        deletes: Vec<u64>,
    },
    /// A batch of valid appends and one update, then one bad op; the
    /// whole batch must be rejected.
    Rejected {
        appends: usize,
        bad: Bad,
        pick: u64,
    },
    Checkpoint,
    /// Re-ingest the model's live rows, with or without an index.
    Reingest {
        indexed: bool,
    },
    /// Kill and recover, on the same handle or a fresh one.
    CrashRecover {
        fresh_handle: bool,
    },
}

#[derive(Clone, Copy, Debug)]
enum Bad {
    OutOfRange,
    Deleted,
    Arity,
    Type,
    /// An update whose cell can never share its page with another slot.
    TooBig,
}

fn arb_slot_step() -> impl Strategy<Value = SlotStep> {
    prop_oneof![
        8 => (
            0usize..80,
            0usize..400,
            prop::collection::vec(any::<u64>(), 0..6),
            prop::collection::vec(any::<u64>(), 0..6),
        )
            .prop_map(|(appends, pad, updates, deletes)| SlotStep::Batch {
                appends,
                pad,
                updates,
                deletes,
            }),
        4 => (0usize..8, 0u8..5, any::<u64>()).prop_map(|(appends, bad, pick)| {
            let bad = [Bad::OutOfRange, Bad::Deleted, Bad::Arity, Bad::Type, Bad::TooBig]
                [bad as usize];
            SlotStep::Rejected { appends, bad, pick }
        }),
        1 => Just(SlotStep::Checkpoint),
        1 => any::<bool>().prop_map(|indexed| SlotStep::Reingest { indexed }),
        1 => any::<bool>().prop_map(|fresh_handle| SlotStep::CrashRecover { fresh_handle }),
    ]
}

fn slot_row(k: i64, pad: usize) -> Vec<Value> {
    vec![Value::Int(k), Value::str(&"x".repeat(pad))]
}

/// Physical slots — `None` is a tombstone; rowids are positions.
struct SlotModel {
    slots: Vec<Option<Vec<Value>>>,
}

impl SlotModel {
    fn live(&self) -> Vec<u64> {
        (0..self.slots.len() as u64)
            .filter(|&r| self.slots[r as usize].is_some())
            .collect()
    }

    fn relation(&self) -> Relation {
        let mut rel = Relation::new(Schema::new(&[
            ("k", ColumnType::Int),
            ("pad", ColumnType::Str),
        ]));
        for row in self.slots.iter().flatten() {
            rel.push_row(row.clone()).unwrap();
        }
        rel
    }
}

/// One rowid per pick, each removed from `from` so none repeats (fewer
/// once `from` runs dry).
fn pick_distinct(from: &mut Vec<u64>, picks: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    for &p in picks {
        if from.is_empty() {
            break;
        }
        out.push(from.swap_remove((p % from.len() as u64) as usize));
    }
    out
}

/// Checks storage against the model: rows via `load_table`, and every
/// rowid's `locate` (plus a few past the end) against a page scan.
fn check_slots(storage: &StorageDb, model: &SlotModel, cache: u64) -> Result<(), TestCaseError> {
    let (rel, _) = storage.load_table("t", cache, None).unwrap();
    let want = model.relation();
    prop_assert_eq!(
        rel.to_rows(),
        want.to_rows(),
        "load_table drifted from the model"
    );
    let mut by_scan = Vec::new();
    for (pid, cells) in storage.scan_slots("t").unwrap() {
        by_scan.extend((0..cells).map(|slot| (pid, slot)));
    }
    prop_assert_eq!(by_scan.len(), model.slots.len(), "slot count drifted");
    for rowid in 0..by_scan.len() as u64 + 3 {
        let got = storage.locate("t", rowid).unwrap();
        prop_assert_eq!(
            got,
            by_scan.get(rowid as usize).copied(),
            "locate({}) disagrees with the page scan",
            rowid
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incrementally maintained slot directory never goes stale:
    /// across accepted and rejected batches, checkpoints, re-ingests,
    /// and crash + recovery, `apply` addresses exactly the slots a page
    /// scan finds.
    #[test]
    fn slot_directory_matches_page_scan(
        init in (1usize..300, 0usize..200, any::<bool>()),
        steps in prop::collection::vec(arb_slot_step(), 1..24),
        policy in 0u8..3,
        small_checkpoint in any::<bool>(),
        cache_pages in 1u64..6,
    ) {
        let dir = scratch("slots");
        let policy = [WalPolicy::Off, WalPolicy::Batch, WalPolicy::Commit][policy as usize];
        let ckpt = if small_checkpoint { 256 * 1024 } else { u64::MAX };
        let cache = cache_pages * PAGE_SIZE as u64;
        let mut storage = StorageDb::open_with(&dir, policy, ckpt).unwrap();
        let (rows, pad, indexed) = init;
        let mut model = SlotModel {
            slots: (0..rows as i64).map(|k| Some(slot_row(k, pad))).collect(),
        };
        let mut next_k = rows as i64;
        let index: &[&str] = if indexed { &["k"] } else { &[] };
        storage.ingest("t", &model.relation(), index).unwrap();
        check_slots(&storage, &model, cache)?;

        for step in steps {
            match step {
                SlotStep::Batch { appends, pad, updates, deletes } => {
                    let mut batch = MutationBatch::new("t");
                    let mut live = model.live();
                    let updated = pick_distinct(&mut live, &updates);
                    let deleted = pick_distinct(&mut live, &deletes);
                    for &r in &updated {
                        // Never larger than the row it replaces, so an
                        // accepted update always fits its page.
                        let old_pad = match &model.slots[r as usize].as_ref().unwrap()[1] {
                            Value::Str(s) => s.len(),
                            v => unreachable!("pad column holds {v:?}"),
                        };
                        let row = slot_row(next_k, old_pad.min(pad / 4));
                        next_k += 1;
                        batch.update(r, row.clone());
                        model.slots[r as usize] = Some(row);
                    }
                    for &r in &deleted {
                        batch.delete(r);
                        model.slots[r as usize] = None;
                    }
                    for _ in 0..appends {
                        let row = slot_row(next_k, pad);
                        next_k += 1;
                        batch.append(row.clone());
                        model.slots.push(Some(row));
                    }
                    storage.apply(&batch).unwrap();
                }
                SlotStep::Rejected { appends, bad, pick } => {
                    let mut batch = MutationBatch::new("t");
                    for i in 0..appends {
                        batch.append(slot_row(next_k + i as i64, 50));
                    }
                    let live = model.live();
                    // Never the last slot: it may sit alone on its page,
                    // where even a maximal cell fits.
                    let inner: Vec<u64> = live
                        .iter()
                        .copied()
                        .filter(|&r| r + 1 < model.slots.len() as u64)
                        .collect();
                    if let Some(&r) = live.first() {
                        batch.update(r, slot_row(-1, 10));
                    }
                    let dead: Vec<u64> = (0..model.slots.len() as u64)
                        .filter(|&r| model.slots[r as usize].is_none())
                        .collect();
                    let out_of_range = model.slots.len() as u64 + pick % 4;
                    match bad {
                        Bad::Deleted if !dead.is_empty() => {
                            batch.delete(dead[(pick % dead.len() as u64) as usize]);
                        }
                        Bad::Arity => {
                            batch.append(vec![Value::Int(1)]);
                        }
                        Bad::Type if !live.is_empty() => {
                            let r = live[(pick % live.len() as u64) as usize];
                            batch.update(r, vec![Value::str("k"), Value::str("pad")]);
                        }
                        Bad::TooBig if !inner.is_empty() => {
                            let r = inner[(pick % inner.len() as u64) as usize];
                            // Int (9 bytes) + Str header (5 bytes) + body.
                            batch.update(r, slot_row(-2, MAX_CELL - 14));
                        }
                        _ => {
                            batch.update(out_of_range, slot_row(-3, 1));
                        }
                    }
                    prop_assert!(storage.apply(&batch).is_err(), "{bad:?} batch was accepted");
                }
                SlotStep::Checkpoint => storage.checkpoint().unwrap(),
                SlotStep::Reingest { indexed } => {
                    let index: &[&str] = if indexed { &["k"] } else { &[] };
                    let rel = model.relation();
                    storage.ingest("t", &rel, index).unwrap();
                    model.slots = model.slots.iter().flatten().cloned().map(Some).collect();
                }
                SlotStep::CrashRecover { fresh_handle } => {
                    storage.simulate_crash();
                    if fresh_handle {
                        storage = StorageDb::open_with(&dir, policy, ckpt).unwrap();
                    }
                    storage.recover().unwrap();
                }
            }
            check_slots(&storage, &model, cache)?;
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
