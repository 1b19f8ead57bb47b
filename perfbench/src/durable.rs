//! `durable-writes`: a single writer applies seeded 32-operation
//! `MutationBatch`es (appends, updates, deletes) to a TPC-H-shaped
//! `orders` table many times the buffer pool, under `WalPolicy::Commit`
//! with the default auto-checkpoint; then a simulated crash with a WAL
//! tail still un-checkpointed, recovery, and a slot-level check of every
//! acknowledged batch against a reference model.

use crate::layered::Recorder;
use crate::queries::{self, dir_bytes, Answers, Client, Request};
use crate::report::{mean, quantile, ratio, time_setups, Report};
use crate::Args;
use htqo_cq::date::days_from_civil;
use htqo_engine::{Database, Relation, Value};
use htqo_storage::{MutationBatch, StorageDb, WalPolicy, DEFAULT_CHECKPOINT_BYTES, PAGE_SIZE};
use htqo_tpch::schema::table_schema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const OPS_PER_BATCH: usize = 32;
/// Rows of `orders` (TPC-H SF 0.2). `apply` pins every heap page, so the
/// table size sets the CPU work of a batch; at this size it outweighs
/// the commit fsyncs, whose latency on a shared disk is what varies most
/// from run to run.
const ORDERS_ROWS: usize = 300_000;
const SMOKE_ORDERS_ROWS: usize = 7_500;
/// Buffer-pool capacity ceiling; the table must be at least
/// `MIN_TABLE_OVER_CACHE` times the pool.
const MAX_CACHE_BYTES: u64 = 1 << 20;
const MIN_TABLE_OVER_CACHE: u64 = 4;
const STATUSES: [&str; 3] = ["O", "F", "P"];

/// Queries run on the recovered table: its answers must equal the naive
/// reference over the same rows.
const VERIFY: [&str; 3] = [
    "SELECT o_orderstatus, count(*) AS n, sum(o_totalprice) AS total FROM orders GROUP BY o_orderstatus",
    "SELECT o_shippriority, count(*) AS n FROM orders WHERE o_orderdate >= date '1995-01-01' GROUP BY o_shippriority",
    "SELECT o_orderstatus, o_shippriority, count(*) AS n FROM orders WHERE o_totalprice > 300000 GROUP BY o_orderstatus, o_shippriority",
];

/// Values drawn as TPC-H dbgen draws them: customer keys uniform, one of
/// three statuses, prices in [850, 555000) rounded to cents, order dates
/// uniform in [1992-01-01, 1998-08-02], priority 0 or 1. Every encoded
/// row has the same size, so an update never overflows its page.
struct OrderGen {
    customers: i64,
    dates: (i32, i32),
}

impl OrderGen {
    fn new(rows: usize) -> Self {
        OrderGen {
            customers: (rows / 10).max(1) as i64,
            dates: (days_from_civil(1992, 1, 1), days_from_civil(1998, 8, 2)),
        }
    }

    fn row(&self, key: i64, date: i32, rng: &mut StdRng) -> Vec<Value> {
        vec![
            Value::Int(key),
            Value::Int(rng.gen_range(0..self.customers)),
            Value::str(STATUSES[rng.gen_range(0..STATUSES.len())]),
            Value::Float(rng.gen_range(85_000..55_500_000i64) as f64 / 100.0),
            Value::Date(date),
            Value::Int(rng.gen_range(0..2i64)),
        ]
    }

    fn date(&self, rng: &mut StdRng) -> i32 {
        rng.gen_range(self.dates.0..=self.dates.1)
    }

    fn table(&self, rows: usize, rng: &mut StdRng) -> Relation {
        let mut rel = Relation::new(table_schema("orders"));
        rel.reserve(rows);
        rel.push_many_unchecked((0..rows).map(|k| {
            let date = self.date(rng);
            self.row(k as i64, date, rng)
        }));
        rel
    }
}

enum Op {
    Append(Vec<Value>),
    Update(u64, Vec<Value>),
    Delete(u64),
}

/// What the model keeps of a live row: its key and date (an update keeps
/// both) and a hash of the whole row.
#[derive(Clone, Copy)]
struct Slot {
    key: i64,
    date: i32,
    hash: u64,
}

fn row_hash(row: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    row.hash(&mut h);
    h.finish()
}

fn slot(row: &[Value]) -> Slot {
    match (&row[0], &row[4]) {
        (Value::Int(key), Value::Date(date)) => Slot {
            key: *key,
            date: *date,
            hash: row_hash(row),
        },
        _ => unreachable!("orders rows are (int key, …, date, …)"),
    }
}

/// The reference model: every slot (rowid) of the table, `None` once
/// deleted, plus the live rowids for uniform picks.
struct Model {
    slots: Vec<Option<Slot>>,
    live: Vec<u64>,
    /// `at[rowid]` = index of `rowid` in `live` (only valid while live).
    at: Vec<usize>,
    next_key: i64,
}

impl Model {
    fn new(rel: &Relation) -> Model {
        let slots: Vec<Option<Slot>> = rel.iter_rows().map(|r| Some(slot(&r))).collect();
        let n = slots.len();
        Model {
            slots,
            live: (0..n as u64).collect(),
            at: (0..n).collect(),
            next_key: n as i64,
        }
    }

    /// A seeded batch: about 40% updates, 30% appends, 30% deletes, each
    /// update or delete on a distinct live row.
    fn batch(&mut self, gen: &OrderGen, rng: &mut StdRng) -> Vec<Op> {
        let mut ops = Vec::with_capacity(OPS_PER_BATCH);
        let mut touched: Vec<u64> = Vec::new();
        while ops.len() < OPS_PER_BATCH {
            let roll = rng.gen_range(0..10u32);
            if roll < 3 || self.live.len() < 2 * OPS_PER_BATCH {
                let key = self.next_key;
                self.next_key += 1;
                let date = gen.date(rng);
                ops.push(Op::Append(gen.row(key, date, rng)));
                continue;
            }
            let rowid = self.live[rng.gen_range(0..self.live.len())];
            if touched.contains(&rowid) {
                continue;
            }
            touched.push(rowid);
            if roll < 7 {
                let old = self.slots[rowid as usize].expect("live row");
                ops.push(Op::Update(rowid, gen.row(old.key, old.date, rng)));
            } else {
                ops.push(Op::Delete(rowid));
            }
        }
        ops
    }

    /// Applies an acknowledged batch.
    fn apply(&mut self, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Append(row) => {
                    let rowid = self.slots.len() as u64;
                    self.slots.push(Some(slot(row)));
                    self.at.push(self.live.len());
                    self.live.push(rowid);
                }
                Op::Update(rowid, row) => self.slots[*rowid as usize] = Some(slot(row)),
                Op::Delete(rowid) => {
                    self.slots[*rowid as usize] = None;
                    let i = self.at[*rowid as usize];
                    self.live.swap_remove(i);
                    if let Some(&moved) = self.live.get(i) {
                        self.at[moved as usize] = i;
                    }
                }
            }
        }
    }

    /// Checks the recovered table slot for slot: its live rows, in rowid
    /// order, must be exactly the model's.
    fn check(&self, recovered: &Relation) -> Result<(), String> {
        let expected: Vec<&Slot> = self.slots.iter().flatten().collect();
        if recovered.len() != expected.len() {
            return Err(format!(
                "recovered {} live rows, the model has {}",
                recovered.len(),
                expected.len()
            ));
        }
        for (i, (row, want)) in recovered.iter_rows().zip(expected).enumerate() {
            let got = slot(&row);
            if got.key != want.key || got.hash != want.hash {
                return Err(format!(
                    "live row {i} ({row:?}) differs from the model's row with key {}",
                    want.key
                ));
            }
        }
        Ok(())
    }
}

fn to_batch(ops: &[Op]) -> MutationBatch {
    let mut b = MutationBatch::new("orders");
    for op in ops {
        match op {
            Op::Append(row) => b.append(row.clone()),
            Op::Update(rowid, row) => b.update(*rowid, row.clone()),
            Op::Delete(rowid) => b.delete(*rowid),
        };
    }
    b
}

fn wal_size(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("db.wal"))
        .map(|m| m.len())
        .unwrap_or(0)
}

fn csv_bytes(rel: &Relation) -> Result<u64, String> {
    let mut buf = Vec::new();
    htqo_engine::write_csv(rel, &mut buf).map_err(|e| format!("write_csv: {e}"))?;
    Ok(buf.len() as u64)
}

/// One committed batch, as the window observed it.
struct Commit {
    latency_s: f64,
    /// WAL bytes this batch added (`None` when it triggered a checkpoint).
    wal_bytes: Option<u64>,
    /// Rows the batch wrote (appends and updates), kept in the traced run
    /// for batches without a checkpoint.
    written: Vec<Vec<Value>>,
}

/// Sends the verification queries, cycling.
struct VerifyClient(usize);

impl Client for VerifyClient {
    fn prepared(&self) -> Vec<String> {
        Vec::new()
    }

    fn next_request(&mut self) -> Request {
        let i = self.0 % VERIFY.len();
        self.0 += 1;
        Request {
            key: i as u64,
            class: 0,
            sql: VERIFY[i].to_string(),
            oracle_sql: Arc::from(VERIFY[i]),
            prepared: None,
        }
    }
}

/// A freshly ingested table with its buffer pool open.
struct Opened {
    storage: StorageDb,
    table: Relation,
    ingest_s: f64,
    table_bytes: u64,
    cache: u64,
}

/// Set-up: generate `orders`, ingest it, open its buffer pool (`apply`
/// would otherwise open it with the environment's capacity).
fn set_up(dir: &Path, rows: usize, seed: u64) -> Result<Opened, String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let gen = OrderGen::new(rows);
    let table = gen.table(rows, &mut StdRng::seed_from_u64(seed));
    let storage = StorageDb::open_with(dir, WalPolicy::Commit, DEFAULT_CHECKPOINT_BYTES)
        .map_err(|e| format!("open storage: {e}"))?;
    storage
        .ingest("orders", &table, &[])
        .map_err(|e| format!("ingest: {e}"))?;
    let ingest_s = t.elapsed().as_secs_f64();
    drop(table);
    let table_bytes = dir_bytes(dir);
    let page = PAGE_SIZE as u64;
    let cache = (table_bytes / MIN_TABLE_OVER_CACHE / page * page).min(MAX_CACHE_BYTES);
    let (table, _) = storage
        .load_table("orders", cache, None)
        .map_err(|e| format!("load_table: {e}"))?;
    Ok(Opened {
        storage,
        table,
        ingest_s,
        table_bytes,
        cache,
    })
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let rows = if args.smoke {
        SMOKE_ORDERS_ROWS
    } else {
        ORDERS_ROWS
    };
    let dir = args.work_dir.join("db");
    report.config("orders_rows", rows);
    report.config("wal_policy", "commit");
    report.config("checkpoint_bytes", DEFAULT_CHECKPOINT_BYTES);
    report.config("ops_per_batch", OPS_PER_BATCH);
    report.config("setups", args.setups);

    let t = Instant::now();
    let Opened {
        storage,
        table,
        ingest_s,
        table_bytes,
        cache,
    } = set_up(&dir, rows, args.seed)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    report.config("page_cache_bytes", cache);
    report.config("table_bytes_on_disk", table_bytes);
    if table_bytes < MIN_TABLE_OVER_CACHE * cache {
        report.fail(format!(
            "table of {table_bytes} bytes is not {MIN_TABLE_OVER_CACHE}x the {cache}-byte pool"
        ));
    }
    let gen = OrderGen::new(rows);
    let mut model = Model::new(&table);
    drop(table);

    // The measured window: a closed loop of batches.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xd0_7ab1e);
    let mut rec = Recorder::new();
    let mut commits: Vec<Commit> = Vec::new();
    let mut wal = wal_size(&dir);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let ops = model.batch(&gen, &mut rng);
        let batch = to_batch(&ops);
        let span = args
            .trace
            .then(|| rec.begin("storage.apply", None, commits.len() as u64));
        let t = Instant::now();
        let res = storage.apply(&batch);
        let latency_s = t.elapsed().as_secs_f64();
        if let Some(id) = span {
            rec.end(id);
        }
        report.attempted += 1;
        if let Err(e) = res {
            report.fail(format!("apply failed: {e}"));
            continue;
        }
        let after = wal_size(&dir);
        let wal_bytes = after.checked_sub(wal);
        let written = match wal_bytes {
            Some(_) if args.trace => ops
                .iter()
                .filter_map(|op| match op {
                    Op::Append(row) | Op::Update(_, row) => Some(row.clone()),
                    Op::Delete(_) => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        commits.push(Commit {
            latency_s,
            wal_bytes,
            written,
        });
        wal = after;
        model.apply(&ops);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rss = crate::report::peak_rss_mb();

    // Crash with a WAL tail still un-checkpointed.
    while wal_size(&dir) == 0 {
        let ops = model.batch(&gen, &mut rng);
        report.attempted += 1;
        storage
            .apply(&to_batch(&ops))
            .map_err(|e| format!("apply before crash: {e}"))?;
        model.apply(&ops);
    }
    let wal_tail = wal_size(&dir);
    storage.simulate_crash();
    drop(storage);

    // Restart: a cold handle, the recovery pass, reloading the table.
    let t = Instant::now();
    let storage = StorageDb::open_with(&dir, WalPolicy::Commit, DEFAULT_CHECKPOINT_BYTES)
        .map_err(|e| format!("reopen storage: {e}"))?;
    let recovery = storage.recover().map_err(|e| format!("recover: {e}"))?;
    let recover_s = t.elapsed().as_secs_f64();
    let (recovered, _) = storage
        .load_table("orders", cache, None)
        .map_err(|e| format!("load_table after crash: {e}"))?;
    let recovery_s = t.elapsed().as_secs_f64();

    // Every acknowledged batch must have survived, slot for slot.
    let survived = model.check(&recovered);
    if let Err(e) = &survived {
        report.fail(e.clone());
    }
    let space_amp = dir_bytes(&dir) as f64 / csv_bytes(&recovered)? as f64;

    let lat_ms: Vec<f64> = commits.iter().map(|c| c.latency_s * 1e3).collect();
    if args.trace {
        rec.write(&args.work_dir.join("spans-durable-writes.tsv"))
            .map_err(|e| format!("write spans: {e}"))?;
        report.layer("storage.ingest_s", ingest_s, "s");
        report.layer("storage.recover_s", recover_s, "s");
        report.layer("storage.load_database_s", recovery_s - recover_s, "s");
        let ckpt: Vec<f64> = commits
            .iter()
            .filter(|c| c.wal_bytes.is_none())
            .map(|c| c.latency_s * 1e3)
            .collect();
        report.layer("storage.checkpoints", ckpt.len() as f64, "count");
        report.layer("storage.checkpoint_apply_ms", mean(&ckpt), "ms");
        let mut rows = Relation::new(table_schema("orders"));
        let mut logged = 0u64;
        for c in &commits {
            if let Some(bytes) = c.wal_bytes {
                logged += bytes;
                rows.push_many_unchecked(c.written.iter().cloned());
            }
        }
        report.layer(
            "storage.wal_bytes_per_user_byte",
            ratio(logged as f64, csv_bytes(&rows)? as f64),
            "ratio",
        );
        report.layer(
            "storage.pages_redone_per_batch",
            ratio(
                recovery.pages_redone as f64,
                recovery.batches_replayed as f64,
            ),
            "pages/batch",
        );
    } else {
        report.e2e("commit_p50_ms", quantile(&lat_ms, 0.5), "ms");
        report.e2e("commit_p99_ms", quantile(&lat_ms, 0.99), "ms");
        report.e2e(
            "mutations_per_s",
            (commits.len() * OPS_PER_BATCH) as f64 / elapsed,
            "1/s",
        );
        report.e2e("recovery_s", recovery_s, "s");
        report.e2e("space_amp", space_amp, "ratio");
        report.e2e("peak_rss_mb", rss, "MiB");
    }
    report.notes.push(format!(
        "{} batches committed; crash with {wal_tail} WAL bytes un-checkpointed; recovery replayed \
         {} batches, redid {} pages",
        commits.len(),
        recovery.batches_replayed,
        recovery.pages_redone
    ));

    // Read-after-recovery: once the recovered rows equal the model's,
    // SQL through the service must answer as the naive reference does
    // over them.
    let served = queries::open(storage, 2 * dir_bytes(&dir))?;
    let mut verify: Vec<Box<dyn Client>> = vec![Box::new(VerifyClient(0))];
    let mut answers = Answers::default();
    if args.trace {
        let spans = args.work_dir.join("spans-durable-writes-verify.tsv");
        queries::run_traced(
            &served,
            &mut verify,
            args.seconds,
            (4 * VERIFY.len()) as u64,
            &[],
            &spans,
            &mut answers,
            report,
        )?;
        report.layer("stats.analyze_s", served.analyze_s, "s");
    } else {
        queries::warm_up(&served.svc, &mut verify, VERIFY.len(), &mut answers, report)?;
    }
    drop(served);
    if survived.is_ok() {
        let mut db = Database::new();
        db.insert_table("orders", recovered);
        let mismatches = answers.check(&db, report);
        if args.trace {
            report.layer("eval.float_mismatches", mismatches as f64, "count");
        }
    }

    // The other timed set-ups, after the window so they leave no trace in
    // its peak RSS.
    if !args.trace {
        setup_s.extend(time_setups(args.setups - 1, || {
            set_up(&dir, rows, args.seed)
        })?);
        report.setup(&setup_s);
    }
    Ok(())
}
