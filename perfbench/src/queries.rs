//! The machinery the two query workloads share: serving a database
//! through `StorageDb` + `QueryService::open_paged`, the closed-loop
//! measured window, the traced run, and the reference-answer check.

use crate::layered::{self, Recorder, LAYER_SPANS};
use crate::oracle::{self, Verdict};
use crate::report::{mean, peak_rss_mb, quantile, ratio, time_setups, Report};
use crate::Args;
use htqo_core::QhdOptions;
use htqo_cq::parse_select;
use htqo_cq::sql::ast::SelectStmt;
use htqo_engine::{Database, VRelation, Value};
use htqo_optimizer::HybridOptimizer;
use htqo_service::{QueryService, ServiceConfig, Session, StatementId};
use htqo_stats::DbStats;
use htqo_storage::{StorageDb, WalPolicy, DEFAULT_CHECKPOINT_BYTES};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One request of a stream.
pub struct Request {
    /// Semantic identity: requests with one key must get one answer.
    pub key: u64,
    /// Query class (index into the workload's class names).
    pub class: usize,
    /// The text sent (for a prepared request, the prepared text).
    pub sql: String,
    /// The text the reference evaluation runs for this key.
    pub oracle_sql: Arc<str>,
    /// Index into [`Client::prepared`] when sent with `execute_prepared`.
    pub prepared: Option<usize>,
}

/// A seeded request generator: one per client session.
pub trait Client {
    /// Statements the client prepares when its session opens.
    fn prepared(&self) -> Vec<String>;
    /// The next request.
    fn next_request(&mut self) -> Request;
}

/// A database behind a service, with what each set-up step cost.
pub struct Served {
    /// `None` when the database is served from memory.
    pub storage: Option<StorageDb>,
    pub svc: QueryService,
    pub stats: DbStats,
    pub ingest_s: f64,
    pub recover_s: f64,
    pub load_database_s: f64,
    pub analyze_s: f64,
    /// Page-cache capacity handed to `open_paged`.
    pub cache_bytes: u64,
    /// Bytes in the storage directory after ingest.
    pub disk_bytes: u64,
}

/// Bytes of every file directly in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Ingests every table of `db` into a fresh `StorageDb` at `dir` (with a
/// B-tree index on each listed column), drops `db`, then [`open`]s a
/// service over a new handle on the directory with a page cache twice the
/// on-disk size, so it holds all the data.
pub fn serve(db: Database, indexes: &[(&str, &[&str])], dir: &Path) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let storage = StorageDb::open_with(dir, WalPolicy::Commit, DEFAULT_CHECKPOINT_BYTES)
        .map_err(|e| format!("open storage: {e}"))?;
    for (name, rel) in db.tables() {
        let cols = indexes
            .iter()
            .find(|(t, _)| *t == name)
            .map_or(&[][..], |(_, c)| c);
        storage
            .ingest(name, rel, cols)
            .map_err(|e| format!("ingest {name}: {e}"))?;
    }
    let ingest_s = t.elapsed().as_secs_f64();
    drop(db);
    drop(storage);
    // Serve from a cold handle, as a restarted service would: its
    // recovery pass really scans the directory.
    let storage = StorageDb::open_with(dir, WalPolicy::Commit, DEFAULT_CHECKPOINT_BYTES)
        .map_err(|e| format!("reopen storage: {e}"))?;
    let cache_bytes = 2 * dir_bytes(dir);
    let mut served = open(storage, cache_bytes)?;
    served.ingest_s = ingest_s;
    Ok(served)
}

/// Opens a service over `storage`: the recovery pass, then
/// `QueryService::open_paged` with ANALYZE building the optimizer.
pub fn open(storage: StorageDb, cache_bytes: u64) -> Result<Served, String> {
    let disk_bytes = dir_bytes(storage.dir());
    let t = Instant::now();
    storage.recover().map_err(|e| format!("recover: {e}"))?;
    let recover_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut analyzed = None;
    let svc = QueryService::open_paged(&storage, cache_bytes, ServiceConfig::default(), |db| {
        let t = Instant::now();
        let stats = htqo_stats::analyze(db);
        analyzed = Some((stats.clone(), t.elapsed().as_secs_f64()));
        HybridOptimizer::with_stats(QhdOptions::default(), stats)
    })
    .map_err(|e| format!("open_paged: {e}"))?;
    let (stats, analyze_s) = analyzed.expect("open_paged builds the optimizer");
    let load_database_s = t.elapsed().as_secs_f64() - analyze_s;
    Ok(Served {
        storage: Some(storage),
        svc,
        stats,
        ingest_s: 0.0,
        recover_s,
        load_database_s,
        analyze_s,
        cache_bytes,
        disk_bytes,
    })
}

/// Serves `db` from memory (`QueryService::new`), ANALYZE building the
/// optimizer.
pub fn serve_in_memory(db: Database) -> Served {
    let t = Instant::now();
    let stats = htqo_stats::analyze(&db);
    let analyze_s = t.elapsed().as_secs_f64();
    let optimizer = HybridOptimizer::with_stats(QhdOptions::default(), stats.clone());
    Served {
        storage: None,
        svc: QueryService::new(db, optimizer, ServiceConfig::default()),
        stats,
        ingest_s: 0.0,
        recover_s: 0.0,
        load_database_s: 0.0,
        analyze_s,
        cache_bytes: 0,
        disk_bytes: 0,
    }
}

/// Drives a query workload: a set-up (timed), then either the warm-up
/// and the measured window (end-to-end metrics) or the traced run
/// (per-layer metrics), then the other timed set-ups, then every answer
/// against the naive reference over `reference_db()`.
#[allow(clippy::too_many_arguments)]
pub fn run_workload(
    args: &Args,
    report: &mut Report,
    name: &str,
    classes: &[&str],
    set_up: impl Fn() -> Result<Served, String>,
    mut clients: Vec<Box<dyn Client>>,
    warm_up_per_client: usize,
    reference_db: impl FnOnce() -> Database,
) -> Result<(), String> {
    let t = Instant::now();
    let served = set_up()?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    if served.storage.is_some() {
        report.config("page_cache_bytes", served.cache_bytes);
        report.config("data_bytes_on_disk", served.disk_bytes);
        report.config("wal_policy", "commit");
        report.config("checkpoint_bytes", DEFAULT_CHECKPOINT_BYTES);
    }
    report.config("setups", args.setups);
    let mut answers = Answers::default();
    if args.trace {
        // The traced run starts cold: the service and the twin optimizer
        // must see the same stream from the first request.
        let spans = args.work_dir.join(format!("spans-{name}.tsv"));
        run_traced(
            &served,
            &mut clients,
            args.seconds,
            u64::MAX,
            classes,
            &spans,
            &mut answers,
            report,
        )?;
        setup_layer_metrics(report, &served);
        read_only_storage_metrics(report, served.storage.as_ref());
    } else {
        warm_up(
            &served.svc,
            &mut clients,
            warm_up_per_client,
            &mut answers,
            report,
        )?;
        let (latencies, tally, elapsed) =
            run_window(&served.svc, &mut clients, args.seconds, &mut answers)?;
        let rss = peak_rss_mb();
        window_metrics(report, &latencies, &tally, elapsed);
        report.e2e("peak_rss_mb", rss, "MiB");
        if served.storage.is_some() {
            report.e2e("space_amp", space_amp(&served)?, "ratio");
        }
    }
    drop(served);
    if !args.trace {
        // After the window, so they leave no trace in its peak RSS.
        setup_s.extend(time_setups(args.setups - 1, &set_up)?);
        report.setup(&setup_s);
    }
    let mismatches = answers.check(&reference_db(), report);
    if args.trace {
        report.layer("eval.float_mismatches", mismatches as f64, "count");
    } else {
        report
            .notes
            .push(format!("eval.float_mismatches={mismatches}"));
    }
    Ok(())
}

/// Bytes on disk (data files, WAL, catalogs) per byte of the live rows
/// written as CSV.
fn space_amp(served: &Served) -> Result<f64, String> {
    let mut user = 0u64;
    for (_, rel) in served.svc.database().tables() {
        let mut buf = Vec::new();
        htqo_engine::write_csv(rel, &mut buf).map_err(|e| format!("write_csv: {e}"))?;
        user += buf.len() as u64;
    }
    Ok(served.disk_bytes as f64 / user as f64)
}

/// An optimizer configured like the service's (same statistics, index
/// catalog and cache capacity) with its own, empty plan cache — so fed
/// the same stream, its cache history matches the service's.
fn twin_optimizer(served: &Served) -> HybridOptimizer {
    HybridOptimizer::with_stats(QhdOptions::default(), served.stats.clone())
        .with_index_catalog(served.svc.database().indexed_columns())
}

/// Running totals over the outcomes of a request stream: what the
/// engine reported, and the failures. Kept as sums so the benchmark's
/// own memory does not grow with the number of requests.
#[derive(Default)]
struct Tally {
    sent: u64,
    ok: u64,
    errors: Vec<String>,
    threads: usize,
    threads_requested: usize,
    factorized: u64,
    tuples: u64,
    answer_rows: u64,
    hash_builds: u64,
    index_seeks: u64,
    spill_bytes: u64,
    /// Per answered request: q-error of the estimated answer rows.
    qerrors: Vec<f32>,
}

impl Tally {
    fn record(&mut self, o: &htqo_optimizer::QueryOutcome) {
        self.ok += 1;
        self.threads = self.threads.max(o.threads);
        self.threads_requested = self.threads_requested.max(o.threads_requested);
        self.factorized += o.factorized as u64;
        self.tuples += o.tuples;
        self.answer_rows += o.answer_rows.unwrap_or(0);
        self.hash_builds += o.hash_builds;
        self.index_seeks += o.index_seek_joins;
        self.spill_bytes += o.spill_bytes;
        if let (Some(est), Some(act)) = (o.estimated_answer_rows, o.answer_rows) {
            let (est, act) = (est.max(1.0), (act as f64).max(1.0));
            self.qerrors.push((est / act).max(act / est) as f32);
        }
    }

    /// Counts the requests as attempted and the failed ones (errors,
    /// rejections) as failures.
    pub fn count_into(&self, report: &mut Report) {
        report.attempted += self.sent;
        for e in &self.errors {
            report.fail(e.clone());
        }
    }

    /// Echoes the engine thread counts the outcomes reported.
    pub fn thread_config(&self, report: &mut Report) {
        report.config("engine_threads_requested", self.threads_requested);
        report.config("engine_threads_used", self.threads);
        if self.threads > 1 {
            report.notes.push(format!(
                "small-host caveat: measured with {} engine threads on a host with {} CPUs; \
                 no parallel speed-up is claimed",
                self.threads,
                htqo_engine::exec::hardware_threads()
            ));
        }
    }

    /// Per-layer metrics read from the service's own outcomes.
    fn layer_metrics(&self, report: &mut Report) {
        let n = self.ok as f64;
        report.layer(
            "eval.factorized_ratio",
            ratio(self.factorized as f64, n),
            "ratio",
        );
        report.layer(
            "engine.tuples_per_row",
            ratio(self.tuples as f64, self.answer_rows as f64),
            "tuples/row",
        );
        report.layer(
            "engine.hash_builds",
            ratio(self.hash_builds as f64, n),
            "count/query",
        );
        report.layer(
            "engine.index_seeks",
            ratio(self.index_seeks as f64, n),
            "count/query",
        );
        report.layer("engine.spill_bytes", self.spill_bytes as f64, "bytes");
        let qerr: Vec<f64> = self.qerrors.iter().map(|&q| q as f64).collect();
        report.layer("stats.answer_qerror_p50", quantile(&qerr, 0.5), "ratio");
    }
}

/// An answer as kept for the reference check: in full when it holds a
/// float (compared with a tolerance), else as a fingerprint of its
/// columns and sorted rows, which equal answers share exactly.
enum Kept {
    Full(VRelation),
    Print(u64),
}

fn fingerprint(rel: &VRelation) -> u64 {
    let mut h = DefaultHasher::new();
    rel.cols().hash(&mut h);
    rel.sorted_rows().hash(&mut h);
    h.finish()
}

fn keep(rel: VRelation) -> Kept {
    let has_float = rel
        .rows()
        .iter()
        .any(|r| r.iter().any(|v| matches!(v, Value::Float(_))));
    if has_float {
        Kept::Full(rel)
    } else {
        Kept::Print(fingerprint(&rel))
    }
}

fn judge(got: &VRelation, want: &Kept) -> Verdict {
    match want {
        Kept::Full(want) => oracle::compare(got, want),
        Kept::Print(p) if *p == fingerprint(got) => Verdict::Same,
        Kept::Print(_) => Verdict::Wrong("rows differ".to_string()),
    }
}

/// Answer checking with bounded memory: the first answer of each key is
/// kept for the reference check after the run; every later answer of
/// the key is compared with it on arrival (outside the latency timer).
#[derive(Default)]
pub struct Answers {
    first: HashMap<u64, (Arc<str>, Kept)>,
    float_mismatches: u64,
    wrong: Vec<String>,
}

impl Answers {
    pub fn observe(&mut self, key: u64, sql: &Arc<str>, rel: VRelation) {
        match self.first.get(&key) {
            None => {
                self.first.insert(key, (Arc::clone(sql), keep(rel)));
            }
            Some((_, first)) => {
                let verdict = judge(&rel, first);
                self.note(sql, verdict);
            }
        }
    }

    fn note(&mut self, sql: &str, verdict: Verdict) {
        match verdict {
            Verdict::Same => {}
            Verdict::FloatLowBits => self.float_mismatches += 1,
            Verdict::Wrong(why) => self.wrong.push(format!("wrong answer to {sql}: {why}")),
        }
    }

    /// Compares each key's first answer with the reference answer of its
    /// query on `db`. Wrong answers count as failures; answers off only in
    /// float low bits are counted and returned.
    pub fn check(mut self, db: &Database, report: &mut Report) -> u64 {
        let mut keys: Vec<u64> = self.first.keys().copied().collect();
        keys.sort_unstable();
        let first = std::mem::take(&mut self.first);
        for key in keys {
            let (sql, kept) = &first[&key];
            match oracle::reference(db, sql) {
                Err(e) => self.wrong.push(format!("reference for {sql} failed: {e}")),
                Ok(want) => {
                    let verdict = judge(&want, kept);
                    self.note(sql, verdict);
                }
            }
        }
        for why in self.wrong {
            report.fail(why);
        }
        self.float_mismatches
    }
}

/// A client's session with its statements prepared.
struct Connected {
    session: Session,
    ids: Vec<StatementId>,
}

fn connect(svc: &QueryService, client: &dyn Client) -> Result<Connected, String> {
    let session = svc.session();
    let ids = client
        .prepared()
        .iter()
        .map(|sql| session.prepare(sql).map_err(|e| format!("prepare: {e}")))
        .collect::<Result<_, _>>()?;
    Ok(Connected { session, ids })
}

/// Sends one request through the service and returns the call's latency
/// in seconds; the outcome goes to `tally`, the answer to `answers`.
fn send(conn: &Connected, req: &Request, answers: &mut Answers, tally: &mut Tally) -> f64 {
    let t = Instant::now();
    let outcome = match req.prepared {
        Some(i) => conn.session.execute_prepared(conn.ids[i]),
        None => conn.session.execute_sql(&req.sql),
    };
    let latency_s = t.elapsed().as_secs_f64();
    tally.sent += 1;
    match outcome {
        Err(e) => tally
            .errors
            .push(format!("request {} rejected: {e}", req.key)),
        Ok(mut o) => match std::mem::replace(&mut o.result, Ok(VRelation::neutral())) {
            Err(e) => tally
                .errors
                .push(format!("request {} failed: {e}", req.key)),
            Ok(rel) => {
                tally.record(&o);
                answers.observe(req.key, &req.oracle_sql, rel);
            }
        },
    }
    latency_s
}

/// Untimed warm-up: `per_client` requests from each client, so lazy
/// set-up (first plans, first page touches) is paid before the window.
pub fn warm_up(
    svc: &QueryService,
    clients: &mut [Box<dyn Client>],
    per_client: usize,
    answers: &mut Answers,
    report: &mut Report,
) -> Result<(), String> {
    let mut tally = Tally::default();
    for c in clients.iter_mut() {
        let conn = connect(svc, c.as_ref())?;
        for _ in 0..per_client {
            send(&conn, &c.next_request(), answers, &mut tally);
        }
    }
    tally.count_into(report);
    Ok(())
}

/// The measured window: one closed loop sends the clients' requests in
/// turn, each through the client's own session, until `seconds` have
/// passed. Returns every latency, the outcome totals and the window's
/// length in seconds.
fn run_window(
    svc: &QueryService,
    clients: &mut [Box<dyn Client>],
    seconds: f64,
    answers: &mut Answers,
) -> Result<(Vec<f64>, Tally, f64), String> {
    let conns: Vec<Connected> = clients
        .iter()
        .map(|c| connect(svc, c.as_ref()))
        .collect::<Result<_, _>>()?;
    let mut latencies = Vec::new();
    let mut tally = Tally::default();
    let start = Instant::now();
    'window: loop {
        for (client, conn) in clients.iter_mut().zip(&conns) {
            if start.elapsed().as_secs_f64() >= seconds {
                break 'window;
            }
            latencies.push(send(conn, &client.next_request(), answers, &mut tally));
        }
    }
    Ok((latencies, tally, start.elapsed().as_secs_f64()))
}

/// Service-side end-to-end metrics of a window: latency median and
/// 95th percentile of each `execute_sql`/`execute_prepared` call, and
/// queries completed per second.
fn window_metrics(report: &mut Report, latencies_s: &[f64], tally: &Tally, elapsed_s: f64) {
    let lat_ms: Vec<f64> = latencies_s.iter().map(|s| s * 1e3).collect();
    report.e2e("query_p50_ms", quantile(&lat_ms, 0.5), "ms");
    report.e2e("query_p95_ms", quantile(&lat_ms, 0.95), "ms");
    report.e2e("qps", latencies_s.len() as f64 / elapsed_s, "1/s");
    tally.count_into(report);
    tally.thread_config(report);
}

/// What the traced run pairs per request: the service's latency, the
/// traced pipeline's wall time, and its layer spans.
struct Pair {
    class: usize,
    service_s: f64,
    traced_s: f64,
    layers: [f64; 5],
    prepared: bool,
}

/// The traced run: feeds the clients' streams (interleaved, one thread)
/// through the service — untraced, for the pairing — and through the
/// layered pipeline on a twin optimizer, until `seconds` have passed or
/// `max_requests` were sent. Side calls time `canonical_form` on every
/// request and uncached `plan_cq` on every plan-cache miss; they count
/// toward neither coverage nor overhead. Spans are written to
/// `spans_path` at the end.
#[allow(clippy::too_many_arguments)]
pub fn run_traced(
    served: &Served,
    clients: &mut [Box<dyn Client>],
    seconds: f64,
    max_requests: u64,
    class_names: &[&str],
    spans_path: &Path,
    answers: &mut Answers,
    report: &mut Report,
) -> Result<(), String> {
    let svc = &served.svc;
    let twin = twin_optimizer(served);
    let db = svc.database();
    let conns: Vec<Connected> = clients
        .iter()
        .map(|c| connect(svc, c.as_ref()))
        .collect::<Result<_, _>>()?;
    let prepared: Vec<Vec<SelectStmt>> = clients
        .iter()
        .map(|c| {
            c.prepared()
                .iter()
                .map(|sql| parse_select(sql).map_err(|e| format!("parse prepared: {e}")))
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;

    let mut rec = Recorder::new();
    let mut tally = Tally::default();
    let mut pairs: Vec<Pair> = Vec::new();
    let (mut canon_s, mut decomp_s) = (Vec::new(), Vec::new());
    let cache_before = svc.optimizer().plan_cache_stats();
    let start = Instant::now();
    let mut request_id = 0u64;
    'outer: loop {
        for (c, client) in clients.iter_mut().enumerate() {
            if start.elapsed().as_secs_f64() >= seconds || request_id >= max_requests {
                break 'outer;
            }
            let req = client.next_request();
            let service_s = send(&conns[c], &req, answers, &mut tally);
            let t = Instant::now();
            let traced = layered::run(
                &mut rec,
                request_id,
                db,
                &twin,
                &req.sql,
                req.prepared.map(|i| &prepared[c][i]),
            );
            let traced_s = t.elapsed().as_secs_f64();
            let mut layers = [0.0; 5];
            for s in rec.spans[traced.root + 1..].iter() {
                if let Some(i) = LAYER_SPANS.iter().position(|n| *n == s.name) {
                    layers[i] += s.secs();
                }
            }
            if let Some(q) = &traced.query {
                canon_s.push(layered::time_canonical_form(q));
                if traced.plan_miss {
                    decomp_s.push(layered::time_decomposition(&twin, q));
                }
            }
            match traced.answer {
                Ok(rel) => answers.observe(req.key, &req.oracle_sql, rel),
                Err(e) => report.fail(format!("traced request {} failed: {e}", req.key)),
            }
            pairs.push(Pair {
                class: req.class,
                service_s,
                traced_s,
                layers,
                prepared: req.prepared.is_some(),
            });
            request_id += 1;
        }
    }
    let cache_after = svc.optimizer().plan_cache_stats();
    rec.write(spans_path)
        .map_err(|e| format!("write spans: {e}"))?;
    tally.count_into(report);
    tally.thread_config(report);

    let us = |v: &[f64]| mean(v) * 1e6;
    let layer = |i: usize, skip_prepared: bool| -> Vec<f64> {
        pairs
            .iter()
            .filter(|p| !(skip_prepared && p.prepared))
            .map(|p| p.layers[i])
            .collect()
    };
    report.layer("cq.parse_us", us(&layer(0, true)), "us");
    report.layer("optimizer.flatten_us", us(&layer(1, false)), "us");
    report.layer("cq.isolate_us", us(&layer(2, false)), "us");
    report.layer("optimizer.plan_us", us(&layer(3, false)), "us");
    report.layer("eval.qhd_ms", mean(&layer(4, false)) * 1e3, "ms");
    for (k, name) in class_names.iter().enumerate() {
        let v: Vec<f64> = pairs
            .iter()
            .filter(|p| p.class == k)
            .map(|p| p.layers[4])
            .collect();
        report.layer(&format!("eval.qhd_ms.{name}"), mean(&v) * 1e3, "ms");
    }
    let overhead: Vec<f64> = pairs
        .iter()
        .map(|p| p.service_s - p.layers.iter().sum::<f64>())
        .collect();
    report.layer("service.overhead_us", us(&overhead), "us");
    report.layer("hypergraph.canon_us", us(&canon_s), "us");
    report.layer("core.decomp_ms", mean(&decomp_s) * 1e3, "ms");
    let lookups = |s: &htqo_optimizer::PlanCacheStats| s.hits + s.misses + s.revalidated;
    let n = (lookups(&cache_after) - lookups(&cache_before)) as f64;
    let hits = (cache_after.hits - cache_before.hits) as f64;
    let shape_hits = (cache_after.revalidated - cache_before.revalidated) as f64;
    report.layer(
        "optimizer.plan_hit_ratio",
        ratio(hits + shape_hits, n),
        "ratio",
    );
    report.layer("optimizer.exact_hit_ratio", ratio(hits, n), "ratio");
    tally.layer_metrics(report);

    let service_total: f64 = pairs.iter().map(|p| p.service_s).sum();
    let layered_total: f64 = pairs.iter().map(|p| p.layers.iter().sum::<f64>()).sum();
    let traced_total: f64 = pairs.iter().map(|p| p.traced_s).sum();
    let eval_total: f64 = pairs.iter().map(|p| p.layers[4]).sum();
    report.layer(
        "trace.coverage",
        ratio(layered_total, service_total),
        "ratio",
    );
    report.layer(
        "trace.overhead_pct",
        100.0 * (ratio(traced_total, service_total) - 1.0),
        "%",
    );
    // Shares of service latency: everything before evaluation (service,
    // cq, optimizer, hypergraph, core) versus the evaluator.
    report.layer(
        "share.planning_pct",
        100.0 * ratio(service_total - eval_total, service_total),
        "%",
    );
    report.layer(
        "share.eval_pct",
        100.0 * ratio(eval_total, service_total),
        "%",
    );
    report.notes.push(format!(
        "traced {} requests ({} plan-cache misses)",
        pairs.len(),
        decomp_s.len()
    ));
    Ok(())
}

/// Set-up metrics of a served workload (storage times only when the
/// database is served from disk).
fn setup_layer_metrics(report: &mut Report, served: &Served) {
    report.layer("stats.analyze_s", served.analyze_s, "s");
    if served.storage.is_some() {
        report.layer("storage.ingest_s", served.ingest_s, "s");
        report.layer("storage.recover_s", served.recover_s, "s");
        report.layer("storage.load_database_s", served.load_database_s, "s");
    }
}

/// Storage metrics of a workload that only reads: no checkpoints and no
/// WAL traffic; pages redone by the recovery pass of its open, if it
/// opened storage at all.
fn read_only_storage_metrics(report: &mut Report, storage: Option<&StorageDb>) {
    let r = storage.and_then(|s| s.last_recovery()).unwrap_or_default();
    report.layer("storage.checkpoints", 0.0, "count");
    report.layer("storage.wal_bytes_per_user_byte", 0.0, "ratio");
    report.layer(
        "storage.pages_redone_per_batch",
        ratio(r.pages_redone as f64, r.batches_replayed as f64),
        "pages/batch",
    );
}
