//! The outside-in trace: the service's request path replayed through each
//! layer's public functions, in the order `Session::run_stmt` calls them,
//! with a span around every call.

use htqo_cq::sql::ast::SelectStmt;
use htqo_cq::{isolate, parse_select, ConjunctiveQuery};
use htqo_engine::{Budget, Database, VRelation};
use htqo_eval::{evaluate_qhd_query_traced, ExecOptions, FactorizedTrace};
use htqo_optimizer::{flatten_subqueries, HybridOptimizer};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one request share `request`; `parent`
/// indexes the enclosing span in the recorder.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store, written out once when the run ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, Some(parent), request);
        let r = f();
        self.end(id);
        r
    }

    /// Writes every span as a tab-separated line:
    /// `request id parent name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The layer spans a request's root span covers, in call order.
pub const LAYER_SPANS: [&str; 5] = [
    "cq.parse",
    "optimizer.flatten",
    "cq.isolate",
    "optimizer.plan",
    "eval.qhd",
];

/// What the traced pipeline produced for one request.
pub struct Traced {
    pub answer: Result<VRelation, String>,
    /// The isolated query (for the side calls), when isolation succeeded.
    pub query: Option<ConjunctiveQuery>,
    /// `plan_cq_cached` missed the plan cache (cost-k-decomp ran).
    pub plan_miss: bool,
    /// Index of the request's root span.
    pub root: usize,
}

/// Replays one request: `parse_select` (skipped for a prepared statement,
/// as in the service) → `flatten_subqueries` → `isolate` →
/// `plan_cq_cached` → `evaluate_qhd_query_traced`.
pub fn run(
    rec: &mut Recorder,
    request: u64,
    db: &Database,
    opt: &HybridOptimizer,
    sql: &str,
    prepared: Option<&SelectStmt>,
) -> Traced {
    let root = rec.begin("request", None, request);
    let mut plan_miss = false;
    let mut query = None;
    let answer = (|| {
        let stmt = match prepared {
            Some(stmt) => stmt.clone(),
            None => rec
                .span("cq.parse", root, request, || parse_select(sql))
                .map_err(|e| format!("parse: {e}"))?,
        };
        let mut budget = Budget::unlimited();
        budget.apply_mem_limit(htqo_engine::exec::mem_limit_default());
        let (db, stmt) = rec
            .span("optimizer.flatten", root, request, || {
                flatten_subqueries(db, &stmt, &mut budget)
            })
            .map_err(|e| format!("flatten: {e}"))?;
        let q = rec
            .span("cq.isolate", root, request, || {
                isolate(&stmt, &db, opt.isolator)
            })
            .map_err(|e| format!("isolate: {e}"))?;
        let misses = opt.plan_cache_stats().misses;
        let plan = rec
            .span("optimizer.plan", root, request, || opt.plan_cq_cached(&q))
            .map_err(|e| format!("plan: {e}"))?;
        plan_miss = opt.plan_cache_stats().misses > misses;
        let opts = ExecOptions::default();
        let mut trace = FactorizedTrace::default();
        let answer = rec
            .span("eval.qhd", root, request, || {
                evaluate_qhd_query_traced(&db, &q, &plan, &mut budget, &opts, &mut trace)
            })
            .map_err(|e| format!("eval: {e}"))?;
        query = Some(q);
        Ok(answer)
    })();
    rec.end(root);
    Traced {
        answer,
        query,
        plan_miss,
        root,
    }
}

/// Side call, outside every span: the canonical form the plan cache keys
/// by. Returns seconds.
pub fn time_canonical_form(q: &ConjunctiveQuery) -> f64 {
    let t = Instant::now();
    let ch = q.hypergraph();
    let marked = ch.out_var_set(q);
    std::hint::black_box(htqo_hypergraph::canonical_form(&ch.hypergraph, &marked));
    t.elapsed().as_secs_f64()
}

/// Side call, outside every span: uncached `plan_cq` (cost-k-decomp plus
/// `Optimize`). Returns seconds.
pub fn time_decomposition(opt: &HybridOptimizer, q: &ConjunctiveQuery) -> f64 {
    let t = Instant::now();
    let _ = std::hint::black_box(opt.plan_cq(q));
    t.elapsed().as_secs_f64()
}
