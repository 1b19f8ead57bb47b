//! One benchmark run: a workload, a seed, a measured window of
//! `--seconds`, untraced (`--trace 0`, end-to-end metrics) or traced
//! (`--trace 1`, per-layer metrics). The last line of standard output is
//! a JSON record of every metric, the configuration and the checks;
//! `run.py` turns it into the benchmark's result line.

mod durable;
mod layered;
mod oracle;
mod planmix;
mod queries;
mod report;
mod tpch;

use report::Report;
use std::path::PathBuf;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny data and one set-up: the benchmark's own test.
    pub smoke: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Working directory for storage files and span dumps.
    pub work_dir: PathBuf,
    /// Source revision to echo, when known.
    pub revision: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        setups: 3,
        work_dir: PathBuf::from(".perfbench-work"),
        revision: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--setups" => args.setups = value.parse::<usize>().map_err(|_| bad())?.max(1),
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            "--revision" => args.revision = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The benchmark fixes its own configuration: no knob leaks in from
    // the caller's environment, and nothing is written outside the work
    // directory.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("HTQO_") {
            std::env::remove_var(key);
        }
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    std::env::set_var("HTQO_SPILL_DIR", args.work_dir.join("spill"));
    // One engine thread in every workload: on the 2-CPU reference host a
    // second thread gave tpch-analytic no speed-up (p50 ≈ 19 ms either
    // way) and a wider run-to-run spread, since the process then leaves
    // no CPU for anything else.
    htqo_engine::exec::set_threads(1);

    let mut report = Report::default();
    report.config("workload", &args.workload);
    report.config("seed", args.seed);
    report.config("seconds", args.seconds);
    report.config("trace", args.trace as u8);
    report.config("revision", &args.revision);
    report.config("nproc", htqo_engine::exec::hardware_threads());
    report.config(
        "plan_cache_capacity",
        htqo_engine::exec::plan_cache_default(),
    );
    let outcome = match args.workload.as_str() {
        "tpch-analytic" => tpch::run(&args, &mut report),
        "plan-mix" => planmix::run(&args, &mut report),
        "durable-writes" => durable::run(&args, &mut report),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(args.work_dir.join("db"));
    let _ = std::fs::remove_dir_all(args.work_dir.join("spill"));
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    println!("{}", report.to_json());
}
