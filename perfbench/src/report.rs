//! Result record of one benchmark run, percentile helpers and the
//! hand-written JSON rendering that `run.py` reads.

use std::fmt::Write as _;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Configuration echo: `(key, value)` pairs, rendered as strings.
    pub config: Vec<(String, String)>,
    /// End-to-end metrics (untraced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layer: Vec<Metric>,
    /// Operations attempted in the measured window (queries or batches).
    pub attempted: u64,
    /// Operations that failed: errors, rejections and wrong answers.
    pub failed: u64,
    /// Human-readable notes (caveats, first failure messages).
    pub notes: Vec<String>,
}

impl Report {
    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// `setup_s`: the median of the run's set-ups, each listed in a note.
    pub fn setup(&mut self, setups_s: &[f64]) {
        self.e2e("setup_s", quantile(setups_s, 0.5), "s");
        let each: Vec<String> = setups_s.iter().map(|s| format!("{s:.4}")).collect();
        self.notes.push(format!("set-ups (s): {}", each.join(" ")));
    }

    /// Records a failed operation, keeping the first few messages.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("FAILED: {what}"));
        }
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"attempted\": {}, \"failed\": {}, \"config\": {{",
            self.attempted, self.failed
        );
        for (i, (k, v)) in self.config.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}: {}", quote(k), quote(v));
        }
        s.push_str("}, \"e2e\": ");
        metrics_json(&mut s, &self.e2e);
        s.push_str(", \"layer\": ");
        metrics_json(&mut s, &self.layer);
        s.push_str(", \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}", quote(n));
        }
        s.push_str("]}");
        s
    }
}

fn metrics_json(s: &mut String, metrics: &[Metric]) {
    s.push('{');
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN/inf; a metric that could not be computed is null.
        let v = if m.value.is_finite() {
            format!("{:e}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {v}, \"unit\": {}}}",
            quote(&m.name),
            quote(m.unit)
        );
    }
    s.push('}');
}

fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs `n` more timed set-ups, dropping each result after its clock
/// stops; returns their times in seconds.
pub fn time_setups<T>(
    n: usize,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let t = std::time::Instant::now();
        let made = set_up()?;
        times.push(t.elapsed().as_secs_f64());
        drop(made);
    }
    Ok(times)
}

/// The `p`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; NaN when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; 0 when empty (a layer that never ran spent no time).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
