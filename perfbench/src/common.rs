//! Shared plumbing: seeded randomness, order statistics, the metric list a
//! run prints, process memory, and the trace export every traced run
//! writes.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// splitmix64: one word of state, reproducible from the `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_C0DE_0FBE)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail the end-to-end metrics report: p90 when at least ten samples
/// lie above it, else the slowest sample. (p99 swings by a third from run
/// to run on a shared 2-vCPU host, more than any bound allows.)
pub fn tail(samples: &[f64]) -> (f64, &'static str) {
    if samples.len() >= 100 {
        (quantile(samples, 0.90), "p90")
    } else {
        (quantile(samples, 1.0), "max")
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `setup` `times` times and returns the last product with the median
/// set-up time in seconds.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        secs.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// What one run reports: operation counts, named metrics in print order,
/// and the human-readable rows of the traced report.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// A check that is not a per-operation failure (e.g. a count that
    /// changed between passes) broke.
    pub broken: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub rows: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn row(&mut self, row: impl Into<String>) {
        self.rows.push(row.into());
    }

    /// Counts one attempted operation, failed unless `ok`; the first few
    /// failures are kept for the report.
    pub fn outcome(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.rows.push(format!("FAILED: {}", what()));
            }
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0 && self.broken.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The layer a span's work belongs to, keyed by its (qualified) name;
/// `None` for the benchmark's own parent spans.
fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "frontend.parse" | "frontend.typecheck" | "parse" | "typecheck" => "frontend",
        "core.infer" | "infer" | "infer-bodies" | "solve" | "solve-scc" | "extent-rewrite"
        | "policy-check" => "core",
        "checker.check" | "check" => "checker",
        "vm.lower" | "lower" | "vm.exec" | "vm-exec" => "vm",
        "rvm.lower" | "rvm-lower" | "rvm.exec" | "rvm-exec" => "rvm",
        "runtime.interp" | "interp-exec" => "runtime",
        "reactor-dispatch" => "net",
        name if name == "driver.handle"
            || name == "worker-handle"
            || name.starts_with("request:") =>
        {
            "driver"
        }
        _ => return None,
    })
}

/// The layers the per-layer `share.*` metrics cover.
const LAYERS: [&str; 8] = [
    "frontend", "core", "checker", "vm", "rvm", "runtime", "driver", "net",
];

/// Per-name totals of a recorded trace (`cj_trace::summarize`).
///
/// Request spans (category `request`, named after the request kind) are
/// renamed `request:<kind>` first, so a `check` request and the pipeline's
/// `check` phase stay apart. `queue-wait` intervals are dropped: they are
/// waiting, not work, and their intervals straddle the previous request's
/// span on the same worker.
pub struct Spans(Vec<cj_trace::PhaseSummary>);

impl Spans {
    pub fn new(events: &[cj_trace::Event]) -> Spans {
        let events: Vec<cj_trace::Event> = events
            .iter()
            .filter(|ev| ev.name != "queue-wait")
            .map(|ev| {
                let mut ev = ev.clone();
                if ev.cat == "request" {
                    ev.name = match ev.name {
                        "open" => "request:open",
                        "edit" => "request:edit",
                        "check" => "request:check",
                        "query" => "request:query",
                        "policy" => "request:policy",
                        "shutdown" => "request:shutdown",
                        "metrics" => "request:metrics",
                        _ => "request:other",
                    };
                }
                ev
            })
            .collect();
        Spans(cj_trace::summarize(&events))
    }

    /// Each layer's share of the self time of all layer spans.
    pub fn layer_shares(&self) -> Vec<(&'static str, f64)> {
        let mut per_layer = [0u64; LAYERS.len()];
        let mut all = 0u64;
        for row in &self.0 {
            if let Some(layer) = layer_of(&row.name) {
                let i = LAYERS
                    .iter()
                    .position(|&l| l == layer)
                    .expect("known layer");
                per_layer[i] += row.self_us;
                all += row.self_us;
            }
        }
        LAYERS
            .iter()
            .zip(per_layer)
            .map(|(&layer, us)| (layer, us as f64 / (all as f64).max(1.0)))
            .collect()
    }

    fn find(&self, name: &str) -> Option<&cj_trace::PhaseSummary> {
        self.0.iter().find(|row| row.name == name)
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.find(name).map_or(0.0, |r| r.total_us as f64 / 1e3)
    }

    pub fn self_ms(&self, name: &str) -> f64 {
        self.find(name).map_or(0.0, |r| r.self_us as f64 / 1e3)
    }

    /// Rows for the benchmark's own parent spans: each parent's total and
    /// the part of it no child span covers.
    pub fn unattributed_rows(&self, parents: &[&str], per: f64) -> Vec<String> {
        parents
            .iter()
            .filter_map(|&name| self.find(name))
            .map(|r| {
                format!(
                    "span {:<22} total {:>10.3} ms  not covered by a child {:>10.3} ms  ({:.1}%)",
                    r.name,
                    r.total_us as f64 / 1e3 / per,
                    r.self_us as f64 / 1e3 / per,
                    100.0 * r.self_us as f64 / (r.total_us as f64).max(1.0)
                )
            })
            .collect()
    }
}

/// Writes `events` as a Chrome trace and renders it with the operators'
/// `cjrc trace-summary`; the rendered table goes into the report. A trace
/// the tool cannot render breaks the run.
pub fn export_trace(
    report: &mut Report,
    events: &[cj_trace::Event],
    workload: &str,
    cjrc: Option<&Path>,
) {
    // Relative to the checkout the benchmark runs in.
    let dir = Path::new(".bench_out");
    let path = dir.join(format!("{workload}.trace.json"));
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, cj_trace::chrome_trace_json(events)))
    {
        report
            .broken
            .push(format!("cannot write {}: {e}", path.display()));
        return;
    }
    report.row(format!(
        "chrome trace: {} ({} events)",
        path.display(),
        events.len()
    ));
    let Some(cjrc) = cjrc else {
        report.row("cjrc trace-summary: skipped (no --cjrc given)");
        return;
    };
    match std::process::Command::new(cjrc)
        .arg("trace-summary")
        .arg(&path)
        .output()
    {
        Ok(out) if out.status.success() => {
            report.row("cjrc trace-summary:");
            for line in String::from_utf8_lossy(&out.stdout).lines() {
                report.row(format!("  {line}"));
            }
        }
        Ok(out) => report.broken.push(format!(
            "cjrc trace-summary failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
        Err(e) => report
            .broken
            .push(format!("cannot run {}: {e}", cjrc.display())),
    }
}
