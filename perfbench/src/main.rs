//! The repository benchmark: three seeded workloads, each loading mostly
//! its own set of layers.
//!
//! - `compile`: frontend, core inference, regions, checker and stack
//!   lowering, on the 20 Fig 8 + Fig 9 programs compiled cold (Fig 9).
//! - `execute`: the `vm` engine and the region runtime, running the same
//!   programs on their paper inputs (Fig 8's space reuse).
//! - `serve`: the daemon's net, driver and incremental paths under an
//!   open-loop request stream.
//!
//! ```text
//! perfbench --workload <compile|execute|serve> --seed <n> --seconds <s> --trace <0|1> [--cjrc <path>]
//! ```
//!
//! Every workload prints the same end-to-end metrics, each with its own
//! unit of work:
//!
//! | metric | `compile` | `execute` | `serve` |
//! |---|---|---|---|
//! | `latency_ms_p50` | one cold pass over the corpus | one pass over the corpus | one request, from its due time |
//! | `latency_ms_tail` | p90 of the passes | slowest pass | p90 of the requests |
//! | `setup_s` | median of 5 warm-up passes | median of 5 corpus compiles | median of 5 daemon starts with a memo warm-up |
//!
//! plus `success_ratio` (operations whose output checked out, over all
//! attempted) and `peak_rss_mb` (`VmHWM` of the process, daemon included).
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The traced run also
//! writes `.bench_out/<workload>.trace.json` and renders it with
//! `cjrc trace-summary` when `--cjrc` names the binary. Report rows go to
//! standard error.

mod common;
mod compile;
mod execute;
mod expected;
mod serve;

use common::Report;
use std::path::PathBuf;

/// End-to-end metrics, printed by every untraced run. Each workload gives
/// them its own meaning; see `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
];

/// Per-layer metrics, printed by every traced run; a layer a workload
/// does not load reads 0 there.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("frontend.parse_ms", "ms"),
    ("frontend.typecheck_ms", "ms"),
    ("core.infer_ms", "ms"),
    ("core.infer_bodies_self_ms", "ms"),
    ("core.solve_self_ms", "ms"),
    ("core.solve_scc_ms", "ms"),
    ("core.infer_unattributed_ms", "ms"),
    ("core.methods_inferred", "count"),
    ("core.sccs_solved", "count"),
    ("core.global_iterations", "count"),
    ("core.fixpoint_iterations", "count"),
    ("core.regions_created", "count"),
    ("core.localized_regions", "count"),
    ("core.methods_reused_ratio", "ratio"),
    ("regions.memo_hit_ratio", "ratio"),
    ("checker.check_ms", "ms"),
    ("vm.lower_ms", "ms"),
    ("vm.instructions", "count"),
    ("vm.exec_ms", "ms"),
    ("vm.steps", "count"),
    ("rvm.lower_ms", "ms"),
    ("rvm.register_instructions", "count"),
    ("rvm.fused_superinstructions", "count"),
    ("rvm.exec_ms", "ms"),
    ("rvm.steps", "count"),
    ("runtime.interp_ms", "ms"),
    ("runtime.peak_live_bytes", "bytes"),
    ("runtime.total_allocated_bytes", "bytes"),
    ("runtime.regions_created", "count"),
    ("runtime.space_ratio_geomean", "ratio"),
    ("driver.handle_ms_p50.edit", "ms"),
    ("driver.handle_ms_p50.check", "ms"),
    ("driver.handle_ms_p50.query", "ms"),
    ("driver.handle_ms_p50.policy", "ms"),
    ("driver.handle_ms_p99.edit", "ms"),
    ("driver.handle_ms_p99.check", "ms"),
    ("driver.handle_ms_p99.query", "ms"),
    ("driver.handle_ms_p99.policy", "ms"),
    ("driver.check_after_edit_ms_p50", "ms"),
    ("driver.queue_wait_us_p99", "us"),
    ("net.client_ms_p99", "ms"),
    ("net.residual_ms_p50", "ms"),
    ("net.residual_ms_p99", "ms"),
    ("net.generator_lag_ms_p99", "ms"),
    ("net.max_rps", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("share.frontend", "ratio"),
    ("share.core", "ratio"),
    ("share.checker", "ratio"),
    ("share.vm", "ratio"),
    ("share.rvm", "ratio"),
    ("share.runtime", "ratio"),
    ("share.driver", "ratio"),
    ("share.net", "ratio"),
];

/// The exact inference counts of one corpus pass.
pub fn infer_counts(report: &mut Report, s: &cj_infer::InferStats) {
    report.metric("core.methods_inferred", s.methods_inferred as f64, "count");
    report.metric("core.sccs_solved", s.sccs_solved as f64, "count");
    report.metric(
        "core.global_iterations",
        s.global_iterations as f64,
        "count",
    );
    report.metric(
        "core.fixpoint_iterations",
        s.fixpoint_iterations as f64,
        "count",
    );
    report.metric("core.regions_created", s.regions_created as f64, "count");
    report.metric(
        "core.localized_regions",
        s.localized_regions as f64,
        "count",
    );
    let reused = |part: usize, rest: usize| part as f64 / ((part + rest) as f64).max(1.0);
    report.metric(
        "core.methods_reused_ratio",
        reused(s.methods_reused, s.methods_inferred),
        "ratio",
    );
    report.metric(
        "regions.memo_hit_ratio",
        reused(s.sccs_reused, s.sccs_solved),
        "ratio",
    );
}

/// Each layer's share of the traced work (`share.<layer>`).
pub fn shares(report: &mut Report, spans: &common::Spans) {
    for (layer, share) in spans.layer_shares() {
        report.metric(format!("share.{layer}"), share, "ratio");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cjrc: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut cjrc) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--cjrc" => cjrc = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        cjrc,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <compile|execute|serve> --seed <n> --seconds <s> --trace <0|1> [--cjrc <path>]"
            );
            std::process::exit(2);
        }
    };
    let cjrc = args.cjrc.as_deref();
    let mut report = match args.workload.as_str() {
        "compile" => compile::run(args.seed, args.seconds, args.trace, cjrc),
        "execute" => execute::run(args.seed, args.seconds, args.trace, cjrc),
        "serve" => serve::run(args.seed, args.seconds, args.trace, cjrc),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let success = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("success_ratio", success, "ratio");
    report.metric("peak_rss_mb", common::peak_rss_mb(), "MB");

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Report {
        attempted: report.attempted,
        failed: report.failed,
        ..Report::default()
    };
    out.broken = std::mem::take(&mut report.broken);
    for &(name, unit) in names {
        match report.value(name) {
            Some(value) => out.metric(name, value, unit),
            // A layer this workload bypasses; an end-to-end metric must exist.
            None if args.trace => out.metric(name, 0.0, unit),
            None => out.broken.push(format!("no value for `{name}`")),
        }
    }
    for row in &report.rows {
        eprintln!("{row}");
    }
    for broken in &out.broken {
        eprintln!("BROKEN: {broken}");
    }
    println!("{}", out.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics the runs print.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json = cj_driver::parse_json(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            match json.get(key) {
                Some(cj_driver::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        (
                            m.get_str("name").expect("name").to_string(),
                            m.get_str("unit").expect("unit").to_string(),
                        )
                    })
                    .collect(),
                _ => panic!("`{key}` is not a list"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }
}
