//! `execute`: the 20 programs run on their paper inputs through
//! `Session::run` on the default engine. They are compiled in set-up, so
//! execution and the region runtime do the measured work. Every run is
//! checked against the expected-results table.

use crate::common::{self, ms, Report, Rng, Spans};
use crate::expected;
use cj_benchmarks::Benchmark;
use cj_driver::{Session, SessionOptions};
use cj_runtime::{Outcome, RunConfig, Value};
use std::path::Path;
use std::time::{Duration, Instant};

fn check(report: &mut Report, b: &Benchmark, engine: &str, got: Result<Outcome, String>) {
    let diffs = match &got {
        Ok(out) => expected::mismatches(expected::of(b.name), out),
        Err(e) => vec![format!("{}: {e}", b.name)],
    };
    report.outcome(diffs.is_empty(), || {
        format!("{engine}: {}", diffs.join("; "))
    });
}

fn args(b: &Benchmark) -> Vec<Value> {
    b.paper_input.iter().map(|&v| Value::Int(v)).collect()
}

/// Compiles every program to the point `Session::run` starts executing.
fn setup(corpus: &[Benchmark]) -> Vec<Session> {
    corpus
        .iter()
        .map(|b| {
            let mut session = Session::new(b.source, SessionOptions::default());
            session.check().expect("suite program compiles");
            session.compiled().expect("suite program lowers");
            session
        })
        .collect()
}

/// Untraced passes through `Session::run` for `budget`; each pass's ms.
fn passes(
    report: &mut Report,
    rng: &mut Rng,
    corpus: &[Benchmark],
    sessions: &mut [Session],
    budget: Duration,
) -> Vec<f64> {
    let mut out = Vec::new();
    let started = Instant::now();
    while started.elapsed() < budget || out.is_empty() {
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        rng.shuffle(&mut order);
        let mut results = Vec::with_capacity(order.len());
        let pass = Instant::now();
        for &i in &order {
            results.push(
                sessions[i]
                    .run(corpus[i].paper_input)
                    .map_err(|d| d.to_string()),
            );
        }
        out.push(ms(pass.elapsed()));
        for (&i, got) in order.iter().zip(results) {
            check(report, &corpus[i], "vm", got);
        }
    }
    out
}

pub fn run(seed: u64, seconds: f64, traced: bool, cjrc: Option<&Path>) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(seed);
    let corpus = cj_benchmarks::all_benchmarks();
    let (mut sessions, setup_s) = common::timed_setup(5, || setup(&corpus));
    let budget = Duration::from_secs_f64(seconds);
    if !traced {
        let passes = passes(&mut report, &mut rng, &corpus, &mut sessions, budget);
        let (tail, label) = common::tail(&passes);
        report.metric("setup_s", setup_s, "s");
        report.metric("latency_ms_p50", common::median(&passes), "ms");
        report.metric("latency_ms_tail", tail, "ms");
        report.row(format!(
            "{} passes over {} programs; tail is {label}",
            passes.len(),
            corpus.len()
        ));
        return report;
    }

    // Traced: half the budget untraced (the overhead base), half through
    // `cj_vm::run_main` in benchmark spans; then one pass on the register
    // tier and one on the reference interpreter.
    let plain = passes(&mut report, &mut rng, &corpus, &mut sessions, budget / 2);
    let programs: Vec<_> = sessions
        .iter_mut()
        .map(|s| {
            let compilation = s.check().expect("cached");
            let compiled = s.compiled().expect("cached");
            let rvm = s.rvm_compiled().expect("register lowering");
            (compilation, compiled, rvm)
        })
        .collect();
    let config = RunConfig::default();
    cj_trace::install();
    let mut traced_ms = Vec::new();
    let mut per_program = vec![Vec::new(); corpus.len()];
    let mut vm_out: Vec<Option<Outcome>> = vec![None; corpus.len()];
    let started = Instant::now();
    while started.elapsed() < budget / 2 || traced_ms.is_empty() {
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        rng.shuffle(&mut order);
        let mut pass = Duration::ZERO;
        for &i in &order {
            let run = Instant::now();
            let got = {
                let _s = cj_trace::span("vm", "vm.exec");
                cj_vm::run_main(&programs[i].1, &args(&corpus[i]), config)
            };
            let took = run.elapsed();
            pass += took;
            per_program[i].push(ms(took));
            let got = got.map_err(|e| format!("{e:?}"));
            check(&mut report, &corpus[i], "vm", got.clone());
            vm_out[i] = got.ok();
        }
        traced_ms.push(ms(pass));
    }
    let mut rvm_rows = Vec::with_capacity(corpus.len());
    for (i, b) in corpus.iter().enumerate() {
        let started = Instant::now();
        let got = {
            let _s = cj_trace::span("rvm", "rvm.exec");
            cj_rvm::run_main(&programs[i].2, &args(b), config)
        };
        let rvm_ms = ms(started.elapsed());
        let steps = got.as_ref().map_or(0, |o| o.steps);
        check(&mut report, b, "rvm", got.map_err(|e| format!("{e:?}")));
        let started = Instant::now();
        let got = {
            let _s = cj_trace::span("runtime", "runtime.interp");
            cj_runtime::run_main_big_stack(&programs[i].0.program, &args(b), config)
        };
        let interp_ms = ms(started.elapsed());
        let interp_steps = got.as_ref().map_or(0, |o| o.steps);
        check(&mut report, b, "interp", got.map_err(|e| format!("{e:?}")));
        rvm_rows.push((rvm_ms, steps, interp_ms, interp_steps));
    }
    let events = cj_trace::uninstall();
    let spans = Spans::new(&events);
    let n = traced_ms.len() as f64;

    let outcomes: Vec<&Outcome> = vm_out.iter().flatten().collect();
    let sum = |f: &dyn Fn(&Outcome) -> f64| outcomes.iter().map(|o| f(o)).sum::<f64>();
    let geomean = (outcomes
        .iter()
        .map(|o| o.space.space_ratio().ln())
        .sum::<f64>()
        / outcomes.len().max(1) as f64)
        .exp();
    report.metric("vm.exec_ms", spans.total_ms("vm.exec") / n, "ms");
    report.metric("vm.steps", sum(&|o| o.steps as f64), "count");
    report.metric("rvm.exec_ms", spans.total_ms("rvm.exec"), "ms");
    report.metric(
        "rvm.steps",
        rvm_rows.iter().map(|r| r.1 as f64).sum(),
        "count",
    );
    report.metric("runtime.interp_ms", spans.total_ms("runtime.interp"), "ms");
    report.metric(
        "runtime.peak_live_bytes",
        sum(&|o| o.space.peak_live as f64),
        "bytes",
    );
    report.metric(
        "runtime.total_allocated_bytes",
        sum(&|o| o.space.total_allocated as f64),
        "bytes",
    );
    report.metric(
        "runtime.regions_created",
        sum(&|o| o.space.regions_created as f64),
        "count",
    );
    report.metric("runtime.space_ratio_geomean", geomean, "ratio");
    report.metric(
        "trace.overhead_ratio",
        common::median(&traced_ms) / common::median(&plain),
        "ratio",
    );
    crate::shares(&mut report, &spans);
    report.row(format!(
        "{} untraced passes (p50 {:.1} ms), {} traced vm passes (p50 {:.1} ms)",
        plain.len(),
        common::median(&plain),
        traced_ms.len(),
        common::median(&traced_ms)
    ));
    report.row(format!(
        "{:<26} {:>10} {:>12} {:>10} {:>12} {:>10} {:>12} {:>10} {:>10} {:>8}",
        "program",
        "vm ms",
        "vm steps",
        "rvm ms",
        "rvm steps",
        "interp ms",
        "interp steps",
        "peak",
        "total",
        "ratio"
    ));
    for (i, b) in corpus.iter().enumerate() {
        let (rvm_ms, rvm_steps, interp_ms, interp_steps) = rvm_rows[i];
        let (steps, peak, total, ratio) = vm_out[i].as_ref().map_or((0, 0, 0, 0.0), |o| {
            (
                o.steps,
                o.space.peak_live,
                o.space.total_allocated,
                o.space.space_ratio(),
            )
        });
        report.row(format!(
            "{:<26} {:>10.3} {:>12} {:>10.3} {:>12} {:>10.3} {:>12} {:>10} {:>10} {:>8.4}",
            b.name,
            common::median(&per_program[i]),
            steps,
            rvm_ms,
            rvm_steps,
            interp_ms,
            interp_steps,
            peak,
            total,
            ratio
        ));
    }
    report
        .rows
        .extend(spans.unattributed_rows(&["vm.exec", "rvm.exec", "runtime.interp"], 1.0));
    common::export_trace(&mut report, &events, "execute", cjrc);
    report
}
