//! `compile`: every Fig 8 + Fig 9 program, cold, in a fresh `Session`
//! under default options, taken to a region-checked program lowered for
//! the default engine — everything `cjrc run` does before the first
//! instruction. A pass compiles the whole corpus in a seeded order.

use crate::common::{self, ms, Report, Rng, Spans};
use crate::expected;
use cj_benchmarks::Benchmark;
use cj_driver::{Session, SessionOptions};
use cj_infer::{InferOptions, InferStats};
use std::path::Path;
use std::time::{Duration, Instant};

/// The checked counts of one compiled program.
struct Compiled {
    stats: InferStats,
    vm_instructions: usize,
}

fn check_counts(report: &mut Report, b: &Benchmark, got: Result<Compiled, String>) {
    let e = expected::of(b.name);
    let verdict = got.and_then(|c| {
        let counts = (
            c.stats.regions_created,
            c.stats.localized_regions,
            c.vm_instructions,
        );
        let want = (e.infer_regions, e.localized_regions, e.vm_instructions);
        if counts == want {
            Ok(())
        } else {
            Err(format!(
                "(regions, letregs, instructions) = {counts:?}, expected {want:?}"
            ))
        }
    });
    let ok = verdict.is_ok();
    report.outcome(ok, || {
        format!("compile {}: {}", b.name, verdict.unwrap_err())
    });
}

/// The user-facing path: `Session::check` (which runs the independent
/// checker) then `Session::compiled`.
fn compile_session(b: &Benchmark) -> Result<Compiled, String> {
    let mut session = Session::new(b.source, SessionOptions::default());
    let compilation = session.check().map_err(|d| d.to_string())?;
    let compiled = session.compiled().map_err(|d| d.to_string())?;
    Ok(Compiled {
        stats: compilation.stats.clone(),
        vm_instructions: compiled.methods.iter().map(|m| m.code.len()).sum(),
    })
}

/// The same path as direct calls into each layer's public functions,
/// each inside a benchmark-owned span; the register tier is lowered too,
/// outside the timed part.
fn compile_layers(
    b: &Benchmark,
    timed: &mut Duration,
) -> Result<(Compiled, cj_rvm::RvmProgram), String> {
    let started = Instant::now();
    let (stats, compiled) = {
        let _program = cj_trace::span("bench", "compile.program");
        let ast = {
            let _s = cj_trace::span("frontend", "frontend.parse");
            cj_frontend::parser::parse_program(b.source).map_err(|d| format!("{d:?}"))?
        };
        let kernel = {
            let _s = cj_trace::span("frontend", "frontend.typecheck");
            cj_frontend::typecheck::check(&ast).map_err(|d| format!("{d:?}"))?
        };
        let (program, stats) = {
            let _s = cj_trace::span("core", "core.infer");
            cj_infer::infer(&kernel, InferOptions::default()).map_err(|e| format!("{e:?}"))?
        };
        {
            let _s = cj_trace::span("checker", "checker.check");
            cj_check::check(&program).map_err(|e| format!("{e:?}"))?;
        }
        let compiled = {
            let _s = cj_trace::span("vm", "vm.lower");
            cj_vm::lower_program(&program)
        };
        (stats, compiled)
    };
    *timed += started.elapsed();
    let rvm = {
        let _s = cj_trace::span("rvm", "rvm.lower");
        cj_rvm::lower_program(&compiled)
    };
    let vm_instructions = compiled.methods.iter().map(|m| m.code.len()).sum();
    Ok((
        Compiled {
            stats,
            vm_instructions,
        },
        rvm,
    ))
}

fn seeded_order(rng: &mut Rng, corpus: &[Benchmark]) -> Vec<Benchmark> {
    let mut order = corpus.to_vec();
    rng.shuffle(&mut order);
    order
}

/// Untraced passes for `budget`; returns each pass's time in ms.
fn session_passes(
    report: &mut Report,
    rng: &mut Rng,
    corpus: &[Benchmark],
    budget: Duration,
) -> Vec<f64> {
    let mut passes = Vec::new();
    let started = Instant::now();
    while started.elapsed() < budget || passes.is_empty() {
        let order = seeded_order(rng, corpus);
        let mut results = Vec::with_capacity(order.len());
        let pass = Instant::now();
        for b in &order {
            results.push(compile_session(b));
        }
        passes.push(ms(pass.elapsed()));
        for (b, got) in order.iter().zip(results) {
            check_counts(report, b, got);
        }
    }
    passes
}

pub fn run(seed: u64, seconds: f64, traced: bool, cjrc: Option<&Path>) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(seed);
    let corpus = cj_benchmarks::all_benchmarks();
    // Set-up: one warm-up pass (the process-wide symbol interner and the
    // allocator fill here), five times over.
    let ((), setup_s) = common::timed_setup(5, || {
        for b in &corpus {
            let _ = std::hint::black_box(compile_session(b));
        }
    });
    let budget = Duration::from_secs_f64(seconds);
    if !traced {
        let passes = session_passes(&mut report, &mut rng, &corpus, budget);
        let (tail, label) = common::tail(&passes);
        report.metric("setup_s", setup_s, "s");
        report.metric("latency_ms_p50", common::median(&passes), "ms");
        report.metric("latency_ms_tail", tail, "ms");
        report.row(format!(
            "{} cold passes over {} programs; tail is {label}",
            passes.len(),
            corpus.len()
        ));
        return report;
    }

    // Traced: half the budget untraced through `Session` (the base of the
    // overhead ratio), half traced through direct layer calls.
    let plain = session_passes(&mut report, &mut rng, &corpus, budget / 2);
    cj_trace::install();
    let mut traced_ms = Vec::new();
    let mut totals = InferStats::default();
    let (mut instructions, mut registers, mut fused) = (0usize, 0usize, 0u64);
    let started = Instant::now();
    while started.elapsed() < budget / 2 || traced_ms.is_empty() {
        let order = seeded_order(&mut rng, &corpus);
        let mut timed = Duration::ZERO;
        let mut results = Vec::with_capacity(order.len());
        for b in &order {
            results.push(compile_layers(b, &mut timed));
        }
        traced_ms.push(ms(timed));
        if traced_ms.len() == 1 {
            for got in results.iter().flatten() {
                let (c, rvm) = got;
                let s = &c.stats;
                totals.methods_inferred += s.methods_inferred;
                totals.methods_reused += s.methods_reused;
                totals.sccs_solved += s.sccs_solved;
                totals.sccs_reused += s.sccs_reused;
                totals.global_iterations += s.global_iterations;
                totals.fixpoint_iterations += s.fixpoint_iterations;
                totals.regions_created += s.regions_created;
                totals.localized_regions += s.localized_regions;
                instructions += c.vm_instructions;
                registers += rvm.instruction_count();
                fused += rvm.fused_count();
            }
        }
        for (b, got) in order.iter().zip(results) {
            check_counts(&mut report, b, got.map(|(c, _)| c));
        }
    }
    let events = cj_trace::uninstall();
    let spans = Spans::new(&events);
    let n = traced_ms.len() as f64;
    let per = |v: f64| v / n;
    report.metric(
        "frontend.parse_ms",
        per(spans.total_ms("frontend.parse")),
        "ms",
    );
    report.metric(
        "frontend.typecheck_ms",
        per(spans.total_ms("frontend.typecheck")),
        "ms",
    );
    report.metric("core.infer_ms", per(spans.total_ms("core.infer")), "ms");
    report.metric(
        "core.infer_bodies_self_ms",
        per(spans.self_ms("infer-bodies")),
        "ms",
    );
    report.metric("core.solve_self_ms", per(spans.self_ms("solve")), "ms");
    report.metric("core.solve_scc_ms", per(spans.total_ms("solve-scc")), "ms");
    report.metric(
        "core.infer_unattributed_ms",
        per(spans.self_ms("core.infer")),
        "ms",
    );
    crate::infer_counts(&mut report, &totals);
    report.metric(
        "checker.check_ms",
        per(spans.total_ms("checker.check")),
        "ms",
    );
    report.metric("vm.lower_ms", per(spans.total_ms("vm.lower")), "ms");
    report.metric("vm.instructions", instructions as f64, "count");
    report.metric("rvm.lower_ms", per(spans.total_ms("rvm.lower")), "ms");
    report.metric("rvm.register_instructions", registers as f64, "count");
    report.metric("rvm.fused_superinstructions", fused as f64, "count");
    report.metric(
        "trace.overhead_ratio",
        common::median(&traced_ms) / common::median(&plain),
        "ratio",
    );
    crate::shares(&mut report, &spans);
    report.row(format!(
        "{} untraced passes (p50 {:.3} ms), {} traced passes (p50 {:.3} ms)",
        plain.len(),
        common::median(&plain),
        traced_ms.len(),
        common::median(&traced_ms)
    ));
    report
        .rows
        .extend(spans.unattributed_rows(&["compile.program", "core.infer", "solve"], n));
    common::export_trace(&mut report, &events, "compile", cjrc);
    report
}
