//! `vm_bench` — the engine benchmark harness behind `BENCH_vm.json`.
//!
//! Runs every benchmark program (the Fig 8 RegJava suite and the Fig 9
//! Olden suite) on **all three** execution tiers — the tree-walking
//! interpreter, the `cj-vm` stack bytecode VM and the `cj-rvm`
//! direct-threaded register machine — asserting their outcomes are
//! identical (value, prints, space statistics), and records wall time,
//! steps/dispatches retired, peak live bytes and the space ratio per
//! engine, plus per-suite geometric-mean speedups for each tier pair.
//!
//! ```text
//! cargo run -p cj-bench --release --bin vm_bench -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` uses the small test inputs (smoke runs); the default — used
//! by CI too — runs the paper inputs. Output goes to `BENCH_vm.json` (or
//! `--out PATH`) and a table is printed to stdout. The harness exits
//! non-zero when any program's outcome diverges between engines, or when
//! a tier fails its perf acceptance gate on Olden wall time: the VM must
//! beat the interpreter AND the register machine must beat the VM.

use cj_benchmarks::{all_benchmarks, Benchmark, Suite};
use cj_infer::{InferOptions, SubtypeMode};
use cj_runtime::{run_main_big_stack, Outcome, RunConfig, Value};
use std::time::Instant;

struct EngineRow {
    wall_ms: f64,
    steps: u64,
    peak_live: usize,
    total_allocated: usize,
    space_ratio: f64,
}

struct BenchRow {
    name: &'static str,
    suite: Suite,
    input: &'static str,
    instructions: usize,
    register_instructions: usize,
    fused: u64,
    interp: EngineRow,
    vm: EngineRow,
    rvm: EngineRow,
}

fn engine_row(out: &Outcome, wall_ms: f64) -> EngineRow {
    EngineRow {
        wall_ms,
        steps: out.steps,
        peak_live: out.space.peak_live,
        total_allocated: out.space.total_allocated,
        space_ratio: out.space.space_ratio(),
    }
}

fn observable(out: &Outcome) -> (String, Vec<String>, cj_runtime::SpaceStats) {
    (out.value.to_string(), out.prints.clone(), out.space)
}

/// Times `f` over `n` runs and keeps the best (minimum) wall time — the
/// standard way to strip scheduler/cache noise from short deterministic
/// programs — along with one outcome (all runs are identical).
fn best_of(n: u32, mut f: impl FnMut() -> Outcome) -> (Outcome, f64) {
    let mut best_ms = f64::INFINITY;
    let mut out = None;
    for _ in 0..n {
        let t = Instant::now();
        let o = f();
        best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(o);
    }
    (out.expect("n >= 1"), best_ms)
}

fn measure(b: &Benchmark, quick: bool) -> BenchRow {
    let opts = InferOptions::with_mode(SubtypeMode::Field);
    let mut session = cj_bench::session_for(b);
    let compilation = session
        .check_with(opts)
        .unwrap_or_else(|e| panic!("{}: {}", b.name, session.emitter().render_all(&e)));
    let compiled = session
        .compiled_with(opts)
        .unwrap_or_else(|e| panic!("{}: {}", b.name, session.emitter().render_all(&e)));
    let register = session
        .rvm_compiled_with(opts)
        .unwrap_or_else(|e| panic!("{}: {}", b.name, session.emitter().render_all(&e)));
    let input = if quick { b.test_input } else { b.paper_input };
    let args: Vec<Value> = input.iter().map(|&v| Value::Int(v)).collect();
    let cfg = RunConfig::default();

    // The bytecode tiers are fast enough that scheduler noise swamps a
    // single run on the smaller programs; best-of-3 makes the speedup
    // columns reproducible. The interpreter baseline runs long enough
    // that two runs suffice.
    let (vm, vm_ms) = best_of(3, || {
        cj_vm::run_main(&compiled, &args, cfg).unwrap_or_else(|e| panic!("{} [vm]: {e}", b.name))
    });
    let (rvm, rvm_ms) = best_of(3, || {
        cj_rvm::run_main(&register, &args, cfg).unwrap_or_else(|e| panic!("{} [rvm]: {e}", b.name))
    });
    let (interp, interp_ms) = best_of(2, || {
        run_main_big_stack(&compilation.program, &args, cfg)
            .unwrap_or_else(|e| panic!("{} [interp]: {e}", b.name))
    });

    assert_eq!(
        observable(&vm),
        observable(&interp),
        "{}: vm/interp diverged",
        b.name
    );
    assert_eq!(
        observable(&rvm),
        observable(&vm),
        "{}: rvm/vm diverged",
        b.name
    );

    BenchRow {
        name: b.name,
        suite: b.suite,
        input: if quick { "test" } else { b.input_display },
        instructions: compiled.instruction_count(),
        register_instructions: register.instruction_count(),
        fused: register.fused_count(),
        interp: engine_row(&interp, interp_ms),
        vm: engine_row(&vm, vm_ms),
        rvm: engine_row(&rvm, rvm_ms),
    }
}

/// Measures `RegionHeap` buffer recycling directly: the letreg churn
/// pattern (push, allocate, pop, repeat) that dominates the RegJava
/// loops. Reports how many pushes were served with a warm recycled
/// buffer and the wall time of the churn loop.
fn measure_heap_pool(quick: bool) -> (u64, u64, f64) {
    use cj_vm::heap::RegionHeap;
    let rounds: u64 = if quick { 20_000 } else { 200_000 };
    let mut heap = RegionHeap::new();
    let t0 = Instant::now();
    for i in 0..rounds {
        let r = heap.push();
        // A handful of small objects per region, like a loop-body letreg.
        for f in 0..4u64 {
            heap.alloc_object(r, 1, &[r], &[i, f]).expect("live region");
        }
        heap.pop(r).expect("top of stack");
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (rounds, heap.chunks_reused(), wall_ms)
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0u32);
    for x in xs {
        sum += x.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

fn engine_json(e: &EngineRow) -> String {
    format!(
        "{{\"wall_ms\":{:.4},\"steps\":{},\"peak_live\":{},\"total_allocated\":{},\
         \"space_ratio\":{:.6}}}",
        e.wall_ms, e.steps, e.peak_live, e.total_allocated, e.space_ratio
    )
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_vm.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => {
                eprintln!("vm_bench: unknown argument `{other}`");
                eprintln!("usage: vm_bench [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let rows: Vec<BenchRow> = all_benchmarks()
        .iter()
        .map(|b| {
            let row = measure(b, quick);
            println!(
                "{:28} {:8} interp {:9.3}ms  vm {:9.3}ms  rvm {:9.3}ms  \
                 vm/interp {:5.2}x  rvm/vm {:5.2}x  ratio {:.4}",
                row.name,
                match row.suite {
                    Suite::RegJava => "regjava",
                    Suite::Olden => "olden",
                },
                row.interp.wall_ms,
                row.vm.wall_ms,
                row.rvm.wall_ms,
                row.interp.wall_ms / row.vm.wall_ms,
                row.vm.wall_ms / row.rvm.wall_ms,
                row.rvm.space_ratio
            );
            row
        })
        .collect();

    let suite_geomean = |suite: Suite, speedup: fn(&BenchRow) -> f64| {
        geomean(rows.iter().filter(|r| r.suite == suite).map(speedup))
    };
    let vm_vs_interp = |r: &BenchRow| r.interp.wall_ms / r.vm.wall_ms;
    let rvm_vs_vm = |r: &BenchRow| r.vm.wall_ms / r.rvm.wall_ms;
    let rvm_vs_interp = |r: &BenchRow| r.interp.wall_ms / r.rvm.wall_ms;
    let olden_vm = suite_geomean(Suite::Olden, vm_vs_interp);
    let regjava_vm = suite_geomean(Suite::RegJava, vm_vs_interp);
    let overall_vm = geomean(rows.iter().map(vm_vs_interp));
    let olden_rvm = suite_geomean(Suite::Olden, rvm_vs_vm);
    let regjava_rvm = suite_geomean(Suite::RegJava, rvm_vs_vm);
    let overall_rvm = geomean(rows.iter().map(rvm_vs_vm));
    let olden_rvm_interp = suite_geomean(Suite::Olden, rvm_vs_interp);
    let overall_rvm_interp = geomean(rows.iter().map(rvm_vs_interp));
    println!(
        "geomean vm-vs-interp: olden {olden_vm:.2}x  regjava {regjava_vm:.2}x  \
         overall {overall_vm:.2}x"
    );
    println!(
        "geomean rvm-vs-vm:    olden {olden_rvm:.2}x  regjava {regjava_rvm:.2}x  \
         overall {overall_rvm:.2}x"
    );
    println!(
        "geomean rvm-vs-interp: olden {olden_rvm_interp:.2}x  overall {overall_rvm_interp:.2}x"
    );

    let (pool_rounds, pool_reused, pool_ms) = measure_heap_pool(quick);
    println!(
        "heap pool: {pool_reused}/{pool_rounds} region pushes served from \
         recycled chunks ({pool_ms:.3}ms churn loop)"
    );

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\":\"{}\",\"suite\":\"{}\",\"input\":\"{}\",\
                 \"compiled_instructions\":{},\"register_instructions\":{},\
                 \"fused_superinstructions\":{},\
                 \"interp\":{},\"vm\":{},\"rvm\":{},\
                 \"vm_vs_interp\":{:.4},\"rvm_vs_vm\":{:.4},\"rvm_vs_interp\":{:.4}}}",
                r.name,
                match r.suite {
                    Suite::RegJava => "regjava",
                    Suite::Olden => "olden",
                },
                r.input,
                r.instructions,
                r.register_instructions,
                r.fused,
                engine_json(&r.interp),
                engine_json(&r.vm),
                engine_json(&r.rvm),
                vm_vs_interp(r),
                rvm_vs_vm(r),
                rvm_vs_interp(r)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\":\"bench-vm/v2\",\n  \"input_scale\":\"{}\",\n  \
         \"benchmarks\":[\n{}\n  ],\n  \"summary\":{{\
         \"olden_geomean_speedup\":{olden_vm:.4},\
         \"regjava_geomean_speedup\":{regjava_vm:.4},\
         \"overall_geomean_speedup\":{overall_vm:.4},\
         \"olden_rvm_vs_vm_geomean\":{olden_rvm:.4},\
         \"regjava_rvm_vs_vm_geomean\":{regjava_rvm:.4},\
         \"overall_rvm_vs_vm_geomean\":{overall_rvm:.4},\
         \"olden_rvm_vs_interp_geomean\":{olden_rvm_interp:.4},\
         \"overall_rvm_vs_interp_geomean\":{overall_rvm_interp:.4},\
         \"vm_faster_on_olden\":{},\"rvm_faster_on_olden\":{},\
         \"heap_pool\":{{\"churn_rounds\":{},\"chunks_reused\":{},\"wall_ms\":{:.4}}}}}\n}}\n",
        if quick { "test" } else { "paper" },
        body.join(",\n"),
        olden_vm > 1.0,
        olden_rvm > 1.0,
        pool_rounds,
        pool_reused,
        pool_ms
    );
    std::fs::write(&out_path, &json).expect("write bench output");
    println!("wrote {out_path}");

    let mut failed = false;
    if olden_vm <= 1.0 {
        eprintln!(
            "vm_bench: FAIL — VM is not faster than the interpreter on olden \
             (geomean {olden_vm:.2}x)"
        );
        failed = true;
    }
    if olden_rvm <= 1.0 {
        eprintln!(
            "vm_bench: FAIL — register machine is not faster than the VM on olden \
             (geomean {olden_rvm:.2}x)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
