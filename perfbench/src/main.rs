//! Seeded, self-checking benchmark for cuts-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <social-expand|serve-mix|live-updates|dist-donate|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a table of every metric (name, value, unit, sample count; with
//! `--trace 0` also the unbounded host figures) and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits 1 when an output check fails, 2 on a
//! usage error. See README.md.

mod inputs;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{result_json, END_TO_END, HOST, PER_LAYER};
use spans::Spans;
use workloads::{Ctx, Outcome, NAMES};

const USAGE: &str =
    "usage: cuts-perfbench --workload <social-expand|serve-mix|live-updates|dist-donate|all> \
--seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workloads: Vec<&'static str>,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => ctx.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|_| bad())?;
                if !(ctx.seconds.is_finite() && ctx.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                ctx.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        NAMES.to_vec()
    } else {
        vec![*NAMES
            .iter()
            .find(|n| **n == workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?]
    };
    Ok(Args { workloads, ctx })
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    let mut spans = Spans::new(ctx.traced);
    let mut out = spans.scope("workload", 0, |spans| match name {
        "social-expand" => workloads::social_expand::run(ctx, spans),
        "serve-mix" => workloads::serve_mix::run(ctx, spans),
        "live-updates" => workloads::live_updates::run(ctx, spans),
        "dist-donate" => workloads::dist_donate::run(ctx, spans),
        _ => unreachable!("workload names are validated"),
    });
    if ctx.traced {
        let layers = spans.layers();
        for &(metric, _) in &PER_LAYER {
            if let Some(layer) = metric.strip_prefix("self_ms.") {
                let t = layers.get(layer).copied().unwrap_or_default();
                out.metrics.set(metric, t.self_ns as f64 / 1e6, t.count);
            }
        }
        let n = spans.records().len() as u64;
        out.metrics.set("trace.spans", n as f64, n);
        let path = PathBuf::from(".bench_out").join(format!("{name}-seed{}.spans.jsonl", ctx.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
        }
    }
    out
}

fn print_table(name: &str, ctx: &Ctx, out: &Outcome, list: &[(&'static str, &'static str)]) {
    println!(
        "== {name}  seed={} seconds={} trace={}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced)
    );
    let host: &[_] = if ctx.traced { &[] } else { &HOST };
    for (i, (metric, unit, value, samples)) in out
        .metrics
        .rows(list)
        .chain(out.metrics.rows(host))
        .enumerate()
    {
        if i == list.len() {
            println!("  -- host figures (not bounded)");
        }
        println!("  {metric:<32} {value:>16.6} {unit:<8} n={samples}");
    }
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<32} {ratio:>16.6} {:<8} n={}",
        "fail_ratio", "ratio", out.attempted
    );
    for p in &out.problems {
        println!("  FAILED: {p}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let list: &[(&str, &str)] = if args.ctx.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let single = args.workloads.len() == 1;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut correct = true;
    let mut metrics = Vec::new();
    for name in &args.workloads {
        let mut out = run_workload(name, &args.ctx);
        if out.attempted == 0 {
            out.problems.push("no operation was attempted".into());
            correct = false;
        }
        let rows: Vec<_> = out.metrics.rows(list).collect();
        for &(metric, _, value, _) in &rows {
            if !value.is_finite() {
                out.problems.push(format!("{metric} is not finite"));
                correct = false;
            }
        }
        print_table(name, &args.ctx, &out, list);
        correct &= out.failed == 0;
        attempted += out.attempted;
        failed += out.failed;
        for (metric, unit, value, _) in rows {
            let key = if single {
                metric.to_string()
            } else {
                format!("{name}.{metric}")
            };
            metrics.push((key, unit, value));
        }
    }
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &metrics).render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
