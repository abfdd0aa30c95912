//! Benchmark: planning-vs-execution ablation. Measures what the
//! QueryPlan / ExecSession split buys: a cold run (fresh session per
//! iteration — plan rebuilt, trie buffers re-allocated) against a warm
//! session (plan served from the LRU cache, buffers from the pool), and
//! one plan executed over a whole slice of data graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cuts_core::prelude::*;
use cuts_gpu_sim::{Device, DeviceConfig};
use cuts_graph::generators::{clique, erdos_renyi};
use cuts_graph::{Dataset, Graph, Scale};

fn bench_plan_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_reuse");
    group.sample_size(10);
    let data = Dataset::Enron.generate(Scale::Tiny);
    for k in [3usize, 4] {
        let q = clique(k);
        // Cold: a fresh session every iteration pays for plan
        // construction and device allocation each time.
        group.bench_with_input(BenchmarkId::new("cold", format!("K{k}")), &q, |b, q| {
            let device = Device::new(DeviceConfig::v100_like());
            b.iter(|| {
                let session = ExecSession::new(&device, EngineConfig::default());
                black_box(session.run(&data, q).unwrap().num_matches)
            });
        });
        // Warm: one session for all iterations; after the first run the
        // plan is a cache hit and the trie buffers come from the pool.
        group.bench_with_input(BenchmarkId::new("warm", format!("K{k}")), &q, |b, q| {
            let device = Device::new(DeviceConfig::v100_like());
            let session = ExecSession::new(&device, EngineConfig::default());
            session.run(&data, q).unwrap();
            b.iter(|| black_box(session.run(&data, q).unwrap().num_matches));
        });
    }
    group.finish();
}

fn bench_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_reuse_batch");
    group.sample_size(10);
    let graphs: Vec<Graph> = (0..8).map(|s| erdos_renyi(200, 800, s)).collect();
    let q = clique(3);
    // Per-graph fresh engines: plan rebuilt for every data graph.
    group.bench_function(BenchmarkId::new("fresh_per_graph", "8xER"), |b| {
        let device = Device::new(DeviceConfig::v100_like());
        b.iter(|| {
            let total: u64 = graphs
                .iter()
                .map(|g| {
                    let session = ExecSession::new(&device, EngineConfig::default());
                    session.run(g, &q).unwrap().num_matches
                })
                .sum();
            black_box(total)
        });
    });
    // Plan once, execute the plan over the whole slice.
    group.bench_function(BenchmarkId::new("plan_once", "8xER"), |b| {
        let device = Device::new(DeviceConfig::v100_like());
        let session = ExecSession::new(&device, EngineConfig::default());
        b.iter(|| {
            let plan = session.plan_for(&q).unwrap();
            let total: u64 = graphs
                .iter()
                .map(|g| session.run_with_plan(&plan, g).unwrap().num_matches)
                .sum();
            black_box(total)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_plan_reuse, bench_batched);
criterion_main!(benches);
