//! Benchmark: full matching runs — cuTS vs the GSI-style and
//! Gunrock-style baselines on the enron stand-in (the Table 3 engine
//! comparison as a wall-clock criterion group).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cuts_baseline::{GsiEngine, GunrockEngine};
use cuts_core::prelude::*;
use cuts_gpu_sim::{Device, DeviceConfig};
use cuts_graph::generators::clique;
use cuts_graph::{Dataset, Scale};

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    let data = Dataset::Enron.generate(Scale::Tiny);
    for k in [3usize, 4] {
        let q = clique(k);
        group.bench_with_input(BenchmarkId::new("cuts", format!("K{k}")), &q, |b, q| {
            let device = Device::new(DeviceConfig::v100_like());
            let engine = ExecSession::new(&device, EngineConfig::default());
            b.iter(|| black_box(engine.run(&data, q).unwrap().num_matches));
        });
        group.bench_with_input(BenchmarkId::new("gsi", format!("K{k}")), &q, |b, q| {
            let device = Device::new(DeviceConfig::v100_like());
            let engine = GsiEngine::new(&device);
            b.iter(|| black_box(engine.run(&data, q).unwrap().num_matches));
        });
        group.bench_with_input(BenchmarkId::new("gunrock", format!("K{k}")), &q, |b, q| {
            let device = Device::new(DeviceConfig::v100_like());
            let engine = GunrockEngine::new(&device);
            b.iter(|| black_box(engine.run(&data, q).unwrap().num_matches));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
