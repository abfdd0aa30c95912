//! Benchmark: search-kernel level expansions (Algorithm 1's inner loop)
//! on skewed and regular graphs. Depth 1 expands single roots; depth 2
//! expands sibling groups, where the kernel intersects each parent's
//! shared constraint once for all its children.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cuts_core::kernels::{expand_range, init_candidates, ExpandParams};
use cuts_core::{LevelMethod, MatchOrder};
use cuts_gpu_sim::{Device, DeviceConfig};
use cuts_graph::generators::clique;
use cuts_graph::{Dataset, Graph, Scale};
use cuts_trie::Trie;

/// Builds levels `0..=depth` of `plan` over `data` on a fresh trie and
/// returns the size of the last one.
fn expand_to(device: &Device, data: &Graph, plan: &MatchOrder, depth: usize) -> usize {
    let mut trie = Trie::on_device(device, 1 << 20).unwrap();
    init_candidates(device, data, plan, &trie, 256, None).unwrap();
    let mut frontier = trie.seal_level();
    for pos in 1..=depth {
        let params = ExpandParams {
            data,
            plan,
            pos,
            vwarp: 8,
            method: LevelMethod::PerPath,
            shared_words: 24576,
            placement: None,
            max_blocks: 256,
        };
        expand_range(device, &trie, frontier, &params).unwrap();
        frontier = trie.seal_level();
    }
    frontier.len()
}

fn bench_expand(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_kernel");
    group.sample_size(20);
    for ds in [Dataset::Enron, Dataset::RoadNetPA] {
        let data = ds.generate(Scale::Tiny);
        let query = clique(4);
        let plan = MatchOrder::compute(&query).unwrap();
        let device = Device::new(DeviceConfig::v100_like());
        for depth in [1, 2] {
            group.bench_with_input(
                BenchmarkId::new(format!("expand-level{depth}"), ds.name()),
                &data,
                |b, data| b.iter(|| black_box(expand_to(&device, data, &plan, depth))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_expand);
criterion_main!(benches);
