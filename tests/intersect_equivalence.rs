//! Cross-strategy equivalence: the intersection micro-kernel (c, p, or
//! bitmap), the plan-time kernel policy, and the signature prefilter are
//! pure execution-strategy knobs — none of them may change *what* is
//! matched, only *how fast*. Every workload here must produce identical
//! match counts and identical per-level trie counts across all four
//! `--intersect` arms with the prefilter both on and off, against the
//! fixed c-intersection run as ground truth. The sibling-group search
//! kernel is covered the same way: placement on and off, chunk
//! boundaries that split sibling runs, and seeded frontiers.

use cuts::graph::datasets::{Dataset, Scale};
use cuts::graph::generators::{chain, clique, cycle, erdos_renyi, mesh2d, star};
use cuts::graph::Graph;
use cuts::prelude::*;
use cuts::trie::HostTrie;
use cuts_core::IntersectStrategy;

/// Cyclic labels, enough classes to prune but not empty the result.
fn labels(n: usize, classes: u32) -> Vec<u32> {
    (0..n as u32).map(|v| v % classes).collect()
}

fn data_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "enron-tiny",
            Dataset::Enron.generate(Scale::Custom(1.0 / 4096.0)),
        ),
        (
            "gowalla-tiny",
            Dataset::Gowalla.generate(Scale::Custom(1.0 / 4096.0)),
        ),
        ("mesh-8x8", mesh2d(8, 8)),
        ("er-60-300", erdos_renyi(60, 300, 23)),
        ("star-hub", star(48)),
        ("clique-7", clique(7)),
        (
            "er-labeled",
            erdos_renyi(50, 220, 7).with_labels(labels(50, 3)),
        ),
    ]
}

fn queries(labeled: bool) -> Vec<(&'static str, Graph)> {
    let mut qs = vec![
        ("triangle", clique(3)),
        ("k4", clique(4)),
        ("chain4", chain(4)),
        ("cycle4", cycle(4)),
    ];
    if labeled {
        qs = qs
            .into_iter()
            .map(|(n, q)| {
                let l = labels(q.num_vertices(), 3);
                (n, q.with_labels(l))
            })
            .collect();
    }
    qs
}

const STRATEGIES: [IntersectStrategy; 4] = [
    IntersectStrategy::Auto,
    IntersectStrategy::CIntersection,
    IntersectStrategy::PIntersection,
    IntersectStrategy::Bitmap,
];

fn run(data: &Graph, query: &Graph, config: EngineConfig) -> MatchResult {
    let device = Device::new(DeviceConfig::test_small());
    ExecSession::new(&device, config).run(data, query).unwrap()
}

#[test]
fn all_strategies_and_prefilter_settings_agree() {
    for (dname, data) in data_graphs() {
        for (qname, query) in queries(data.is_labeled()) {
            // Ground truth per prefilter setting: the paper's fixed
            // c-intersection. The prefilter may shrink *intermediate*
            // trie levels (pruning candidates that could never complete),
            // so level counts are compared within a prefilter setting;
            // the final match count must be invariant across everything.
            let want: Vec<MatchResult> = [false, true]
                .iter()
                .map(|&pf| {
                    run(
                        &data,
                        &query,
                        EngineConfig::default()
                            .with_intersect(IntersectStrategy::CIntersection)
                            .with_signature_prefilter(pf),
                    )
                })
                .collect();
            assert_eq!(
                want[0].num_matches, want[1].num_matches,
                "{dname}/{qname}: prefilter must never change the count"
            );
            for (on, off) in want[1].level_counts.iter().zip(&want[0].level_counts) {
                assert!(
                    on <= off,
                    "{dname}/{qname}: prefilter may only shrink levels"
                );
            }
            for strat in STRATEGIES {
                for prefilter in [false, true] {
                    let got = run(
                        &data,
                        &query,
                        EngineConfig::default()
                            .with_intersect(strat)
                            .with_signature_prefilter(prefilter),
                    );
                    let want = &want[prefilter as usize];
                    let how = format!("{strat:?}/prefilter={prefilter}");
                    assert_eq!(
                        got.num_matches, want.num_matches,
                        "{dname}/{qname}: {how} count"
                    );
                    assert_eq!(
                        got.level_counts, want.level_counts,
                        "{dname}/{qname}: {how} level counts"
                    );
                }
            }
        }
    }
}

#[test]
fn prefilter_never_prunes_on_unlabeled_regular_graphs_incorrectly() {
    // A clique query on a clique data graph: every vertex satisfies the
    // signature, so the prefilter must be a no-op on the result.
    let data = clique(6);
    let query = clique(4);
    let on = run(
        &data,
        &query,
        EngineConfig::default().with_signature_prefilter(true),
    );
    let off = run(
        &data,
        &query,
        EngineConfig::default().with_signature_prefilter(false),
    );
    assert_eq!(on.num_matches, off.num_matches);
    assert_eq!(on.level_counts, off.level_counts);
}

/// The search kernel expands sibling groups (runs of frontier entries
/// with one parent). How those runs are laid out must not matter:
/// whether placement shuffles the tiles they are dealt in (under two
/// placement seeds), or whether a tight budget's hybrid chunks cut runs
/// in two. Every setting must match the roomy, unshuffled fixed-c run
/// exactly, under all four strategies.
#[test]
fn sibling_groups_agree_across_placement_and_chunking() {
    // 4096 device words leave a trie of about 1.8k entries; an odd chunk
    // size makes chunk boundaries fall inside sibling runs.
    let tight = DeviceConfig::test_small().with_global_mem_words(1 << 12);
    let mut chunked_runs = 0;
    for (dname, data) in data_graphs() {
        for (qname, query) in queries(data.is_labeled()) {
            let base = EngineConfig::default().with_randomize_placement(false);
            let want = run(
                &data,
                &query,
                base.clone()
                    .with_intersect(IntersectStrategy::CIntersection),
            );
            for strat in STRATEGIES {
                for placement in [false, true] {
                    for seed in [0xCBF5, 7] {
                        let config = EngineConfig {
                            seed,
                            ..base
                                .clone()
                                .with_intersect(strat)
                                .with_randomize_placement(placement)
                        };
                        let got = run(&data, &query, config.clone());
                        let how = format!("{strat:?}/placement={placement}/seed={seed}");
                        assert_eq!(got.num_matches, want.num_matches, "{dname}/{qname}: {how}");
                        assert_eq!(
                            got.level_counts, want.level_counts,
                            "{dname}/{qname}: {how} level counts"
                        );

                        let device = Device::new(tight.clone());
                        let got = ExecSession::new(&device, config.with_chunk_size(7))
                            .run(&data, &query)
                            .unwrap();
                        chunked_runs += usize::from(got.used_chunking);
                        assert_eq!(
                            got.num_matches, want.num_matches,
                            "{dname}/{qname}: {how}, tight budget"
                        );
                        assert_eq!(
                            got.level_counts, want.level_counts,
                            "{dname}/{qname}: {how}, tight budget level counts"
                        );
                    }
                }
            }
        }
    }
    assert!(chunked_runs > 0, "the tight budget must force chunking");
}

/// Seeded entry points run the same kernel from a loaded frontier: a
/// depth-1 seed of every vertex that may host the root, deepened once
/// with `expand_seed_once`, must complete to the unseeded count under
/// all four strategies, and the deepened frontier must be identical
/// across them.
#[test]
fn seeded_runs_agree_across_strategies() {
    for (dname, data) in data_graphs() {
        for (qname, query) in queries(data.is_labeled()) {
            let want = run(&data, &query, EngineConfig::default()).num_matches;
            let mut deepened: Option<Vec<Vec<u32>>> = None;
            for strat in STRATEGIES {
                let device = Device::new(DeviceConfig::test_small());
                let session =
                    ExecSession::new(&device, EngineConfig::default().with_intersect(strat));
                let plan = session.plan_for(&query).unwrap();
                let roots: Vec<Vec<u32>> = (0..data.num_vertices() as u32)
                    .filter(|&v| plan.order.root_passes(&data, v))
                    .map(|v| vec![v])
                    .collect();
                let roots = HostTrie::from_flat_paths(&roots);
                let from_roots = session.execute(&plan, &data, Some(&roots), None).unwrap();
                assert_eq!(
                    from_roots.num_matches, want,
                    "{dname}/{qname}: {strat:?} roots"
                );
                let deeper = session.expand_seed_once(&plan, &data, &roots).unwrap();
                let from_deeper = session.execute(&plan, &data, Some(&deeper), None).unwrap();
                assert_eq!(
                    from_deeper.num_matches, want,
                    "{dname}/{qname}: {strat:?} depth 2"
                );
                let mut paths = deeper.paths_at_level(1);
                paths.sort_unstable();
                match &deepened {
                    None => deepened = Some(paths),
                    Some(first) => assert_eq!(&paths, first, "{dname}/{qname}: {strat:?} frontier"),
                }
            }
        }
    }
}
