//! Warm-start equivalence: a session restored from a snapshot must serve
//! the full graph × query matrix with results identical to cold runs,
//! while building **zero** plans (`stats().plans.misses == 0`) and never
//! re-profiling the data graph (the global `profile_builds` counter does
//! not move once the container is decoded). The snapshot travels through
//! its wire encoding — `capture → encode → decode` — so this also
//! exercises the container round trip end to end.

use std::collections::BTreeSet;

use cuts::engine::Snapshot;
use cuts::graph::datasets::{Dataset, Scale};
use cuts::graph::generators::{chain, clique, cycle, erdos_renyi, mesh2d, star};
use cuts::graph::profile::profile_builds;
use cuts::graph::Graph;
use cuts::prelude::*;
use cuts::trie::HostTrie;

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

#[test]
fn warm_sessions_match_cold_runs_with_zero_plan_builds() {
    for (dname, data) in data_graphs() {
        let qs = queries(data.is_labeled());

        // Cold phase: one fresh session plans and runs every query.
        let device = Device::new(DeviceConfig::test_small());
        let cold = ExecSession::new(&device, EngineConfig::default());
        let want: Vec<MatchResult> = qs
            .iter()
            .map(|(_, q)| cold.run(&data, q).unwrap())
            .collect();
        assert_eq!(
            cold.stats().plans.misses,
            qs.len() as u64,
            "{dname}: every cold query builds its plan"
        );

        // Persist, then restore through the wire format.
        let snap = Snapshot::capture(&data, &cold);
        assert_eq!(snap.plans().len(), qs.len(), "{dname}: all plans captured");
        let bytes = snap.encode();
        let restored = Snapshot::decode(&bytes).unwrap();

        // Warm phase: the decoded graph already carries its profile and
        // the seeded cache already holds every plan.
        let builds_before = profile_builds();
        let warm_device = Device::new(DeviceConfig::test_small());
        let warm = ExecSession::from_snapshot(&warm_device, EngineConfig::default(), &restored);
        for ((qname, q), want) in qs.iter().zip(&want) {
            let got = warm.run(restored.graph(), q).unwrap();
            assert_eq!(
                got.num_matches, want.num_matches,
                "{dname}/{qname}: warm count must equal cold count"
            );
            assert_eq!(
                got.level_counts, want.level_counts,
                "{dname}/{qname}: warm trie levels must equal cold"
            );
        }
        let s = warm.stats();
        assert_eq!(s.plans.misses, 0, "{dname}: warm session built a plan");
        assert_eq!(
            s.plans.hits,
            qs.len() as u64,
            "{dname}: every warm query must hit the seeded cache"
        );
        assert_eq!(
            profile_builds(),
            builds_before,
            "{dname}: warm session re-profiled the data graph"
        );
    }
}

#[test]
fn idle_warm_session_stats_render_without_lookups() {
    let data = mesh2d(4, 4);
    let device = Device::new(DeviceConfig::test_small());
    let cold = ExecSession::new(&device, EngineConfig::default());
    cold.run(&data, &clique(3)).unwrap();
    let snap = Snapshot::capture(&data, &cold);

    // A freshly restored session has seeded plans but zero lookups:
    // every ratio and rendering path must cope with 0 hits / 0 builds.
    let warm_device = Device::new(DeviceConfig::test_small());
    let warm = ExecSession::from_snapshot(&warm_device, EngineConfig::default(), &snap);
    let s = warm.stats();
    assert_eq!(s.plans.hits + s.plans.misses, 0);
    assert_eq!(s.plans.hit_ratio(), 0.0, "0/0 lookups must not be NaN");
    assert_eq!(s.plans.len, 1, "the captured plan is resident");
    let rendered = cuts_obs::ToJson::to_json(&s).render();
    cuts_obs::Json::parse(&rendered).expect("stats render as valid JSON with zero lookups");
}

/// The donation-resume path (a seeded `execute`) must work on a session that
/// never planned anything itself: the plan comes from the
/// snapshot-seeded cache.
#[test]
fn run_seeded_on_a_warm_session_builds_no_plans() {
    let data = mesh2d(6, 6);
    let query = chain(3);
    let device = Device::new(DeviceConfig::test_small());
    let cold = ExecSession::new(&device, EngineConfig::default());
    let full = cold.run(&data, &query).unwrap();

    // Roots (in matching-order space) of every completed embedding: the
    // minimal seed set whose completions are exactly the full result.
    let plan = cold.plan_for(&query).unwrap();
    let root_q = plan.order.order[0] as usize;
    let mut roots = BTreeSet::new();
    cold.execute(
        &plan,
        &data,
        None,
        Some(&mut |m| {
            roots.insert(m[root_q]);
        }),
    )
    .unwrap();
    let seed_paths: Vec<Vec<u32>> = roots.into_iter().map(|r| vec![r]).collect();
    let seed = HostTrie::from_flat_paths(&seed_paths);

    let snap = Snapshot::capture(&data, &cold);
    let restored = Snapshot::decode(&snap.encode()).unwrap();
    let warm_device = Device::new(DeviceConfig::test_small());
    let warm = ExecSession::from_snapshot(&warm_device, EngineConfig::default(), &restored);

    let warm_plan = warm.plan_for(&query).unwrap();
    let seeded = warm
        .execute(&warm_plan, restored.graph(), Some(&seed), None)
        .unwrap();
    assert_eq!(seeded.num_matches, full.num_matches);

    let s = warm.stats();
    assert_eq!(s.plans.misses, 0, "seeded runs must reuse the stored plan");
    assert_eq!(s.plans.hits, 1, "one cache hit per seeded run");
}
