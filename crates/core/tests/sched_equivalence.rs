//! Serving-tier semantics on one rank: lane-count equivalence with the
//! serial loop, starvation-freedom under an adversarial priority mix,
//! arena reuse, and the memory-admission invariant.

use std::time::Duration;

use cuts_core::prelude::*;
use cuts_core::sched::Job;
use cuts_gpu_sim::DeviceConfig;
use cuts_graph::generators;

/// A mixed stream: cheap and expensive jobs, repeated queries (plan-cache
/// hits), one under-estimated job that forces the growth-retry path, and
/// one unplannable job that must fail identically everywhere.
fn job_mix() -> Vec<Job> {
    let mesh = std::sync::Arc::new(generators::mesh2d(8, 8));
    let er = std::sync::Arc::new(generators::erdos_renyi(64, 200, 1));
    let tricky = std::sync::Arc::new(generators::erdos_renyi(48, 140, 7));
    let clique3 = std::sync::Arc::new(generators::clique(3));
    let chain4 = std::sync::Arc::new(generators::chain(4));
    let chain5 = std::sync::Arc::new(generators::chain(5));
    let disconnected = std::sync::Arc::new(cuts_graph::Graph::undirected(4, &[(0, 1), (2, 3)]));
    let mut jobs = Vec::new();
    for i in 0..4 {
        jobs.push(Job::new(mesh.clone(), clique3.clone()).with_priority(i));
    }
    for _ in 0..3 {
        jobs.push(Job::new(er.clone(), chain4.clone()));
    }
    // Undershoots the §5 estimate: exercises deterministic trie growth.
    jobs.push(Job::new(tricky.clone(), chain5.clone()));
    jobs.push(Job::new(mesh.clone(), chain4.clone()).with_deadline(Duration::from_millis(50)));
    jobs.push(Job::new(er, clique3).with_name("last"));
    jobs.push(Job::new(mesh, disconnected).with_name("unplannable"));
    jobs
}

fn tier(config: ServeConfigBuilder) -> ServeTier {
    ServeTier::new(config.build().unwrap())
}

#[test]
fn lane_counts_are_byte_identical_to_serial() {
    let jobs = job_mix();
    let serial = tier(ServeConfig::builder()).run_serial(&jobs).unwrap();
    assert_eq!(serial.outcomes.len(), jobs.len());
    assert_eq!(serial.stats.failed, 1); // only the unplannable job

    for lanes in [1usize, 2, 4] {
        let report = tier(ServeConfig::builder().lanes(lanes))
            .run_stream(&jobs)
            .unwrap();
        assert_eq!(report.outcomes.len(), jobs.len(), "{lanes} lanes");
        assert_eq!(report.stats.failed, 1, "{lanes} lanes");
        for (a, b) in serial.outcomes.iter().zip(&report.outcomes) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.trie_entries, b.trie_entries,
                "job {:?} sized differently at {lanes} lanes",
                a.id
            );
            match (&a.result, &b.result) {
                (Ok(x), Ok(y)) => assert_eq!(
                    x.canonical_bytes(),
                    y.canonical_bytes(),
                    "job {:?} diverged at {lanes} lanes",
                    a.id
                ),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("outcome kind diverged at {lanes} lanes: {a:?} vs {b:?}"),
            }
        }
    }
}

/// An adversarial mix: one low-priority job submitted behind a backlog,
/// then a stream of fresh high-priority jobs. Which job a lane claims
/// when is decided by the pure claim policy, whose ordering with and
/// without aging is unit-tested with synthetic instants in
/// `cuts_core::sched`; end to end, whatever the host timing, the victim
/// must complete `Ok`.
#[test]
fn aging_prevents_priority_starvation() {
    let data = std::sync::Arc::new(generators::erdos_renyi(32, 120, 5));
    let clique = std::sync::Arc::new(generators::clique(3));
    let report = tier(
        ServeConfig::builder()
            .lanes(1)
            .queue_capacity(128)
            .aging(Duration::from_millis(1))
            .pacing(40.0),
    )
    .run(|h| {
        for _ in 0..6 {
            h.submit_wait(Job::new(data.clone(), clique.clone()).with_priority(2));
        }
        h.submit_wait(
            Job::new(data.clone(), clique.clone())
                .with_priority(-2)
                .with_name("victim"),
        );
        for _ in 0..30 {
            h.submit_wait(Job::new(data.clone(), clique.clone()).with_priority(2));
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(report.stats.completed, 37);
    let victim = report
        .outcomes
        .iter()
        .find(|o| o.name.as_deref() == Some("victim"))
        .expect("victim completes");
    assert!(victim.result.is_ok());
}

/// Arena discipline end to end: once every device's arena is carved and
/// the warmup stream has drained, a full follow-up stream — including the
/// growth-retry job — must be served purely by slab recycling, with not
/// one further call into the device allocator.
#[test]
fn warm_tier_stream_performs_zero_device_allocations() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let jobs = job_mix();
    let tier = tier(ServeConfig::builder().lanes(2).devices_per_rank(2));
    let alloc_calls = || -> u64 {
        tier.rank_devices()
            .iter()
            .flatten()
            .map(|d| d.alloc_calls())
            .sum()
    };
    let warm_allocs = AtomicU64::new(0);
    let report = tier
        .run(|h| {
            // Warmup pass: same job shapes as the main stream, so every
            // plan is cached and every arena is carved.
            for job in jobs.iter().cloned() {
                h.submit_wait(job);
            }
            while h.pending() > 0 || h.inflight() > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            warm_allocs.store(alloc_calls(), Ordering::SeqCst);
            // Main stream: every trie acquire, growth, and release below
            // must be pure slab-bitmap traffic.
            for _ in 0..3 {
                for job in jobs.iter().cloned() {
                    h.submit_wait(job);
                }
            }
            Ok(())
        })
        .unwrap();

    let warm = warm_allocs.load(Ordering::SeqCst);
    assert!(warm > 0, "carving the arenas must allocate");
    assert_eq!(
        alloc_calls(),
        warm,
        "warm stream must not touch the device allocator"
    );
    // The stream itself behaved normally (only the unplannable job fails).
    assert_eq!(report.stats.failed, 4);
    assert_eq!(
        report.stats.completed + report.stats.failed,
        4 * jobs.len() as u64
    );
}

/// Memory-aware admission: a device with a tiny budget, fed jobs whose
/// estimates clamp to the whole budget, must defer (not fail) and keep the
/// reservation ledger inside the budget at all times.
#[test]
fn admission_never_exceeds_the_budget() {
    let device = DeviceConfig::test_small().with_global_mem_words(1 << 16);
    let jobs = {
        let big_data = std::sync::Arc::new(generators::erdos_renyi(128, 1024, 3));
        let small_data = std::sync::Arc::new(generators::mesh2d(4, 4));
        let clique4 = std::sync::Arc::new(generators::clique(4));
        let clique3 = std::sync::Arc::new(generators::clique(3));
        let mut jobs = Vec::new();
        for _ in 0..4 {
            jobs.push(Job::new(big_data.clone(), clique4.clone()));
            jobs.push(Job::new(small_data.clone(), clique3.clone()));
        }
        jobs
    };
    let report = tier(
        ServeConfig::builder()
            .device_config(device)
            .lanes(2)
            .pacing(10.0),
    )
    .run_stream(&jobs)
    .unwrap();
    eprintln!(
        "stats: deferred={} peak={:?} budget={:?} failed={} entries={:?}",
        report.stats.deferred,
        report.stats.peak_reserved_words,
        report.stats.budget_words,
        report.stats.failed,
        report
            .outcomes
            .iter()
            .map(|o| o.trie_entries)
            .collect::<Vec<_>>()
    );
    assert_eq!(report.stats.completed, jobs.len() as u64);
    for (peak, budget) in report
        .stats
        .peak_reserved_words
        .iter()
        .zip(&report.stats.budget_words)
    {
        assert!(
            peak <= budget,
            "reservation ledger overshot: {peak} > {budget}"
        );
    }
    // The big jobs cannot share the device: admission must have deferred.
    assert!(report.stats.deferred > 0, "expected memory deferrals");
    // The registry counter `cuts top` reads is the same count.
    let prom = report.telemetry.snapshot().render();
    assert!(
        prom.lines()
            .any(|l| l == format!("cuts_sched_deferrals_total {}", report.stats.deferred)),
        "deferral counter disagrees with stats.deferred = {}:\n{prom}",
        report.stats.deferred
    );
}
