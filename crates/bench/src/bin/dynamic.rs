//! Batch-dynamic matching: streaming edge updates served by incremental
//! trie maintenance ([`cuts_core::DynamicSession`]) versus the naive
//! full recompute a static engine would pay after every batch. Each
//! scenario replays a deterministic schedule of small batches (every
//! batch edits well under 1% of the graph's edges); after each batch the
//! incremental match set must be byte-identical to a cold enumeration
//! over the mutated graph. Emits `BENCH_dynamic.json`.
//!
//! The headline number is **gated**: the geometric-mean ratio of
//! simulated recompute time to simulated incremental time across all
//! scenarios must be at least [`MIN_SPEEDUP`], or the bench aborts.
//! Simulated device time is deterministic, so the gate is runner-safe.
//!
//! ```sh
//! cargo run -p cuts-bench --release --bin dynamic -- --quick
//! ```
//!
//! `--quick` (equivalently `CUTS_QUICK=1`) shortens every schedule so
//! the CI smoke step finishes quickly.

use std::collections::BTreeSet;

use cuts_core::prelude::*;
use cuts_core::DynamicSession;
use cuts_gpu_sim::{Device, DeviceConfig};
use cuts_graph::generators::{barabasi_albert, chain, clique, cycle, erdos_renyi, mesh2d};
use cuts_graph::{EdgeBatch, Graph, VertexId};
use cuts_obs::{EventKind, Json, Trace};

/// Recompute-to-incremental simulated-time ratio the geomean must clear.
const MIN_SPEEDUP: f64 = 2.0;

/// Edits per batch. Small on purpose: the incremental path's advantage
/// is locality, and every scenario graph has well over `400` edges, so
/// four edits stay under the 1%-of-edges regime the bench advertises.
const EDITS_PER_BATCH: usize = 4;

/// Deterministic 64-bit LCG (MMIX constants): the bench must not drift
/// between runs, so no external RNG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

struct Scenario {
    name: &'static str,
    graph: Graph,
    query_name: &'static str,
    query: Graph,
    seed: u64,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "mesh-80x80",
            graph: mesh2d(80, 80),
            query_name: "cycle4",
            query: cycle(4),
            seed: 1,
        },
        // Adversarial locality: preferential attachment means a random
        // edit often lands next to a hub, whose 2-hop ball swallows much
        // of the graph — the incremental win here is small by design,
        // and the geomean gate absorbs it.
        Scenario {
            name: "ba-3000-tri",
            graph: barabasi_albert(3000, 6, 42),
            query_name: "triangle",
            query: clique(3),
            seed: 2,
        },
        Scenario {
            name: "er-4000-chain",
            graph: erdos_renyi(4000, 16_000, 7),
            query_name: "chain3",
            query: chain(3),
            seed: 3,
        },
    ]
}

/// Undirected edge set of `g`, canonicalised as `u < v` pairs.
fn edge_set(g: &Graph) -> BTreeSet<(VertexId, VertexId)> {
    g.edges().filter(|(u, v)| u < v).collect()
}

/// The next batch of the schedule: alternating inserts of absent edges
/// and deletes of present ones, tracked against `edges` so inverse pairs
/// and duplicates never collide within one batch.
fn next_batch(
    rng: &mut Lcg,
    n: usize,
    edges: &mut BTreeSet<(VertexId, VertexId)>,
    edits: usize,
) -> EdgeBatch {
    let mut batch = EdgeBatch::new();
    for i in 0..edits {
        if i % 2 == 0 {
            // Insert an edge that does not exist yet.
            loop {
                let u = rng.below(n) as VertexId;
                let v = rng.below(n) as VertexId;
                let key = (u.min(v), u.max(v));
                if u != v && edges.insert(key) {
                    batch.insert(key.0, key.1);
                    break;
                }
            }
        } else {
            // Delete a uniformly chosen existing edge.
            let idx = rng.below(edges.len());
            let key = *edges.iter().nth(idx).expect("non-empty edge set");
            edges.remove(&key);
            batch.delete(key.0, key.1);
        }
    }
    batch
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("CUTS_QUICK").is_ok_and(|v| v == "1");
    let batches_per_scenario = if quick { 3 } else { 8 };
    println!(
        "dynamic: {} batch(es) of {EDITS_PER_BATCH} edit(s) per scenario (quick={quick})",
        batches_per_scenario
    );

    // One traced device for the incremental sessions: the journal proves
    // the maintenance path actually ran (subtree releases, chain grows).
    // The small preset's modest bandwidth keeps the roofline in the
    // memory-bound regime the paper targets, so traversal traffic (not
    // fixed launch overhead) decides the comparison.
    let trace = Trace::enabled();
    let mut inc_device = Device::new(DeviceConfig::test_small());
    inc_device.set_trace(trace.clone());
    // The recompute baseline gets its own untraced device so its slab
    // traffic cannot pollute the event counts.
    let rec_device = Device::new(DeviceConfig::test_small());
    let rec_session = ExecSession::new(&rec_device, EngineConfig::default());

    let mut rows: Vec<Json> = Vec::new();
    let mut ln_sum = 0.0f64;
    let mut verified = true;
    for sc in scenarios() {
        let mut rng = Lcg(sc.seed);
        let mut edges = edge_set(&sc.graph);
        let start_edges = edges.len();
        assert!(
            EDITS_PER_BATCH * 100 <= start_edges,
            "{}: batches must stay under 1% of {} edges",
            sc.name,
            start_edges
        );

        let mut live = DynamicSession::new(&inc_device, EngineConfig::default(), sc.graph.clone());
        let qid = live.register(&sc.query).expect("standing query registers");

        let mut inc_sim = 0.0f64;
        let mut rec_sim = 0.0f64;
        let mut streamed = 0u64;
        for _ in 0..batches_per_scenario {
            let batch = next_batch(
                &mut rng,
                sc.graph.num_vertices(),
                &mut edges,
                EDITS_PER_BATCH,
            );
            let outcome = live.apply_batch(&batch).expect("valid batch applies");
            inc_sim += outcome.deltas.iter().map(|d| d.sim_millis).sum::<f64>();
            streamed += outcome.deltas.iter().map(|d| d.len() as u64).sum::<u64>();

            // What a static engine pays: a cold enumeration over the
            // mutated graph. Its matches double as ground truth.
            let mut full: BTreeSet<Vec<VertexId>> = BTreeSet::new();
            let plan = rec_session.plan_for(&sc.query).expect("query plans");
            let res = rec_session
                .execute(
                    &plan,
                    live.graph(),
                    None,
                    Some(&mut |m| {
                        full.insert(m.to_vec());
                    }),
                )
                .expect("recompute succeeds");
            rec_sim += res.sim_millis;
            if live.match_set(qid) != full {
                verified = false;
                eprintln!("{}: incremental state diverged from recompute", sc.name);
            }
        }

        let speedup = rec_sim / inc_sim.max(f64::MIN_POSITIVE);
        ln_sum += speedup.ln();
        println!(
            "  {:<14} {:<9} {:>7.3} ms incremental vs {:>8.3} ms recompute  ({:.1}x, {} delta row(s))",
            sc.name, sc.query_name, inc_sim, rec_sim, speedup, streamed
        );
        rows.push(Json::obj([
            ("scenario", Json::Str(sc.name.into())),
            ("query", Json::Str(sc.query_name.into())),
            ("edges", Json::U64(start_edges as u64)),
            ("batches", Json::U64(batches_per_scenario as u64)),
            ("edits_per_batch", Json::U64(EDITS_PER_BATCH as u64)),
            ("incremental_sim_millis", Json::F64(inc_sim)),
            ("recompute_sim_millis", Json::F64(rec_sim)),
            ("speedup", Json::F64(speedup)),
            ("deltas_streamed", Json::U64(streamed)),
        ]));
    }
    let geomean = (ln_sum / rows.len() as f64).exp();

    // Evidence the incremental path ran: every dirty subtree drop emits
    // a `subtree_release` trie event, and mid-run slab appends emit
    // `chain_grow` arena events. CI greps these counts.
    let journal = trace.journal().expect("enabled trace has a journal");
    let events = journal.snapshot_sorted();
    let released = events
        .iter()
        .filter(|e| e.kind == EventKind::Trie && e.name == "subtree_release")
        .count();
    let grows = events
        .iter()
        .filter(|e| e.kind == EventKind::Arena && e.name == "chain_grow")
        .count();
    assert!(
        released > 0,
        "no subtree was ever released: incremental path did not run"
    );
    assert!(verified, "incremental match sets diverged from recompute");
    assert!(
        geomean >= MIN_SPEEDUP,
        "incremental speedup below the gate: {geomean:.2}x < {MIN_SPEEDUP:.1}x geomean"
    );

    let out = Json::obj([
        ("bench", Json::Str("dynamic".into())),
        ("quick", Json::U64(quick as u64)),
        ("scenarios", Json::Arr(rows)),
        ("geomean_speedup", Json::F64(geomean)),
        ("speedup_gate", Json::F64(MIN_SPEEDUP)),
        ("subtree_release_events", Json::U64(released as u64)),
        ("chain_grow_events", Json::U64(grows as u64)),
        ("matched_recompute", Json::Bool(true)),
    ]);
    std::fs::write("BENCH_dynamic.json", out.render()).expect("write BENCH_dynamic.json");
    println!(
        "  wrote BENCH_dynamic.json (geomean speedup {geomean:.2}x, {released} subtree release(s), {grows} chain grow(s))"
    );
}
