//! Snapshot warm-start bench: time-to-first-result from a cold start
//! (parse the edge-list text, build the degree/signature profile, build
//! the query plan, run) against a warm start (read and decode the
//! checksummed snapshot container, seed the session, run). Both paths
//! begin at a file on disk and end at the same match count; the headline
//! number is the geomean cold/warm latency ratio and the PR gate is
//! ≥ 2×. Emits `BENCH_snapshot.json`.
//!
//! ```sh
//! cargo run -p cuts-bench --release --bin snapshot -- --quick
//! ```
//!
//! `--quick` (equivalently `CUTS_QUICK=1`) keeps only the first cases so
//! the CI smoke step stays fast.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cuts_bench::{best_of, geomean, quick_from_env, Machine};
use cuts_core::{EngineConfig, ExecSession, Snapshot};
use cuts_gpu_sim::Device;
use cuts_graph::{edgelist, Dataset, Graph, Scale};
use cuts_obs::Json;

struct Case {
    name: &'static str,
    data: Graph,
    query: Graph,
}

/// The warm-start scenario: boot a service over a large sparse graph and
/// answer a selective point query. The enumeration itself is cheap, so
/// the first-query latency is dominated by how fast the data gets into
/// the engine — text parse + profile + plan cold, container decode warm.
fn cases(quick: bool) -> Vec<Case> {
    use cuts_graph::generators::clique;
    let s = Scale::Custom(1.0 / 32.0);
    let mut v = vec![
        Case {
            name: "roadnet-pa/K5",
            data: Dataset::RoadNetPA.generate(s),
            query: clique(5),
        },
        Case {
            name: "roadnet-tx/K4",
            data: Dataset::RoadNetTX.generate(s),
            query: clique(4),
        },
    ];
    if !quick {
        v.extend([
            Case {
                name: "roadnet-ca/K4",
                data: Dataset::RoadNetCA.generate(s),
                query: clique(4),
            },
            Case {
                name: "roadnet-pa-2x/K4",
                data: Dataset::RoadNetPA.generate(Scale::Custom(1.0 / 16.0)),
                query: clique(4),
            },
        ]);
    }
    v
}

/// Writes the graph as the SNAP-style text file a cold start ingests.
fn write_edgelist(g: &Graph, path: &Path) {
    let mut text = String::new();
    for (u, v) in g.edges() {
        if u < v {
            text.push_str(&format!("{u} {v}\n"));
        }
    }
    std::fs::write(path, text).expect("write edge list");
}

/// Cold start: text parse, profile build, plan build, first run.
fn cold_first_query(edge_path: &Path, query: &Graph) -> (u64, f64) {
    let start = Instant::now();
    let data = edgelist::load_undirected(edge_path).expect("parse edge list");
    let device = Device::new(Machine::V100.device_config(Scale::Tiny));
    let session = ExecSession::new(&device, EngineConfig::default());
    let r = session.run(&data, query).expect("cold run");
    (r.num_matches, start.elapsed().as_secs_f64() * 1e3)
}

/// Warm start: decode the container, seed the session, first run. Zero
/// plan builds is asserted, not assumed.
fn warm_first_query(snap_path: &Path, query: &Graph) -> (u64, f64) {
    let start = Instant::now();
    let snap = Snapshot::read_from(snap_path).expect("read snapshot");
    let device = Device::new(Machine::V100.device_config(Scale::Tiny));
    let session = ExecSession::from_snapshot(&device, EngineConfig::default(), &snap);
    let r = session.run(snap.graph(), query).expect("warm run");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        session.stats().plans.misses,
        0,
        "warm start must not build plans"
    );
    (r.num_matches, ms)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick") || quick_from_env();
    let cases = cases(quick);
    let dir: PathBuf = std::env::temp_dir().join("cuts_bench_snapshot");
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    println!(
        "snapshot: {} case(s), cold (parse+profile+plan+run) vs warm (decode+run) first-query latency (quick={quick})",
        cases.len()
    );
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>8}",
        "case", "matches", "cold ms", "warm ms", "ratio"
    );

    let mut entries: Vec<Json> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    for (i, c) in cases.iter().enumerate() {
        let edge_path = dir.join(format!("case{i}.txt"));
        let snap_path = dir.join(format!("case{i}.snap"));
        write_edgelist(&c.data, &edge_path);
        // Build the snapshot exactly as `cuts snapshot build` would: plan
        // the query on the same device class the warm session will use.
        {
            let device = Device::new(Machine::V100.device_config(Scale::Tiny));
            let session = ExecSession::new(&device, EngineConfig::default());
            session.plan_for(&c.query).expect("plannable");
            Snapshot::capture(&c.data, &session)
                .write_to(&snap_path)
                .expect("write snapshot");
        }
        let reps = if quick { 3 } else { 5 };
        let (m_cold, cold_ms) = best_of(reps, || cold_first_query(&edge_path, &c.query));
        let (m_warm, warm_ms) = best_of(reps, || warm_first_query(&snap_path, &c.query));
        assert_eq!(
            m_cold, m_warm,
            "{}: warm start must reproduce the cold count",
            c.name
        );
        let ratio = cold_ms / warm_ms.max(f64::MIN_POSITIVE);
        ratios.push(ratio);
        println!(
            "{:<18} {:>12} {:>12.3} {:>12.3} {:>7.2}x",
            c.name, m_cold, cold_ms, warm_ms, ratio
        );
        entries.push(Json::obj([
            ("case", Json::Str(c.name.into())),
            ("matches", Json::U64(m_cold)),
            ("cold_first_query_ms", Json::F64(cold_ms)),
            ("warm_first_query_ms", Json::F64(warm_ms)),
            ("ratio", Json::F64(ratio)),
        ]));
    }

    let g = geomean(&ratios).unwrap_or(0.0);
    let out = Json::obj([
        ("bench", Json::Str("snapshot".into())),
        ("quick", Json::U64(quick as u64)),
        ("cases", Json::arr(entries)),
        ("geomean_cold_over_warm", Json::F64(g)),
        ("counts_identical", Json::U64(1)),
    ]);
    std::fs::write("BENCH_snapshot.json", out.render()).expect("write BENCH_snapshot.json");
    println!("  wrote BENCH_snapshot.json (geomean cold/warm {g:.2}x, gate >= 2x)");
    assert!(g >= 2.0, "cold/warm ratio {g:.2}x below the 2x gate");
}
