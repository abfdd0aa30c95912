//! Intersection micro-kernel bench: the paper's fixed c-intersection
//! (prefilter off — the cuTS baseline) against the shipped default (the
//! plan-time auto policy plus the signature prefilter), on workloads
//! spanning both win sources: signature pruning of root candidates and
//! the per-level kernel choice. Match counts are asserted identical for
//! every case; the headline number is the geomean reduction in DRAM
//! words (reads + writes), and the PR gate is ≥ 1.25×. Emits
//! `BENCH_intersect.json`.
//!
//! ```sh
//! cargo run -p cuts-bench --release --bin intersect -- --quick
//! ```
//!
//! `--quick` (equivalently `CUTS_QUICK=1`) keeps only the first few
//! cases so the CI smoke step stays under a second.

use cuts_bench::{geomean, quick_from_env, Machine};
use cuts_core::{EngineConfig, ExecSession, IntersectStrategy};
use cuts_gpu_sim::Device;
use cuts_graph::generators::{chain, clique, cycle, star};
use cuts_graph::labels::{random_labels, zipf_labels};
use cuts_graph::{Dataset, Graph, Scale};
use cuts_obs::Json;

struct Case {
    name: &'static str,
    data: Graph,
    query: Graph,
}

/// The two win sources, each represented by several workloads:
/// * heavy-tailed degree distributions (wikitalk, the star) where the
///   per-path hedge routes hub paths to the p-kernel while fixed-c
///   streams every adjacency list in full;
/// * selective root predicates (labelled graphs, dense queries on
///   sparse road networks) where the signature prefilter prunes level-0
///   candidates before any adjacency list is touched.
fn cases(quick: bool) -> Vec<Case> {
    let s = Scale::Custom(1.0 / 1024.0);
    let wikitalk = Dataset::WikiTalk.generate(Scale::Custom(1.0 / 2048.0));
    let roadnet = Dataset::RoadNetPA.generate(s);
    let roadnet_l = {
        let l = random_labels(roadnet.num_vertices(), 4, 9);
        roadnet.clone().with_labels(l)
    };
    let mut v = vec![
        Case {
            name: "star/K3",
            data: star(400),
            query: clique(3),
        },
        Case {
            name: "wikitalk/K3",
            data: wikitalk.clone(),
            query: clique(3),
        },
        Case {
            name: "roadnet-l/chain3",
            data: roadnet_l.clone(),
            query: chain(3).with_labels(vec![0, 1, 2]),
        },
        Case {
            name: "enron/K4",
            data: Dataset::Enron.generate(s),
            query: clique(4),
        },
    ];
    if !quick {
        let gowalla_l = {
            let g = Dataset::Gowalla.generate(s);
            let l = random_labels(g.num_vertices(), 6, 5);
            g.with_labels(l)
        };
        let enron_z = {
            let g = Dataset::Enron.generate(s);
            let l = zipf_labels(g.num_vertices(), 4, 11);
            g.with_labels(l)
        };
        v.extend([
            Case {
                name: "wikitalk/K4",
                data: wikitalk.clone(),
                query: clique(4),
            },
            Case {
                name: "wikitalk/C4",
                data: wikitalk,
                query: cycle(4),
            },
            Case {
                name: "roadnet/C4",
                data: roadnet,
                query: cycle(4),
            },
            Case {
                name: "roadnet-l/C4",
                data: roadnet_l,
                query: cycle(4).with_labels(vec![0, 1, 2, 3]),
            },
            Case {
                name: "gowalla-l/K3",
                data: gowalla_l.clone(),
                query: clique(3).with_labels(vec![0, 1, 2]),
            },
            Case {
                name: "gowalla-l/C4",
                data: gowalla_l,
                query: cycle(4).with_labels(vec![0, 1, 2, 3]),
            },
            Case {
                name: "enron-z/K3",
                data: enron_z,
                query: clique(3).with_labels(vec![2, 3, 3]),
            },
        ]);
    }
    v
}

/// One run; returns (matches, dram words).
fn run(data: &Graph, query: &Graph, config: EngineConfig) -> (u64, u64) {
    let device = Device::new(Machine::V100.device_config(Scale::Tiny));
    let r = ExecSession::new(&device, config)
        .run(data, query)
        .expect("bench case fits the device");
    (r.num_matches, r.counters.dram_total())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick") || quick_from_env();
    let cases = cases(quick);
    println!(
        "intersect: {} case(s), baseline fixed-c / no prefilter vs auto policy + prefilter (quick={quick})",
        cases.len()
    );
    println!(
        "{:<18} {:>12} {:>14} {:>14} {:>8}",
        "case", "matches", "baseline dram", "auto dram", "ratio"
    );

    let mut entries: Vec<Json> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    for c in &cases {
        let (m_base, dram_base) = run(
            &c.data,
            &c.query,
            EngineConfig::default()
                .with_intersect(IntersectStrategy::CIntersection)
                .with_signature_prefilter(false),
        );
        let (m_auto, dram_auto) = run(&c.data, &c.query, EngineConfig::default());
        assert_eq!(
            m_base, m_auto,
            "{}: strategies must agree on the match count",
            c.name
        );
        let ratio = dram_base as f64 / dram_auto.max(1) as f64;
        ratios.push(ratio);
        println!(
            "{:<18} {:>12} {:>14} {:>14} {:>7.2}x",
            c.name, m_base, dram_base, dram_auto, ratio
        );
        entries.push(Json::obj([
            ("case", Json::Str(c.name.into())),
            ("matches", Json::U64(m_base)),
            ("dram_words_baseline", Json::U64(dram_base)),
            ("dram_words_auto", Json::U64(dram_auto)),
            ("ratio", Json::F64(ratio)),
        ]));
    }

    let g = geomean(&ratios).unwrap_or(0.0);
    let out = Json::obj([
        ("bench", Json::Str("intersect".into())),
        ("quick", Json::U64(quick as u64)),
        ("cases", Json::arr(entries)),
        ("geomean_dram_reduction", Json::F64(g)),
        ("counts_identical", Json::U64(1)),
    ]);
    std::fs::write("BENCH_intersect.json", out.render()).expect("write BENCH_intersect.json");
    println!("  wrote BENCH_intersect.json (geomean dram reduction {g:.2}x, gate >= 1.25x)");
    assert!(
        g >= 1.25,
        "geomean dram reduction {g:.2}x below the 1.25x gate"
    );
}
