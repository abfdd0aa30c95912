//! `dist-donate`: `cuts_dist::run` at two ranks with every root candidate
//! partitioned to rank 0, on a few counting cases. Rank 1 gets work only
//! through Algorithm-3 donations, so the distributed runtime (message
//! passing, donation protocol, workers) is on the critical path.
//!
//! Unit of work: one distributed run of one case; a round runs every
//! case once, and the timed region runs as many rounds as fit.

use std::time::Instant;

use cuts_core::{EngineConfig, ExecSession};
use cuts_dist::{DistConfig, Partition};
use cuts_gpu_sim::{Counters, Device, DeviceConfig};
use cuts_graph::{Dataset, Graph, Scale};

use super::{
    ms_since, peak_rss_mb, repeat_setup, set_kernels, set_overhead, set_plan_cache, Ctx, Outcome,
    Rounds,
};
use crate::inputs;
use crate::spans::Spans;
use crate::stats::median;

/// Ranks of the simulated world.
const RANKS: usize = 2;

/// Data graphs: dataset at a Table-2 scale.
const GRAPHS: [(Dataset, Scale); 2] = [
    (Dataset::Enron, Scale::Medium),
    (Dataset::Gowalla, Scale::Small),
];

/// Cases: (graph index, query); the cliques are cases `social-expand`
/// runs too.
const CASES: [(usize, &str); 3] = [(0, "clique:4"), (0, "chain:3"), (1, "clique:5")];

fn device_config() -> DeviceConfig {
    cuts_bench::Machine::A100.device_config(Scale::Medium)
}

struct Setup {
    graphs: Vec<Graph>,
    queries: Vec<Graph>,
    config: DistConfig,
    gen_ms: f64,
    profile_ms: f64,
}

fn setup(seed: u64, spans: &mut Spans) -> Setup {
    let (mut gen_ms, mut profile_ms) = (0.0, 0.0);
    let mut graphs = Vec::new();
    for (i, &(ds, scale)) in GRAPHS.iter().enumerate() {
        let t = Instant::now();
        let g = spans.scope("graph.generate", i as u64, |_| {
            inputs::social(ds, scale, seed)
        });
        gen_ms += ms_since(t);
        let t = Instant::now();
        spans.scope("graph.profile", i as u64, |_| g.profile());
        profile_ms += ms_since(t);
        graphs.push(g);
    }
    let config = DistConfig::builder()
        .device(device_config())
        .engine(EngineConfig::default())
        .partition(Partition::AllToRankZero)
        .pacing(0.0)
        .for_ranks(RANKS)
        .build()
        .expect("valid dist config");
    Setup {
        graphs,
        queries: CASES.iter().map(|(_, q)| inputs::query(q)).collect(),
        config,
        gen_ms,
        profile_ms,
    }
}

/// Per-run figures of one timed region.
struct Timed {
    runs: Rounds,
    /// Simulated makespan of each run, per case.
    sim_ms: Rounds,
    busy_ms: [Vec<f64>; RANKS],
    idle_ms: [Vec<f64>; RANKS],
    balance: Vec<f64>,
    donations: Vec<f64>,
    messages: Vec<f64>,
    bytes: Vec<f64>,
    counters: Counters,
    plan_builds: u64,
    plan_reuses: u64,
    /// `(case, total_matches)` of every completed run.
    matches: Vec<(usize, u64)>,
}

fn timed(ctx: &Ctx, st: &Setup, spans: &mut Spans, out: &mut Outcome) -> Timed {
    let mut t = Timed {
        runs: Rounds::new(CASES.len()),
        sim_ms: Rounds::new(CASES.len()),
        busy_ms: Default::default(),
        idle_ms: Default::default(),
        balance: Vec::new(),
        donations: Vec::new(),
        messages: Vec::new(),
        bytes: Vec::new(),
        counters: Counters::default(),
        plan_builds: 0,
        plan_reuses: 0,
        matches: Vec::new(),
    };
    let deadline = ctx.deadline();
    spans.scope("timed", 0, |spans| {
        let mut op = 0u64;
        while op == 0 || Instant::now() < deadline {
            for (case, &(g, q)) in CASES.iter().enumerate() {
                out.attempted += 1;
                let r0 = Instant::now();
                let r = spans.scope("dist.run", op, |_| {
                    cuts_dist::run(&st.graphs[g], &st.queries[case], RANKS, &st.config)
                });
                let wall = ms_since(r0);
                op += 1;
                let r = match r {
                    Ok(r) => r,
                    Err(e) => {
                        out.fail(format!("dist run {op} ({q}): {e}"));
                        continue;
                    }
                };
                t.runs.push(case, wall);
                t.sim_ms.push(case, r.makespan_sim_millis());
                t.balance.push(r.balance_ratio());
                for (rank, m) in r.per_rank.iter().enumerate().take(RANKS) {
                    t.busy_ms[rank].push(m.busy_wall_millis);
                    t.idle_ms[rank].push((r.wall_millis - m.busy_wall_millis).max(0.0));
                }
                let sum = |f: fn(&cuts_dist::RankMetrics) -> u64| -> f64 {
                    r.per_rank.iter().map(f).sum::<u64>() as f64
                };
                t.donations.push(sum(|m| m.donations_sent as u64));
                t.messages.push(sum(|m| m.messages_sent));
                t.bytes.push(sum(|m| m.bytes_sent));
                for m in &r.per_rank {
                    t.counters += m.counters;
                    t.plan_builds += m.plan_builds;
                    t.plan_reuses += m.plan_reuses;
                }
                t.matches.push((case, r.total_matches));
            }
        }
    });
    t
}

/// Runs the workload.
pub fn run(ctx: &Ctx, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let st = repeat_setup(
        spans,
        &mut out.metrics,
        |spans| setup(ctx.seed, spans),
        |s| (s.gen_ms, s.profile_ms),
    );

    let untraced = ctx
        .traced
        .then(|| timed(ctx, &st, &mut Spans::new(false), &mut out));
    let t = timed(ctx, &st, spans, &mut out);
    let peak = peak_rss_mb();

    // Single-node ground truth (the same graphs and queries as
    // social-expand counts), outside the timed region.
    let mut round_paths = 0u64;
    spans.scope("check", 0, |_| {
        let device = Device::new(device_config());
        let session = ExecSession::new(&device, EngineConfig::default());
        for (case, &(g, q)) in CASES.iter().enumerate() {
            let want = match session.run(&st.graphs[g], &st.queries[case]) {
                Ok(r) => {
                    round_paths += r.level_counts.iter().sum::<u64>();
                    r.num_matches
                }
                Err(e) => {
                    out.fail(format!("{q}: single-node run: {e}"));
                    continue;
                }
            };
            let runs = untraced.iter().chain([&t]).flat_map(|t| &t.matches);
            for &(_, got) in runs.filter(|(c, _)| *c == case) {
                if got != want {
                    out.fail(format!("{q}: {got} matches, single node {want}"));
                }
            }
        }
    });

    let m = &mut out.metrics;
    let n = t.runs.all().len() as u64;
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    t.runs.set_end_to_end(m, round_paths);
    m.set(
        "sim_ms",
        t.sim_ms.medians().iter().sum(),
        t.sim_ms.complete() as u64,
    );
    m.set("peak_rss_mb", peak, 1);
    if let Some(u) = &untraced {
        set_overhead(m, u.runs.round_secs(), t.runs.round_secs());
    }
    let names = [
        ("dist.busy_wall_ms.r0", "dist.idle_ms.r0"),
        ("dist.busy_wall_ms.r1", "dist.idle_ms.r1"),
    ];
    for (rank, (busy, idle)) in names.into_iter().enumerate() {
        m.set(busy, med(&t.busy_ms[rank]), n);
        m.set(idle, med(&t.idle_ms[rank]), n);
    }
    m.set("dist.balance", med(&t.balance), n);
    m.set("dist.donations", med(&t.donations), n);
    m.set("dist.messages", med(&t.messages), n);
    m.set("dist.bytes", med(&t.bytes), n);
    set_kernels(m, &t.counters, n);
    set_plan_cache(m, t.plan_reuses / n.max(1), t.plan_builds / n.max(1));
    out
}
