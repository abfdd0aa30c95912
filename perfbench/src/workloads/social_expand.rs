//! `social-expand`: counting queries on heavy-tailed social stand-ins,
//! one warm `ExecSession` on the scale-matched A100 budget. Expansion,
//! intersection, the trie and the simulated device do nearly all the
//! work; planning and serving do almost none.
//!
//! Unit of work: one query run (`plan_for` + `run_with_plan`); a round
//! runs every case once, and the timed region runs as many rounds as
//! fit. Each case takes about 0.1-0.2 s on a 2-vCPU host, so every case
//! is timed many times in a run.

use std::time::Instant;

use cuts_core::reference::count_embeddings;
use cuts_core::{EngineConfig, ExecSession};
use cuts_gpu_sim::{Counters, Device};
use cuts_graph::generators::clique;
use cuts_graph::{Dataset, Graph, Scale};

use super::{
    ms_since, peak_rss_mb, repeat_setup, set_kernels, set_overhead, set_p50_p90, set_plan_cache,
    Ctx, Outcome, Rounds,
};
use crate::inputs;
use crate::spans::Spans;
use crate::stats::median;

/// Data graphs: dataset at a Table-2 scale.
const GRAPHS: [(Dataset, Scale); 5] = [
    (Dataset::Enron, Scale::Medium),
    (Dataset::Enron, Scale::Small),
    (Dataset::Gowalla, Scale::Small),
    (Dataset::Gowalla, Scale::Tiny),
    (Dataset::WikiTalk, Scale::Tiny),
];

/// Cases: (graph index, query), each sized to take about the same host
/// time so that none dominates a round.
const CASES: [(usize, &str); 7] = [
    (0, "clique:4"),
    (1, "clique:5"),
    (1, "chain:4"),
    (2, "clique:5"),
    (3, "chain:4"),
    (4, "clique:4"),
    (4, "diamond"),
];

/// Scale whose A100 memory budget the session runs on.
const DEVICE_SCALE: Scale = Scale::Medium;

struct Setup<'d> {
    session: ExecSession<'d>,
    graphs: Vec<Graph>,
    queries: Vec<Graph>,
    plan_ms: Vec<f64>,
    gen_ms: f64,
    profile_ms: f64,
}

fn setup<'d>(device: &'d Device, seed: u64, spans: &mut Spans) -> Setup<'d> {
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
    let session = ExecSession::new(device, EngineConfig::default());
    // Carve the session's trie arena before timing.
    session
        .run(&clique(4), &clique(3))
        .expect("arena warm-up run");
    let queries: Vec<Graph> = CASES.iter().map(|(_, q)| inputs::query(q)).collect();
    let mut plan_ms = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let t = Instant::now();
        spans
            .scope("plan.build", i as u64, |_| session.plan_for(q))
            .expect("plan builds");
        plan_ms.push(ms_since(t));
    }
    Setup {
        session,
        graphs,
        queries,
        plan_ms,
        gen_ms,
        profile_ms,
    }
}

/// Raw samples of one timed region.
struct Timed {
    runs: Rounds,
    /// `(case, matches)` of every completed run, for the output check.
    counts: Vec<(usize, u64)>,
    sim_ms_round: f64,
    paths_round: u64,
    chunked_round: u64,
    counters_round: Counters,
    cuts_words_round: u64,
    naive_words_round: u64,
    device_allocs: u64,
}

fn timed(ctx: &Ctx, st: &Setup<'_>, spans: &mut Spans, out: &mut Outcome) -> Timed {
    let mut t = Timed {
        runs: Rounds::new(CASES.len()),
        counts: Vec::new(),
        sim_ms_round: 0.0,
        paths_round: 0,
        chunked_round: 0,
        counters_round: Counters::default(),
        cuts_words_round: 0,
        naive_words_round: 0,
        device_allocs: 0,
    };
    let arena_before = st.session.stats().arena;
    let allocs_before = st.session.device().alloc_calls();
    let deadline = ctx.deadline();
    let mut round = 0u64;
    spans.scope("timed", 0, |spans| {
        while round == 0 || Instant::now() < deadline {
            for (case, &(g, _)) in CASES.iter().enumerate() {
                let query = &st.queries[case];
                let op = round * CASES.len() as u64 + case as u64;
                let r0 = Instant::now();
                out.attempted += 1;
                let result = spans.scope("session.run", op, |_| {
                    let plan = st.session.plan_for(query)?;
                    st.session.run_with_plan(&plan, &st.graphs[g])
                });
                t.runs.push(case, ms_since(r0));
                match result {
                    Ok(r) => {
                        t.counts.push((case, r.num_matches));
                        if round == 0 {
                            t.sim_ms_round += r.sim_millis;
                            t.paths_round += r.level_counts.iter().sum::<u64>();
                            t.chunked_round += u64::from(r.used_chunking);
                            t.counters_round += r.counters;
                            t.cuts_words_round += r.cuts_words();
                            t.naive_words_round += r.naive_words();
                        }
                    }
                    Err(e) => out.fail(format!("{}: {e}", CASES[case].1)),
                }
            }
            round += 1;
        }
    });
    t.device_allocs = st.session.device().alloc_calls() - allocs_before;
    let stats = st.session.stats();
    super::set_arena(
        &mut out.metrics,
        t.device_allocs,
        arena_before.as_ref(),
        stats.arena.as_ref(),
        round,
    );
    t
}

/// Runs the workload.
pub fn run(ctx: &Ctx, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let device = Device::new(cuts_bench::Machine::A100.device_config(DEVICE_SCALE));
    let st = repeat_setup(
        spans,
        &mut out.metrics,
        |spans| setup(&device, ctx.seed, spans),
        |s| (s.gen_ms, s.profile_ms),
    );

    let untraced = ctx
        .traced
        .then(|| timed(ctx, &st, &mut Spans::new(false), &mut out));
    let t = timed(ctx, &st, spans, &mut out);
    let peak = peak_rss_mb();

    let m = &mut out.metrics;
    t.runs.set_end_to_end(m, t.paths_round);
    m.set("sim_ms", t.sim_ms_round, 1);
    m.set("peak_rss_mb", peak, 1);
    if let Some(u) = &untraced {
        set_overhead(m, u.runs.round_secs(), t.runs.round_secs());
    }

    let all = t.runs.all();
    set_p50_p90(m, "session.run_ms_p50", "session.run_ms_p90", &all);
    m.set("session.paths", t.paths_round as f64, 1);
    m.set("session.chunked_runs", t.chunked_round as f64, 1);
    m.set(
        "session.host_ns_per_path",
        t.runs.round_secs() * 1e9 / t.paths_round.max(1) as f64,
        t.runs.complete() as u64,
    );
    set_kernels(m, &t.counters_round, 1);
    m.set("trie.cuts_words", t.cuts_words_round as f64, 1);
    m.set("trie.naive_words", t.naive_words_round as f64, 1);
    m.set(
        "trie.compression",
        t.naive_words_round as f64 / t.cuts_words_round.max(1) as f64,
        1,
    );
    let stats = st.session.stats();
    m.set("trie.entries", stats.trie_entries.unwrap_or(0) as f64, 1);
    set_plan_cache(m, stats.plans.hits, stats.plans.misses);
    m.set(
        "plan.build_ms",
        median(&st.plan_ms).unwrap_or(0.0),
        st.plan_ms.len() as u64,
    );

    spans.scope("check", 0, |_| {
        for (case, &(g, q)) in CASES.iter().enumerate() {
            let want = count_embeddings(&st.graphs[g], &st.queries[case]);
            let runs = untraced.iter().chain([&t]).flat_map(|t| &t.counts);
            for &(_, got) in runs.filter(|(c, _)| *c == case) {
                if got != want {
                    out.fail(format!("{q} on graph {g}: engine {got}, reference {want}"));
                }
            }
        }
    });
    out
}
