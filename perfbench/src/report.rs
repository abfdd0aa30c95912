//! Metric names, units and the result line.
//!
//! Every workload reports every end-to-end metric (each defined on the
//! workload's own unit of work, see README.md), and the traced run
//! reports every per-layer metric, 0 where a workload does not reach the
//! layer. The end-to-end metrics are the ones this benchmark bounds:
//! set-up time and simulated device time. Host-time figures swing by
//! ±40% with the shared host's load, so they are reported (first in the
//! per-layer list, and in the table of every run) but not bounded. The
//! names here must match `BENCHMARK.json` (a test checks).

use cuts_obs::Json;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("sim_ms", "ms")];

/// Host-time and host-memory figures of the whole program: printed with
/// the end-to-end metrics, reported in the result line with the
/// per-layer ones.
pub const HOST: [(&str, &str); 5] = [
    ("paths_per_s", "paths/s"),
    ("jobs_per_s", "jobs/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`; the first five
/// are [`HOST`].
pub const PER_LAYER: [(&str, &str); 68] = [
    ("paths_per_s", "paths/s"),
    ("jobs_per_s", "jobs/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("graph.generate_ms", "ms"),
    ("graph.profile_ms", "ms"),
    ("plan.build_ms", "ms"),
    ("plan.hits", "count"),
    ("plan.misses", "count"),
    ("plan.hit_ratio", "ratio"),
    ("session.run_ms_p50", "ms"),
    ("session.run_ms_p90", "ms"),
    ("session.paths", "count"),
    ("session.chunked_runs", "count"),
    ("session.host_ns_per_path", "ns"),
    ("kernels.instructions", "count"),
    ("kernels.dram_words", "words"),
    ("kernels.shmem_words", "words"),
    ("kernels.atomics", "count"),
    ("kernels.divergent_branches", "count"),
    ("kernels.launches", "count"),
    ("kernels.instr_per_dram_word", "ratio"),
    ("trie.cuts_words", "words"),
    ("trie.naive_words", "words"),
    ("trie.compression", "ratio"),
    ("trie.entries", "count"),
    ("arena.device_allocs", "count"),
    ("arena.acquires", "count"),
    ("arena.releases", "count"),
    ("arena.high_water", "slabs"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p90", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.exec_ms_p90", "ms"),
    ("serve.lane_busy_frac", "ratio"),
    ("serve.busy_rejections", "count"),
    ("serve.peak_reserved_frac", "ratio"),
    ("dynamic.dirty_roots", "count"),
    ("dynamic.reseeded", "count"),
    ("dynamic.released_entries", "count"),
    ("dynamic.delta_rows", "count"),
    ("dynamic.delta_per_reseed", "ratio"),
    ("dist.busy_wall_ms.r0", "ms"),
    ("dist.busy_wall_ms.r1", "ms"),
    ("dist.idle_ms.r0", "ms"),
    ("dist.idle_ms.r1", "ms"),
    ("dist.balance", "ratio"),
    ("dist.donations", "count"),
    ("dist.messages", "count"),
    ("dist.bytes", "bytes"),
    ("loadgen.late_ms_max", "ms"),
    ("loadgen.samples", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("self_ms.workload", "ms"),
    ("self_ms.setup", "ms"),
    ("self_ms.graph.generate", "ms"),
    ("self_ms.graph.profile", "ms"),
    ("self_ms.plan.build", "ms"),
    ("self_ms.session.run", "ms"),
    ("self_ms.serve.run", "ms"),
    ("self_ms.serve.queue", "ms"),
    ("self_ms.serve.exec", "ms"),
    ("self_ms.dynamic.apply_batch", "ms"),
    ("self_ms.dist.run", "ms"),
    ("self_ms.timed", "ms"),
    ("self_ms.check", "ms"),
];

/// Metrics a workload measured: `name → (value, samples)`. Unset
/// metrics read as 0 with no samples.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64, u64)>,
}

impl Metrics {
    /// Sets `name` to `value`, measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, value, samples));
    }

    /// `(name, unit, value, samples)` for every metric in `list`.
    pub fn rows<'a>(
        &'a self,
        list: &'a [(&'static str, &'static str)],
    ) -> impl Iterator<Item = (&'static str, &'static str, f64, u64)> + 'a {
        list.iter().map(|&(name, unit)| {
            let (v, s) = self
                .values
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or((0.0, 0), |&(_, v, s)| (v, s));
            (name, unit, v, s)
        })
    }
}

/// The result line: `correct`, `attempted`, `failed` and every
/// `(name, unit, value)` of `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &'static str, f64)],
) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, unit, v)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::F64(*v)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(names(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&json, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn host_figures_lead_the_per_layer_list() {
        assert_eq!(PER_LAYER[..HOST.len()], HOST);
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn unset_metrics_read_zero_and_set_overwrites() {
        let mut m = Metrics::default();
        m.set("plan.hits", 3.0, 1);
        m.set("plan.hits", 4.0, 2);
        let rows: Vec<_> = m.rows(&PER_LAYER).collect();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.contains(&("plan.hits", "count", 4.0, 2)));
        assert!(rows.contains(&("plan.misses", "count", 0.0, 0)));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let j = result_json(true, 3, 0, &[("setup_s".into(), "s", 0.5)]);
        let text = j.render();
        assert_eq!(
            text,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }
}
