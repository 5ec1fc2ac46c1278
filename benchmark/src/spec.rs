//! Names, units and directions of everything the benchmark reports —
//! the same table `BENCHMARK.json` carries (a self-test holds the two
//! equal) — and the sizes of the four workloads.

use crate::adapter::Topology;

/// One metric: name, unit, and whether higher is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: [MetricDef; 11] = [
    lower("setup_s", "s"),
    lower("knn_p50_us", "us"),
    lower("knn_p90_us", "us"),
    lower("feedback_p50_us", "us"),
    lower("converge_p50_ms", "ms"),
    higher("searches_per_s", "1/s"),
    lower("cpu_us_per_search", "us"),
    lower("rounds_per_query", "count"),
    higher("first_round_precision", "frac"),
    higher("final_precision", "frac"),
    lower("peak_rss_mb", "MB"),
];

/// Single layers; measured by the traced run and the layer probes.
pub const PER_LAYER: [MetricDef; 50] = [
    lower("vecdb.kernels.stream_floor_ns_per_row", "ns/row"),
    lower("vecdb.kernels.f32_ns_per_row", "ns/row"),
    lower("vecdb.kernels.f64_ns_per_row", "ns/row"),
    lower("vecdb.kernels.f32_over_floor", "ratio"),
    lower("vecdb.scan.q1_us", "us"),
    lower("vecdb.scan.q16_us_per_query", "us"),
    lower("vecdb.scan.rows_per_search", "count"),
    higher("vecdb.scan.blocks_abandoned_per_search", "count"),
    higher("vecdb.scan.filtered_per_search", "count"),
    lower("vecdb.scan.rescored_per_search", "count"),
    higher("vecdb.scan.rescore_yield", "frac"),
    higher("vecdb.scan.seeded_pass_frac", "frac"),
    lower("vecdb.partition.build_s", "s"),
    higher("vecdb.partition.pruned_frac", "frac"),
    lower("vecdb.partition.rows_visited_frac", "frac"),
    lower("core.module.predict_us", "us"),
    lower("core.module.insert_us", "us"),
    higher("core.module.stored_points", "count"),
    lower("core.module.tree_depth", "count"),
    lower("core.module.snapshot_bytes", "bytes"),
    higher("core.module.bypass_hit_frac", "frac"),
    higher("core.module.cycles_saved_frac", "frac"),
    lower("core.query.lower_ns", "ns"),
    lower("core.shared.knn_batch_us", "us"),
    higher("core.shared.batch_fill", "count"),
    lower("feedback.step_us", "us"),
    lower("server.protocol.knn_req_codec_ns", "ns"),
    lower("server.protocol.knn_resp_codec_ns", "ns"),
    lower("server.protocol.bytes_per_search", "bytes"),
    lower("server.batcher.queue_wait_p50_us", "us"),
    lower("server.batcher.queue_wait_p99_us", "us"),
    higher("server.batcher.fill", "count"),
    lower("server.batcher.passes_per_search", "count"),
    lower("server.trace.gather_p50_us", "us"),
    lower("server.trace.merge_p50_us", "us"),
    lower("server.trace.shard_queue_p50_us", "us"),
    lower("server.trace.shard_busy_p50_us", "us"),
    lower("server.trace.wire_overhead_p50_us", "us"),
    higher("server.trace.coverage_frac", "frac"),
    lower("server.trace.overhead_ratio", "ratio"),
    lower("server.router.shard_skew_p50_us", "us"),
    lower("server.router.hedges_fired_per_1k", "count"),
    higher("server.router.hedges_won_per_1k", "count"),
    lower("server.router.retries", "count"),
    lower("server.router.timeouts", "count"),
    lower("server.router.degraded_replies", "count"),
    lower("server.router.module_replicate_us", "us"),
    lower("client.knn_p99_us", "us"),
    lower("client.judge_us", "us"),
    higher("client.cpu_util", "ratio"),
];

/// The four workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "wire_flat_big",
    "wire_pruned_big",
    "router_small",
    "learn_inproc",
];

/// Clusters (= categories) of the clustered generator.
pub const CLUSTERS: usize = 64;

/// Sizes of one wire workload.
#[derive(Debug, Clone, Copy)]
pub struct WireSizes {
    /// Serving stack.
    pub topology: Topology,
    /// Collection rows.
    pub rows: usize,
    /// Dimensions.
    pub dim: usize,
    /// Closed-loop client connections (one thread each).
    pub clients: usize,
    /// Untimed queries per client after each set-up.
    pub warmup_queries: usize,
    /// Never-inserted queries held out for the saved-cycles figure and
    /// the layer probes (at least `probes::QUERIES`).
    pub heldout_queries: usize,
}

/// Sizes of `learn_inproc`.
#[derive(Debug, Clone, Copy)]
pub struct InprocSizes {
    /// `fbp-imagegen` member-count scale (1.0 = 2 491 labelled images).
    pub scale: f64,
    /// Unlabelled noise images.
    pub noise_images: usize,
    /// Lock-step sessions coalesced into one pass per round.
    pub sessions: usize,
    /// Untimed queries (over all sessions) after each set-up.
    pub warmup_queries: usize,
    /// Never-inserted queries of the saved-cycles tail.
    pub heldout_queries: usize,
}

/// A workload's sizes.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// Sessions over TCP.
    Wire(WireSizes),
    /// No sockets: the paper's stream.
    Inproc(InprocSizes),
}

/// Look a workload up by name; `smoke` shrinks it to a sub-second
/// shape that still walks every code path.
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let wire = |topology, rows, dim, clients| {
        Workload::Wire(if smoke {
            WireSizes {
                topology,
                rows: rows / 20,
                dim,
                clients,
                warmup_queries: 4,
                heldout_queries: 32,
            }
        } else {
            WireSizes {
                topology,
                rows,
                dim,
                clients,
                warmup_queries: 20,
                heldout_queries: 32,
            }
        })
    };
    Some(match name {
        "wire_flat_big" => wire(Topology::Flat, 120_000, 64, 2),
        "wire_pruned_big" => wire(Topology::Pruned, 120_000, 64, 2),
        // One client: the router and two parallel shard scans already
        // fill the two cores; a second client made throughput swing.
        "router_small" => wire(Topology::Router, 16_000, 32, 1),
        "learn_inproc" => Workload::Inproc(if smoke {
            InprocSizes {
                scale: 0.25,
                noise_images: 1_500,
                sessions: 16,
                warmup_queries: 16,
                heldout_queries: 32,
            }
        } else {
            // The paper's data at five times its size: 50 000
            // histograms, 12 455 of them labelled. A run gets through
            // about half of the labelled pool.
            InprocSizes {
                scale: 5.0,
                noise_images: 37_545,
                sessions: 16,
                warmup_queries: 64,
                heldout_queries: 500,
            }
        }),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(WORKLOADS)
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in WORKLOADS {
            assert!(workload(w, false).is_some() && workload(w, true).is_some());
        }
        assert!(workload("nope", false).is_none());
    }

    /// `BENCHMARK.json` and this table name the same workloads and
    /// metrics with the same units and directions, in the same order.
    #[test]
    fn table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let serde_json::Value::Array(workloads) = &doc["workloads"] else {
            panic!("workloads is not an array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let serde_json::Value::Array(listed) = &doc[key] else {
                panic!("{key} is not an array");
            };
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry["name"].as_str(), Some(def.name));
                assert_eq!(entry["unit"].as_str(), Some(def.unit), "{}", def.name);
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(entry["better"].as_str(), Some(better), "{}", def.name);
            }
        }
    }
}
