//! The metric contract: every name, unit and direction the benchmark
//! reports, and — for layer metrics — which end-to-end metric on which
//! workload each is expected to move. `BENCHMARK.json` lists the same
//! names; a test keeps the two in step.

use crate::json::{num, obj, str, Value};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see; reported by every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("query_p50_ms", "ms", Better::Lower, 0.25),
    e2e("query_p99_ms", "ms", Better::Lower, 0.25),
    e2e("queries_per_s", "1/s", Better::Higher, 0.25),
    e2e("pages_per_query", "pages", Better::Lower, 0.15),
    e2e("index_mb", "MB", Better::Lower, 0.05),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A metric of a single layer; reported by every traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload a change to it should move.
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const KERNEL: &str = "query_p50_ms, queries_per_s on batch_long; not serve_read";
const GEOMETRY: &str = "query_p50_ms on engine_short; not serve_read";
const PAGE: &str = "query_p50_ms, queries_per_s on engine_short; not batch_long query_p50_ms";
const BUILD: &str = "setup_s everywhere; wal.writes_per_s on serve_ingest; not read latencies";
const RTREE_Q: &str = "tracks query_p50_ms on engine_short (len1) and batch_long (len25, len100)";
const SUBTRACT: &str = "none: evidence for the subtraction pass, no workload serves this substrate";
const COUNT: &str = "none while the algorithm is unchanged; pages_per_query when pruning improves";
const EXEC: &str = "queries_per_s on batch_long and serve_read; not engine_short";
const SERVE: &str = "query_p50_ms, queries_per_s on serve_read; query_p99_ms on serve_ingest; not engine_short, batch_long";
const WAL: &str = "wal.write_p50_ms, wal.writes_per_s, wal.recovery_s on serve_ingest; not the read-only workloads";
const TRACE: &str = "none: bookkeeping of the traced run itself";

pub const PER_LAYER: &[Layer] = &[
    // trajectory: kinematics kernels
    lower("trajectory.trinomial_between_ns", "ns", KERNEL),
    lower("trajectory.integral_exact_ns", "ns", KERNEL),
    lower("trajectory.integral_trapezoid_ns", "ns", KERNEL),
    lower("trajectory.error_bound_ns", "ns", KERNEL),
    // index: geometry
    lower("index.mindist_ns", "ns", GEOMETRY),
    lower("index.segment_rect_mindist_ns", "ns", GEOMETRY),
    // index: page layer
    lower("index.checksum_verify_ns_per_page", "ns", PAGE),
    lower("index.node_decode_ns_per_page", "ns", PAGE),
    lower("index.node_encode_ns_per_page", "ns", PAGE),
    lower("index.buffer_hit_ns", "ns", PAGE),
    lower("index.buffer_miss_ns", "ns", PAGE),
    lower("index.read_node_ns", "ns", PAGE),
    higher("index.buffer_hit_ratio", "ratio", PAGE),
    lower("index.bytes_decoded_per_query", "bytes", PAGE),
    lower("index.page_misses_per_query", "pages", PAGE),
    higher("index.pruning_power", "ratio", COUNT),
    // index: build and write
    lower("index.rtree_build_s", "s", BUILD),
    lower("index.tbtree_build_s", "s", BUILD),
    lower("index.rtree_insert_us", "us", BUILD),
    lower("index.rtree_delete_us", "us", BUILD),
    // search: kernels
    lower("search.piece_ns", "ns", KERNEL),
    lower("search.dissim_between_us", "us", KERNEL),
    lower("search.scan_query_ms_len25", "ms", KERNEL),
    // search: one query per substrate, single thread
    lower("search.rtree_query_ms_len1", "ms", RTREE_Q),
    lower("search.rtree_query_ms_len25", "ms", RTREE_Q),
    lower("search.rtree_query_ms_len100", "ms", RTREE_Q),
    lower("search.tbtree_query_ms_len1", "ms", SUBTRACT),
    lower("search.tbtree_query_ms_len25", "ms", SUBTRACT),
    lower("search.tbtree_query_ms_len100", "ms", SUBTRACT),
    lower("search.strtree_query_ms_len25", "ms", SUBTRACT),
    lower("search.metric_query_ms_len25", "ms", SUBTRACT),
    lower("search.metric_query_ms_len100", "ms", SUBTRACT),
    // search: exact work counts on the workload's own stream
    lower("search.nodes_per_query", "count", COUNT),
    lower("search.piece_evals_per_query", "count", COUNT),
    lower("search.ldd_evals_per_query", "count", COUNT),
    lower("search.heap_pushes_per_query", "count", COUNT),
    lower("search.candidates_refined_per_query", "count", COUNT),
    lower("search.exact_recomputations_per_query", "count", COUNT),
    // exec
    lower("exec.batch_overhead_us_per_query", "us", EXEC),
    higher("exec.qps_1s1w", "1/s", EXEC),
    higher("exec.qps_1s2w", "1/s", EXEC),
    higher("exec.qps_2s1w", "1/s", EXEC),
    higher("exec.qps_2s2w", "1/s", EXEC),
    lower("exec.submit_wait_us", "us", EXEC),
    higher("exec.shared_kth_prunes_per_query", "count", EXEC),
    lower("exec.self_us_per_query", "us", EXEC),
    // serve
    lower("serve.request_encode_ns", "ns", SERVE),
    lower("serve.request_decode_ns", "ns", SERVE),
    lower("serve.response_encode_ns", "ns", SERVE),
    lower("serve.response_decode_ns", "ns", SERVE),
    lower("serve.split_frame_ns", "ns", SERVE),
    lower("serve.rtt_floor_us", "us", SERVE),
    lower("serve.cache_hit_p50_us", "us", SERVE),
    lower("serve.cache_miss_p50_ms", "ms", SERVE),
    higher("serve.cache_hit_ratio", "ratio", SERVE),
    lower("serve.self_us_per_query", "us", SERVE),
    lower("serve.overload_rejections", "count", SERVE),
    // wal
    lower("wal.frame_encode_ns", "ns", WAL),
    lower("wal.frame_decode_ns", "ns", WAL),
    lower("wal.append_us", "us", WAL),
    lower("wal.commit_p50_us", "us", WAL),
    lower("wal.commit_p99_us", "us", WAL),
    lower("wal.apply_us_per_op", "us", WAL),
    higher("wal.appends_per_fsync", "count", WAL),
    lower("wal.bytes_per_user_byte", "ratio", WAL),
    higher("wal.replay_records_per_s", "1/s", WAL),
    lower("wal.checkpoint_s", "s", WAL),
    lower("wal.replica_apply_us_per_record", "us", WAL),
    // wal: the write side of serve_ingest, end to end over the wire
    lower("wal.write_p50_ms", "ms", WAL),
    lower("wal.write_p99_ms", "ms", WAL),
    higher("wal.writes_per_s", "1/s", WAL),
    lower("wal.recovery_s", "s", WAL),
    // trace bookkeeping
    lower("trace.overhead_share", "ratio", TRACE),
    higher("trace.search_modelled_share", "ratio", TRACE),
    lower("trace.search_unattributed_share", "ratio", TRACE),
];

/// `BENCHMARK.json`, generated so the contract file and these tables
/// cannot drift: `mst-benchmark contract > BENCHMARK.json`.
pub fn contract(run_seconds: f64) -> Value {
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name".to_string(), str(name)),
            ("unit".to_string(), str(unit)),
            ("better".to_string(), str(better.as_str())),
        ]
    };
    obj([
        (
            "command",
            Value::Arr(vec![str("bash"), str("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![str("benchmark")])),
        ("run_seconds", num(run_seconds)),
        (
            "workloads",
            Value::Arr(
                crate::workloads::NAMES
                    .iter()
                    .zip(crate::workloads::WHY)
                    .map(|(name, why)| obj([("name", str(*name)), ("why", str(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut fields = named(m.name, m.unit, m.better);
                        fields.push(("bound".to_string(), num(m.bound)));
                        Value::Obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Value::Obj(named(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

/// Every metric as a markdown table: the README's glossary is this output.
pub fn glossary() -> String {
    let mut out =
        String::from("| end-to-end metric | unit | better | bound |\n|---|---|---|---|\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        ));
    }
    out.push_str("\n| layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}

/// The unit of a metric of either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a metric name is used twice");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn the_readme_names_every_metric() {
        let readme = include_str!("../README.md");
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(readme.contains(name), "README.md does not mention {name}");
        }
        // The layer table is `glossary()`'s second half, verbatim.
        let table = glossary();
        let layer_table = &table[table.find("| layer metric").unwrap()..];
        assert!(
            readme.contains(layer_table.trim_end()),
            "README.md's layer table is stale"
        );
    }

    /// `BENCHMARK.json` at the repo root must list exactly these metrics.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field =
            |entry: &Value, key: &str| entry.get(key).and_then(Value::as_str).unwrap().to_string();

        let listed: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                (
                    field(e, "name"),
                    field(e, "unit"),
                    field(e, "better"),
                    e.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(listed, ours);

        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        assert!(crate::workloads::WHY
            .iter()
            .all(|why| why.len() <= 200 && !why.contains('\n')));
    }
}
