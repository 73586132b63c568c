//! `--quick` (3 s windows, small tables) through all four workloads:
//! every metric named in the benchmark's lists is reported, finite, and
//! no operation fails. One test, so the workloads run one after another
//! and do not share the box.

use hqbench::run::{self, RunSpec, END_TO_END};
use hqbench::trace::{self, PER_LAYER};
use hqbench::workload::Workload;

#[test]
fn quick_run_and_trace_report_every_metric_and_no_failure() {
    std::env::set_var("HQ_EXEC_THREADS", "1");
    for workload in Workload::ALL {
        let spec = RunSpec::quick(workload, 1);

        let out = run::untraced(&spec, &mut || Ok(Vec::new()))
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.notes);
        assert!(out.attempted > 0);
        assert_eq!(out.metrics.len(), END_TO_END.len());
        for (name, unit, _, _) in END_TO_END {
            let m = out
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{}: end-to-end metric {name} missing", workload.name()));
            assert_eq!(m.unit, unit);
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {name} = {}",
                workload.name(),
                m.value
            );
        }
        assert!(out.json_line().starts_with("{\"correct\": true, "));

        let traced =
            trace::traced(&spec, 24).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(traced.failed, 0, "{}: {:?}", workload.name(), traced.notes);
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        for (name, _, _) in PER_LAYER {
            let v = traced
                .get(name)
                .unwrap_or_else(|| panic!("{}: {name} missing", workload.name()));
            assert!(v.is_finite(), "{}: {name} = {v}", workload.name());
        }
        assert!(trace::trace_path(workload).is_file(), "trace file written");

        // The contrasts the workloads were chosen for.
        let get = |n: &str| traced.get(n).unwrap();
        assert!(get("core.session.execute_us") > 0.0);
        match workload {
            Workload::TaqWire => {
                assert!(
                    get("core.gateway.wire_us") > 0.0,
                    "the wire leg shows on taq_wire"
                );
                assert!(
                    get("core.qcache.hit_ratio") > 0.8,
                    "repeating texts hit the translation cache"
                );
            }
            Workload::WideAdhoc => {
                assert_eq!(get("core.qcache.hit_ratio"), 0.0, "no ad-hoc text repeats");
                assert_eq!(get("core.gateway.wire_us"), 0.0);
                assert!(
                    get("core.translate.share")
                        > get("core.qcache.hit_us") / get("core.session.execute_us")
                );
            }
            Workload::ShardScatter => {
                assert_eq!(
                    get("core.shard.plan_kind.fallback"),
                    0.0,
                    "no statement falls back"
                );
                assert!(get("core.shard.plan_kind.scatter") > 0.0);
                assert!(get("core.shard.plan_kind.two_phase") > 0.0);
                assert!(get("core.shard.plan_kind.gather") > 0.0);
            }
            Workload::IngestTail => {
                assert!(get("durability.fsyncs") > 0.0);
                assert!(get("ingest.recovery_s") > 0.0);
                assert!(get("ingest.wal_bytes_per_row") > 0.0);
            }
        }
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_program_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit, better, bound) in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for (name, unit, better) in PER_LAYER {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(text.contains(&format!("{{\"name\": \"{}\", ", workload.name())));
    }
}
