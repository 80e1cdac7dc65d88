//! The benchmark's own checks: metric names and units agree with
//! `BENCHMARK.json`, and every workload at reduced length runs clean,
//! with its traced pass reproducing the untraced pass bit for bit.

use std::sync::Mutex;

use isol_perfbench::{run, Config, Outcome, Workload, BUCKETS, END_TO_END, PER_LAYER};

/// The engine counters and the cell cache are process-global, so runs
/// must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn quick(workload: Workload, trace: bool) -> Outcome {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cfg = Config {
        workload,
        seed: 3,
        seconds: 0.1,
        trace,
        quick: true,
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("perfbench-{}-{trace}", workload.name())),
    };
    let out = run(&cfg).expect("scratch directory is writable");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    out
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(name_ok(name), "bad metric name {name}");
        assert!(!unit.is_empty());
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(
            BENCHMARK_JSON.contains(&entry),
            "BENCHMARK.json lacks {entry}"
        );
    }
    let listed = BENCHMARK_JSON.matches("\"name\":").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists metrics or workloads the benchmark does not print"
    );
    for w in Workload::ALL {
        assert!(BENCHMARK_JSON.contains(&format!("{{\"name\": \"{}\"", w.name())));
    }
}

#[test]
fn every_workload_runs_clean_and_traced_matches_untraced() {
    for w in Workload::ALL {
        let out = quick(w, true);
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.problems);
        assert!(out.correct());
        let names: Vec<&str> = out.metrics().iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{}", w.name());
        let e2e: Vec<&str> = out.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(e2e, want, "{}: a traced run prints every metric", w.name());
        for m in out.metrics().iter().chain(&out.detail) {
            assert!(
                name_ok(&m.name) && !m.unit.is_empty(),
                "{}: {m:?}",
                w.name()
            );
            assert!(m.value.is_finite(), "{}: {m:?}", w.name());
        }
        let share = |n: &str| out.metrics().iter().find(|m| m.name == n).expect(n).value;
        let buckets: f64 = BUCKETS.iter().map(|b| share(&format!("{b}.share"))).sum();
        assert!(
            (buckets + share("host.self_share") - 1.0).abs() < 1e-9,
            "{}: shares must sum to the traced run time",
            w.name()
        );
        assert!(share("host.events") > 0.0);
    }
}

#[test]
fn untraced_result_line_carries_every_end_to_end_metric() {
    let out = quick(Workload::AppsRw, false);
    assert_eq!(out.failed, 0, "{:?}", out.problems);
    let line = out.result_line();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 6, \"failed\": 0, \"metrics\": {"));
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "result line lacks {name}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
    }
    for m in out.metrics() {
        assert!(m.value > 0.0, "{} must never be 0", m.name);
    }
}
