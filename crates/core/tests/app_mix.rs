//! Determinism and trace-invariant suite for the closed-loop `app_mix`
//! experiment and the committed scenario files that drive it:
//!
//! * the app_mix grid is byte-identical across worker counts and shard
//!   counts,
//! * it matches the committed golden CSV, pinning the closed-loop
//!   feedback path (engine → host → completions → engine) against any
//!   future change,
//! * the committed `scenarios/app_mix_smoke.toml` run is bit-exact for
//!   every shard count,
//! * a traced app-mix run satisfies every traceck invariant and the
//!   trace agrees with the report it shipped with.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use isol_bench::experiments::app_mix;
use isol_bench::scenario_file::ScenarioSpec;
use isol_bench::{runner, traceck, Fidelity, OutputSink};

/// The worker count is process-global; serialize tests that touch it.
static GLOBAL_CONFIG: Mutex<()> = Mutex::new(());

fn app_mix_csvs(jobs: usize, tag: &str) -> BTreeMap<String, Vec<u8>> {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("isol-bench-appmix-{}-{tag}", std::process::id()));
    runner::set_jobs(jobs);
    let mut sink = OutputSink::with_dir(&dir).expect("temp output dir");
    app_mix::run(Fidelity::Smoke, &mut sink).expect("app_mix run");
    let mut out = BTreeMap::new();
    for name in sink.emitted() {
        let path = dir.join(format!("{name}.csv"));
        out.insert(name.clone(), fs::read(&path).expect("emitted csv exists"));
    }
    fs::remove_dir_all(&dir).ok();
    out
}

fn assert_same_csvs(a: &BTreeMap<String, Vec<u8>>, b: &BTreeMap<String, Vec<u8>>, what: &str) {
    assert!(!a.is_empty(), "app_mix emitted no CSVs");
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "emitted CSV sets differ between {what}"
    );
    for (name, a_bytes) in a {
        assert_eq!(a_bytes, &b[name], "{name}.csv differs between {what}");
    }
}

#[test]
fn app_mix_grid_is_byte_identical_across_worker_counts() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let sequential = app_mix_csvs(1, "seq");
    let parallel = app_mix_csvs(4, "par");
    runner::set_jobs(0);
    assert_same_csvs(&sequential, &parallel, "jobs=1 and jobs=4");
}

#[test]
fn app_mix_grid_is_byte_identical_across_shard_counts() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    runner::set_shards(1);
    let one = app_mix_csvs(2, "shards1");
    runner::set_shards(4);
    let four = app_mix_csvs(2, "shards4");
    runner::set_shards(0);
    runner::set_jobs(0);
    assert_same_csvs(&one, &four, "shards=1 and shards=4");
}

#[test]
fn app_mix_smoke_output_matches_committed_golden() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let current = app_mix_csvs(2, "golden");
    runner::set_jobs(0);
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut checked = 0;
    for (name, bytes) in &current {
        let golden_path = golden_dir.join(format!("{name}.csv"));
        let golden = fs::read(&golden_path)
            .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", golden_path.display()));
        assert_eq!(
            bytes, &golden,
            "{name}.csv diverged from the committed golden fixture"
        );
        checked += 1;
    }
    assert!(checked >= 1, "expected the app_mix CSV");
}

// ===== Scenario-file determinism =====
//
// The committed smoke scenario runs all four engines; its full
// `RunReport` Debug rendering (injective via shortest-roundtrip float
// formatting) is the comparison key across shard counts.

fn smoke_spec() -> ScenarioSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/app_mix_smoke.toml");
    let src = fs::read_to_string(&path).expect("committed smoke scenario");
    ScenarioSpec::parse(&src).expect("smoke scenario parses")
}

fn smoke_report(shards: usize) -> String {
    let spec = smoke_spec();
    let until = spec.duration;
    format!(
        "{:?}",
        spec.build().build_host(until).run_sharded(until, shards)
    )
}

#[test]
fn scenario_file_run_is_identical_across_shard_counts() {
    let reference = smoke_report(1);
    for shards in [2, 4] {
        assert_eq!(
            reference,
            smoke_report(shards),
            "scenario report differs between shards=1 and shards={shards}"
        );
    }
}

// ===== Trace invariants =====

#[test]
fn traced_app_mix_scenario_passes_every_traceck_invariant() {
    let spec = smoke_spec();
    let until = spec.duration;
    let (report, trace) = spec.build().run_traced(until, 1 << 21);
    assert!(trace.is_lossless(), "trace dropped records");
    assert!(trace.is_complete(), "trace ended before the run did");
    let outcome = traceck::check(&trace);
    assert!(outcome.is_ok(), "traceck violations: {outcome:?}");
    let mismatches = traceck::check_against_report(&trace, &report);
    assert!(
        mismatches.is_empty(),
        "trace disagrees with the report: {mismatches:?}"
    );
}
