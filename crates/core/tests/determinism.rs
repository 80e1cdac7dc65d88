//! Regression tests for the engine's determinism guarantees:
//!
//! * running an experiment grid on one worker and on several workers
//!   must produce byte-identical CSV output (any jobs-dependent
//!   divergence — result reordering, per-worker RNG state, racy
//!   accumulation — fails here),
//! * output must match the committed golden CSVs, pinning today's
//!   tables against *any* future engine change (the goldens were
//!   captured before the wheel/slab/enum-dispatch rework and survived
//!   it byte-for-byte).

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use isol_bench::experiments::{fig4, fleet, q_faults};
use isol_bench::{cache, runner, Fidelity, Knob, OutputSink};
use simcore::SimTime;

/// The worker count is process-global, so tests that set it must not
/// interleave.
static GLOBAL_CONFIG: Mutex<()> = Mutex::new(());

/// Runs one experiment's smoke grid with `jobs` workers, returning
/// every emitted CSV as `name -> bytes`.
fn grid_csvs(
    experiment: &str,
    jobs: usize,
    tag: &str,
    run: impl FnOnce(&mut OutputSink),
) -> BTreeMap<String, Vec<u8>> {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "isol-bench-determinism-{experiment}-{}-{tag}",
        std::process::id()
    ));
    runner::set_jobs(jobs);
    let mut sink = OutputSink::with_dir(&dir).expect("temp output dir");
    run(&mut sink);
    let mut out = BTreeMap::new();
    for name in sink.emitted() {
        let path = dir.join(format!("{name}.csv"));
        out.insert(name.clone(), fs::read(&path).expect("emitted csv exists"));
    }
    fs::remove_dir_all(&dir).ok();
    out
}

fn fig4_csvs(jobs: usize, tag: &str) -> BTreeMap<String, Vec<u8>> {
    grid_csvs("fig4", jobs, tag, |sink| {
        fig4::run(Fidelity::Smoke, sink).expect("fig4 run");
    })
}

/// The fault-injection grid: the interesting determinism case, because
/// every cell draws from a fault RNG stream on top of the usual
/// simulation streams.
fn q_faults_csvs(jobs: usize, tag: &str) -> BTreeMap<String, Vec<u8>> {
    grid_csvs("qfaults", jobs, tag, |sink| {
        q_faults::run(Fidelity::Smoke, sink).expect("q_faults run");
    })
}

fn assert_same_csvs(a: &BTreeMap<String, Vec<u8>>, b: &BTreeMap<String, Vec<u8>>, what: &str) {
    assert!(!a.is_empty(), "experiment emitted no CSVs");
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
fn fig4_grid_is_byte_identical_across_worker_counts() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let sequential = fig4_csvs(1, "seq");
    let parallel = fig4_csvs(4, "par");
    runner::set_jobs(0); // restore auto for any other test in this binary
    assert_same_csvs(&sequential, &parallel, "jobs=1 and jobs=4");
}

#[test]
fn fig4_smoke_output_matches_committed_golden() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let current = fig4_csvs(2, "golden");
    runner::set_jobs(0);
    assert_matches_goldens(&current, 2, "the two fig4 CSVs");
}

fn assert_matches_goldens(current: &BTreeMap<String, Vec<u8>>, min: usize, what: &str) {
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut checked = 0;
    for (name, bytes) in current {
        let golden_path = golden_dir.join(format!("{name}.csv"));
        let golden = fs::read(&golden_path)
            .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", golden_path.display()));
        assert_eq!(
            bytes, &golden,
            "{name}.csv diverged from the committed golden fixture"
        );
        checked += 1;
    }
    assert!(checked >= min, "expected at least {what}");
}

/// The cache determinism guarantee: a warm run serves every cell from
/// disk yet stays byte-identical to the cold run *and* to the committed
/// goldens — the cache is invisible in the output.
#[test]
fn fig4_warm_cache_run_is_byte_identical_to_cold_and_golden() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let cache_dir: PathBuf = std::env::temp_dir().join(format!(
        "isol-bench-determinism-cache-{}",
        std::process::id()
    ));
    fs::remove_dir_all(&cache_dir).ok();
    cache::set_dir(&cache_dir);
    cache::set_mode(cache::CacheMode::ReadWrite);
    cache::reset_stats();
    let cold = fig4_csvs(2, "cache-cold");
    let cold_stats = cache::stats();
    let warm = fig4_csvs(2, "cache-warm");
    let warm_stats = cache::stats();
    cache::set_mode(cache::CacheMode::Off);
    runner::set_jobs(0);
    fs::remove_dir_all(&cache_dir).ok();
    assert!(cold_stats.misses > 0, "cold run must simulate");
    assert!(
        warm_stats.hits >= cold_stats.misses,
        "warm run must be served from the cache ({} hits for {} cells)",
        warm_stats.hits,
        cold_stats.misses
    );
    assert_same_csvs(&cold, &warm, "cold and warm cache runs");
    assert_matches_goldens(&warm, 2, "the two fig4 CSVs (warm run)");
}

#[test]
fn q_faults_grid_is_byte_identical_across_worker_counts() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let sequential = q_faults_csvs(1, "seq");
    let parallel = q_faults_csvs(4, "par");
    runner::set_jobs(0);
    assert_same_csvs(&sequential, &parallel, "jobs=1 and jobs=4 (faulted)");
}

#[test]
fn q_faults_smoke_output_matches_committed_golden() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let current = q_faults_csvs(2, "golden");
    runner::set_jobs(0);
    assert_matches_goldens(&current, 1, "the q_faults CSV");
}

// ===== The shards axis =====
//
// `HostSim::run_sharded` must be bit-exact for every shard count; the
// fleet scenario (per-SSD tenants, one component per device) is the
// canonical multi-component machine. The full `RunReport` Debug
// rendering is the comparison key — Rust's shortest-roundtrip float
// formatting makes it injective, so equal strings mean equal bits in
// every histogram percentile, bandwidth series, and counter.

/// Renders one fleet run at an explicit shard count.
fn fleet_report(knob: Knob, faulted: bool, shards: usize) -> String {
    let until = SimTime::from_millis(15);
    let s = if faulted {
        fleet::fleet_scenario_faulted(knob, 3)
    } else {
        fleet::fleet_scenario(knob, 3)
    };
    format!("{:?}", s.build_host(until).run_sharded(until, shards))
}

#[test]
fn fleet_reports_are_identical_across_shard_counts_for_every_knob() {
    for knob in Knob::ALL {
        let reference = fleet_report(knob, false, 1);
        for shards in [2, 3, 5] {
            assert_eq!(
                reference,
                fleet_report(knob, false, shards),
                "{knob} fleet report differs between shards=1 and shards={shards}"
            );
        }
    }
}

#[test]
fn faulted_fleet_reports_are_identical_across_shard_counts() {
    // Controller resets + latency spikes + the host recovery path, all
    // replayed per component: the adversarial case for shard splitting.
    let reference = fleet_report(Knob::None, true, 1);
    for shards in [2, 3] {
        assert_eq!(
            reference,
            fleet_report(Knob::None, true, shards),
            "faulted fleet report differs between shards=1 and shards={shards}"
        );
    }
}

#[test]
fn fig4_grid_is_byte_identical_across_shard_counts() {
    // End-to-end through `Scenario::run` and the process-global
    // `--shards` knob (fig4 cells are single-component, so this also
    // pins the sharded path's fallback behavior).
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    runner::set_shards(1);
    let one = fig4_csvs(2, "shards1");
    runner::set_shards(4);
    let four = fig4_csvs(2, "shards4");
    runner::set_shards(0);
    runner::set_jobs(0);
    assert_same_csvs(&one, &four, "shards=1 and shards=4");
    assert_matches_goldens(&four, 2, "the two fig4 CSVs (shards=4)");
}
