//! Integration tests for the content-addressed cell cache:
//!
//! * a warm rerun recomputes nothing and is byte-identical to the cold
//!   run at every `--jobs` value,
//! * any change to the cache key — fidelity tier or engine salt —
//!   invalidates exactly the affected entries,
//! * corrupted or truncated entries are silent misses (recomputed and
//!   rewritten), never panics,
//! * faulted scenarios (`q_faults`) bypass the cache entirely,
//! * a traced cell whose attempt was cancelled leaves no telemetry.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use host_sim::DeviceSetup;
use isol_bench::experiments::{fig4, q_faults};
use isol_bench::{cache, runner, tracing, Fidelity, Knob, OutputSink, Scenario};
use simcore::cancel::{CancelToken, InstallGuard};
use simcore::SimTime;
use workload::JobSpec;

/// Cache mode/dir/salt and the worker count are process-global, so
/// tests that touch them must not interleave.
static GLOBAL_CONFIG: Mutex<()> = Mutex::new(());

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("isol-bench-cache-it-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&d).ok();
    d
}

/// Runs the fig4 smoke grid with `jobs` workers, returning every
/// emitted CSV as `name -> bytes`.
fn fig4_csvs(jobs: usize, tag: &str) -> BTreeMap<String, Vec<u8>> {
    let dir = temp_dir(&format!("out-{tag}"));
    runner::set_jobs(jobs);
    let mut sink = OutputSink::with_dir(&dir).expect("temp output dir");
    fig4::run(Fidelity::Smoke, &mut sink).expect("fig4 run");
    let mut out = BTreeMap::new();
    for name in sink.emitted() {
        let path = dir.join(format!("{name}.csv"));
        out.insert(name.clone(), fs::read(&path).expect("emitted csv exists"));
    }
    fs::remove_dir_all(&dir).ok();
    out
}

/// Restores the process-global cache state on scope exit so a failing
/// assertion cannot leak `ReadWrite` mode into unrelated tests.
struct CacheGuard;

impl Drop for CacheGuard {
    fn drop(&mut self) {
        cache::set_mode(cache::CacheMode::Off);
        cache::set_test_salt(None);
        runner::set_jobs(0);
    }
}

fn arm_cache(dir: &Path) -> CacheGuard {
    cache::set_dir(dir);
    cache::set_mode(cache::CacheMode::ReadWrite);
    cache::set_test_salt(None);
    cache::reset_stats();
    let _ = cache::take_cell_stats();
    CacheGuard
}

fn cache_entries(dir: &Path) -> Vec<PathBuf> {
    match fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "cell"))
            .collect(),
        Err(_) => Vec::new(),
    }
}

#[test]
fn warm_rerun_recomputes_nothing_and_respects_jobs() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let cache_dir = temp_dir("jobs");
    let _restore = arm_cache(&cache_dir);
    let cold = fig4_csvs(2, "jobs-cold");
    let s0 = cache::stats();
    assert!(s0.misses > 0, "cold run must simulate");
    assert_eq!(s0.hits, 0);
    assert_eq!(s0.stored, s0.misses, "every computed cell stored");
    let warm1 = fig4_csvs(1, "jobs-w1");
    let warm4 = fig4_csvs(4, "jobs-w4");
    let s1 = cache::stats();
    assert_eq!(s1.misses, s0.misses, "warm reruns must not simulate");
    assert_eq!(s1.hits, 2 * s0.misses, "every warm cell served from disk");
    assert_eq!(cold, warm1, "jobs=1 warm run must match the cold bytes");
    assert_eq!(cold, warm4, "jobs=4 warm run must match the cold bytes");
    fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn engine_salt_bump_orphans_every_entry() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let cache_dir = temp_dir("salt");
    let _restore = arm_cache(&cache_dir);
    let cold = fig4_csvs(2, "salt-cold");
    let s0 = cache::stats();
    assert!(s0.misses > 0);
    // A bumped salt reaches none of the existing entries.
    cache::set_test_salt(Some(0xDEAD_BEEF));
    let bumped = fig4_csvs(2, "salt-bump");
    let s1 = cache::stats();
    assert_eq!(s1.hits, 0, "no entry may survive a salt bump");
    assert_eq!(s1.misses, 2 * s0.misses);
    // The original salt's entries are still intact.
    cache::set_test_salt(None);
    let warm = fig4_csvs(2, "salt-warm");
    let s2 = cache::stats();
    assert_eq!(s2.hits, s0.misses, "original-salt entries still serve");
    assert_eq!(cold, bumped);
    assert_eq!(cold, warm);
    fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn fidelity_is_part_of_the_key() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let cache_dir = temp_dir("fidelity");
    let _restore = arm_cache(&cache_dir);
    let s = Scenario::new(
        "fidelity-key-probe",
        1,
        vec![Knob::None.device_setup(false)],
    );
    let until = SimTime::from_nanos(1);
    let smoke = cache::spec_string("t", "t-x", Fidelity::Smoke, &s, until);
    let standard = cache::spec_string("t", "t-x", Fidelity::Standard, &s, until);
    assert_ne!(smoke, standard, "fidelity must be part of the spec");
    assert_ne!(
        cache::entry_path(&cache_dir, &smoke),
        cache::entry_path(&cache_dir, &standard)
    );
    // Rows stored under one fidelity are unreachable from the other.
    cache::store_rows(&cache_dir, &smoke, &[vec![1.0]]).unwrap();
    assert!(cache::load_rows(&cache_dir, &smoke).is_some());
    assert!(cache::load_rows(&cache_dir, &standard).is_none());
    fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn corrupted_entries_recompute_without_panicking() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let cache_dir = temp_dir("corrupt");
    let _restore = arm_cache(&cache_dir);
    let cold = fig4_csvs(2, "corrupt-cold");
    let s0 = cache::stats();
    let entries = cache_entries(&cache_dir);
    assert_eq!(entries.len(), s0.stored, "one file per stored cell");
    // Truncate half the entries and garble the rest.
    for (i, path) in entries.iter().enumerate() {
        let bytes = fs::read(path).unwrap();
        if i % 2 == 0 {
            fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
        } else {
            fs::write(path, b"\xFF\xFEnot a cache entry").unwrap();
        }
    }
    let recovered = fig4_csvs(2, "corrupt-warm");
    let s1 = cache::stats();
    assert_eq!(s1.hits, 0, "every corrupted entry must be a miss");
    assert_eq!(s1.misses, 2 * s0.misses, "every cell recomputed");
    assert_eq!(cold, recovered, "recovery run must match the cold bytes");
    // The recovery run rewrote the entries; the next run hits again.
    let warm = fig4_csvs(2, "corrupt-rewarm");
    let s2 = cache::stats();
    assert_eq!(s2.hits, s0.misses, "rewritten entries serve again");
    assert_eq!(cold, warm);
    fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn faulted_cells_bypass_the_cache() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let cache_dir = temp_dir("faults");
    let _restore = arm_cache(&cache_dir);
    runner::set_jobs(2);
    q_faults::run(Fidelity::Smoke, &mut OutputSink::quiet()).expect("q_faults run");
    let s = cache::stats();
    assert!(s.bypassed > 0, "faulted cells must register as bypassed");
    assert_eq!(s.hits, 0);
    assert_eq!(s.misses, 0);
    assert_eq!(s.stored, 0, "faulted results must never be written");
    assert!(
        cache_entries(&cache_dir).is_empty(),
        "no cache file may exist for a faulted grid"
    );
    fs::remove_dir_all(&cache_dir).ok();
}

/// Turns trace capture off again on scope exit.
struct TraceGuard;

impl Drop for TraceGuard {
    fn drop(&mut self) {
        tracing::set_capacity(None);
        tracing::set_dir(tracing::DEFAULT_DIR);
    }
}

#[test]
fn cancelled_traced_attempt_leaves_no_cell_stats() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let trace_dir = temp_dir("traced-cancel");
    let _restore = arm_cache(&temp_dir("traced-cancel-cache"));
    tracing::set_dir(&trace_dir);
    tracing::set_capacity(Some(1024));
    let _trace = TraceGuard;
    let mut s = Scenario::new("traced-cancel", 1, vec![DeviceSetup::flash()]);
    let g = s.add_cgroup("cg0");
    s.add_app(g, JobSpec::lc_app("lc"));
    let before = cache::stats();
    let token = CancelToken::new();
    token.cancel();
    let rows = {
        let _installed = InstallGuard::new(token);
        cache::run_scenario(
            "t",
            "t-traced-cancel",
            Fidelity::Smoke,
            s,
            SimTime::from_millis(50),
            |_| vec![vec![1.0]],
        )
    };
    assert_eq!(rows, vec![vec![1.0]], "the runner discards these rows");
    assert!(
        cache::take_cell_stats().is_empty(),
        "a discarded attempt must not reach timings.json"
    );
    assert_eq!(cache::stats().bypassed, before.bypassed);
    // The partial trace is still written.
    assert!(tracing::trace_paths("t-traced-cancel").0.exists());
    fs::remove_dir_all(&trace_dir).ok();
}
