//! Determinism regression for the trace layer: the recorded event
//! stream is part of the engine's byte-identical contract, so
//!
//! * a traced experiment grid must emit identical trace files on one
//!   worker and on several (per-cell recorders are thread-local; any
//!   cross-worker leakage or reordering fails here),
//! * a small committed golden trace pins today's exact event stream —
//!   schema, payloads, ordering, every FIFO tie-break the CSVs can only
//!   aggregate away — against any future engine change.
//!   Regenerate deliberately with
//!   `UPDATE_TRACE_GOLDEN=1 cargo test -p isol-bench --test trace_determinism`.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use isol_bench::experiments::{fig4, fleet};
use isol_bench::{runner, traceck, tracing, Fidelity, Knob, OutputSink, Scenario};
use simcore::SimTime;
use workload::JobSpec;

/// Worker count and trace capture are process-global, so these tests
/// must not interleave.
static GLOBAL_CONFIG: Mutex<()> = Mutex::new(());

/// Runs the fig4 smoke grid with `jobs` workers and tracing on,
/// returning every written trace file as `name -> bytes`.
fn traced_grid(jobs: usize, tag: &str) -> BTreeMap<String, Vec<u8>> {
    let base: PathBuf = std::env::temp_dir().join(format!(
        "isol-bench-trace-determinism-{}-{tag}",
        std::process::id()
    ));
    let trace_dir = base.join("traces");
    runner::set_jobs(jobs);
    tracing::set_dir(&trace_dir);
    tracing::set_capacity(Some(tracing::DEFAULT_CAPACITY));
    let mut sink = OutputSink::with_dir(&base).expect("temp output dir");
    fig4::run(Fidelity::Smoke, &mut sink).expect("fig4 run");
    tracing::set_capacity(None);
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(&trace_dir).expect("trace dir exists") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        out.insert(name, fs::read(&path).expect("trace file readable"));
    }
    fs::remove_dir_all(&base).ok();
    out
}

#[test]
fn traced_fig4_grid_is_byte_identical_across_worker_counts() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let sequential = traced_grid(1, "seq");
    let parallel = traced_grid(4, "par");
    runner::set_jobs(0);
    assert!(!sequential.is_empty(), "traced grid wrote no trace files");
    assert_eq!(
        sequential.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "trace file sets differ between jobs=1 and jobs=4"
    );
    for (name, seq_bytes) in &sequential {
        assert_eq!(
            seq_bytes, &parallel[name],
            "{name} differs between jobs=1 and jobs=4"
        );
    }
}

/// The fixed cell for the golden: the paper's
/// two-tenant prioritization shape on mq-deadline, short enough that
/// the golden stays a small fixture yet touches submit, QoS, scheduler,
/// device, and completion events.
fn golden_scenario() -> Scenario {
    let knob = Knob::MqDlPrio;
    let mut s = Scenario::new("trace-golden", 2, vec![knob.device_setup(false)]);
    let prio = s.add_cgroup("prio");
    let be = s.add_cgroup("be");
    knob.configure_weights(&mut s, &[prio, be], &[800, 100]);
    s.add_app(prio, JobSpec::lc_app("prio"));
    s.add_app(be, JobSpec::batch_app("be"));
    s
}

fn golden_jsonl() -> String {
    let (_, trace) = golden_scenario().run_traced(SimTime::from_micros(300), 1 << 16);
    assert!(trace.is_lossless(), "golden cell overflowed its ring");
    assert!(trace.is_complete(), "golden cell trace missing run_end");
    trace.to_jsonl()
}

#[test]
fn trace_matches_committed_golden() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let current = golden_jsonl();
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_mq_prio.trace.jsonl");
    if std::env::var_os("UPDATE_TRACE_GOLDEN").is_some() {
        fs::write(&golden_path, &current).expect("write golden trace");
        return;
    }
    let golden = fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", golden_path.display()));
    assert_eq!(
        current, golden,
        "trace stream diverged from the committed golden \
         (if the schema or engine changed intentionally, regenerate with \
         UPDATE_TRACE_GOLDEN=1)"
    );
}

// ===== The shards axis =====

/// One traced fleet run at an explicit shard count: the coordinator
/// must replay the exact global interleaving, so the JSONL bytes are
/// the contract.
fn fleet_trace_jsonl(shards: usize) -> String {
    let until = SimTime::from_millis(5);
    simcore::trace::install(1 << 18);
    let sim = fleet::fleet_scenario(Knob::MqDlPrio, 3).build_host(until);
    let report = sim.run_sharded(until, shards);
    let trace = simcore::trace::take().expect("recorder installed");
    assert!(trace.is_complete(), "fleet trace missing run_end");
    let mut violations = traceck::check(&trace).violations;
    violations.extend(traceck::check_against_report(&trace, &report));
    assert!(
        violations.is_empty(),
        "fleet trace (shards={shards}) violates invariants: {violations:?}"
    );
    trace.to_jsonl()
}

#[test]
fn sharded_fleet_trace_is_byte_identical_and_passes_traceck() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let reference = fleet_trace_jsonl(1);
    for shards in [2, 3] {
        assert_eq!(
            reference,
            fleet_trace_jsonl(shards),
            "fleet trace bytes differ between shards=1 and shards={shards}"
        );
    }
}

#[test]
fn golden_trace_is_byte_stable_under_a_shards_setting() {
    // The golden cell is single-component, so any `--shards` value must
    // leave its bytes untouched (the sharded path falls back to the
    // sequential engine).
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    let reference = golden_jsonl();
    runner::set_shards(4);
    let sharded = golden_jsonl();
    runner::set_shards(0);
    assert_eq!(
        reference, sharded,
        "golden trace bytes changed under --shards 4"
    );
}
