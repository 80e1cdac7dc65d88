//! Speed floors that hold on any host, so they need no baseline file.
//! Both tests time real work, so they are `#[ignore]`d; `check.sh` runs
//! them in release:
//!
//! ```text
//! cargo test --release -q -p isol-bench-harness --test perf_floors -- --ignored --test-threads 1
//! ```
//!
//! Regressions against the parent commit are the benchmark's job
//! (`perfbench/`, `BENCHMARK.json`), which runs both commits on one host.

use std::time::{Duration, Instant};

use isol_bench::experiments::{fleet, fleet_scale};
use isol_bench::{Fidelity, Knob};
use simcore::SimTime;

/// Minimum of `n` timed runs of `f`, with the last run's output.
fn min_of<T>(n: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..n {
        let t = Instant::now();
        out = Some(f());
        best = best.min(t.elapsed());
    }
    (best, out.expect("n > 0"))
}

/// The 7-SSD fleet decouples into one component per SSD, so 4 shards
/// must run it at least 2.5× faster than 1 — on a host that has the
/// cores to show it. Either way the reports must be identical.
#[test]
#[ignore = "timed; run with --release -- --ignored"]
fn fleet_shards_speed_up() {
    let until = SimTime::from_millis(200);
    let run = |shards| {
        min_of(5, || {
            fleet::fleet_scenario(Knob::None, fleet::FLEET_SSDS)
                .build_host(until)
                .run_sharded(until, shards)
        })
    };
    let (t1, r1) = run(1);
    let (t4, r4) = run(4);
    assert_eq!(
        format!("{r1:?}"),
        format!("{r4:?}"),
        "shard count changed the report"
    );
    let speedup = t1.as_secs_f64() / t4.as_secs_f64();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "fleet 7 SSD: 1 shard {t1:?}, 4 shards {t4:?}, speedup {speedup:.2}x on {cores} cores"
    );
    if cores >= 4 {
        assert!(speedup >= 2.5, "4-shard speedup {speedup:.2}x < 2.5x");
    } else {
        println!("speedup floor not armed: {cores} cores < 4");
    }
}

/// One 65 536-tenant smoke `fleet_scale` cell, scenario to report, fits
/// the 30 s per-cell budget a standard-fidelity run would arm.
#[test]
#[ignore = "timed; run with --release -- --ignored"]
fn fleet_65536_cell_fits_budget() {
    let until = Fidelity::Smoke.fleet_scale_duration();
    let t = Instant::now();
    let (s, _, _) = fleet_scale::fleet_scale_scenario(Knob::None, 65_536);
    let report = s.build_host(until).run(until);
    let took = t.elapsed();
    println!("fleet_scale 65536-tenant cell: {took:?}");
    assert_eq!(report.apps.len(), 65_536);
    assert!(
        took < Duration::from_secs(30),
        "65536-tenant cell took {took:?}"
    );
}
