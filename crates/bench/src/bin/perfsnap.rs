//! Performance snapshot and regression gate (`BENCH_pr7.json` +
//! `BENCH_pr9.json`).
//!
//! ```text
//! perfsnap --update   # measure and (over)write both snapshots
//! perfsnap --check    # measure and fail on >10 % regression
//! ```
//!
//! Hand-rolled measurements (Criterion is a dev-dependency of the
//! benches only, so this binary times by hand — minimum of
//! [`SAMPLES`] runs each):
//!
//! * `event_queue_mops` — wheel-backed `EventQueue` churn throughput
//!   (the engine's hot path; mirrors the `event_queue` Criterion bench),
//! * `fleet_shard1_ms` / `fleet_shard4_ms` — the 7-SSD fleet scenario
//!   at `--shards 1` vs `--shards 4` (mirrors the `shard` bench). The
//!   reports must be identical; the ratio is the sharding speedup,
//! * `qos_tick_arena_*_ns` — one `io.cost` period boundary at 8 and
//!   1024 materialized tenants (~10 % active) on the arena controller
//!   (mirrors the `qos_scale` bench),
//! * `fleet_scale_cell_ms` — one smoke-fidelity `fleet_scale` cell
//!   (256 tenants, no knob) end to end; the snapshot also records the
//!   derived `fleet_scale_cells_per_sec`,
//! * `cells_per_sec` — end-to-end smoke-fidelity cell throughput from a
//!   `figures` run's `timings.json` when one is present (skipped
//!   otherwise, so `--check` works in a fresh checkout).
//!
//! `--check` compares against the committed snapshot and fails when a
//! throughput metric drops (or a latency metric rises) by more than
//! [`TOLERANCE`]. The `shards = 4` speedup gate (≥ 2.5×) only arms when
//! the machine has at least 4 cores — on smaller hosts the snapshot
//! still records the measured ratio, but physics caps it near 1×.
//!
//! # The PR 9 snapshot (`BENCH_pr9.json`)
//!
//! The O(active) engine work is gated by a second snapshot:
//!
//! * `fleet4096_cell_ms` — the 4096-tenant smoke `fleet_scale` cell
//!   (scenario + build + run). The cell must not regress past the PR 8
//!   seed's recorded wall-clock ([`PR8_FLEET4096_CELL_MS`]).
//! * `fleet65536_cell_ms` — the 65536-tenant smoke cell end to end.
//!   Gated two ways: at least [`SCALE_SPEEDUP_FLOOR`]× faster than the
//!   PR 8 seed's recorded wall-clock for the same cell
//!   ([`PR8_FLEET65536_CELL_MS`]; the win comes from the O(n) cgroup
//!   name index and lazy histogram allocation), and absolutely within
//!   [`FLEET64K_BUDGET_MS`] — the standard-fidelity per-cell time
//!   budget.
//! * `engine_events_per_sec` — engine pop throughput on the
//!   4096-tenant cell.
//! * `fig4_cells_ms` / `q10_cells_ms` — summed per-cell seconds for the
//!   fig4 and q10 grids from the most recent `figures` run's
//!   `timings.json` (gated only when both snapshot and current runs
//!   have them).
//!
//! The 4096-tenant cell does *not* carry a 3× gate: ~60 % of its run
//! is device-model sampling and completion statistics that any engine
//! pays per I/O, so Amdahl caps the whole-cell speedup well below the
//! per-event savings (see DESIGN.md §17 for the measured breakdown).
//! The 3× gate lives where the work actually removed 3×+ of wall-clock
//! — the 64k-tenant cell.
//!
//! Like `BENCH_pr7.json`, absolute milliseconds are machine-specific:
//! regenerate with `--update` when moving to different hardware.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use ioqos::{IoCostController, QosController};
use isol_bench::experiments::{fleet, fleet_scale};
use isol_bench::{Fidelity, Knob};
use isol_bench_harness::{qos_fixture, OUTPUT_DIR};
use simcore::{EventQueue, SimDuration, SimTime};

/// Committed snapshot path (repo root).
const SNAPSHOT: &str = "BENCH_pr7.json";
/// Regression tolerance: fail `--check` beyond ±10 %.
const TOLERANCE: f64 = 0.10;
/// Timed samples per metric (minimum reported).
const SAMPLES: usize = 5;
/// Cores needed before the sharding-speedup gate arms.
const SPEEDUP_CORES: usize = 4;
/// Required fleet speedup at 4 shards on a ≥ 4-core machine.
const SPEEDUP_FLOOR: f64 = 2.5;
/// Ticks per timed qos sample (amortizes timer resolution).
const QOS_TICK_ITERS: u32 = 50_000;
/// Measurement passes `--check` may merge before reporting a
/// regression (noise adds time; the per-metric best across passes is
/// the robust estimate).
const CHECK_ATTEMPTS: usize = 4;

// --- PR 9: O(active) engine gates ---

/// Committed PR 9 snapshot path (repo root).
const SNAPSHOT_PR9: &str = "BENCH_pr9.json";
/// PR 8 seed wall-clock for the 4096-tenant smoke `fleet_scale` cell
/// (scenario + build + run), measured on this host class from the seed
/// checkout (commit cf33866): ~2.8 ms scenario + ~58 ms build + ~224 ms
/// run, best of interleaved samples.
const PR8_FLEET4096_CELL_MS: f64 = 285.0;
/// PR 8 seed wall-clock for the 65536-tenant smoke cell on this host
/// class: ~1.2 s scenario (the O(n²) duplicate-name scan) + ~9.4 s
/// build (eager histogram zeroing) + ~1.4 s run.
const PR8_FLEET65536_CELL_MS: f64 = 12_000.0;
/// Required speedup of the 65536-tenant cell over the PR 8 seed.
const SCALE_SPEEDUP_FLOOR: f64 = 3.0;
/// Standard-fidelity per-cell time budget the 65536-tenant smoke cell
/// must fit in (the per-cell watchdog deadline a fleet-scale run would
/// arm; see EXPERIMENTS.md).
const FLEET64K_BUDGET_MS: f64 = 30_000.0;
/// Timed samples for the 65536-tenant cell (each costs seconds).
const FLEET64K_SAMPLES: usize = 2;

/// Minimum of `n` timed runs, in seconds. The minimum is the
/// lowest-noise estimator of the true cost on a shared host: background
/// load only ever adds time, so the fastest observation is the closest
/// to the undisturbed one (medians still wobble ±40 % under noisy
/// neighbors, which would flake a ±10 % gate).
fn min_secs(n: usize, mut f: impl FnMut()) -> f64 {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

/// The `event_queue` churn workload: bounded pending set, one re-arm
/// per pop (10k events, QD 256) — events per second.
fn event_queue_mops() -> f64 {
    const EVENTS: u64 = 100_000;
    const PENDING: u64 = 256;
    let run = || {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(PENDING as usize);
        for i in 0..PENDING {
            q.schedule(SimTime::from_nanos(i * 997), i);
        }
        let mut sum = 0u64;
        let mut next = PENDING;
        while next < EVENTS {
            let (t, v) = q.pop().expect("pending set never empties");
            sum = sum.wrapping_add(v);
            q.schedule(t + SimDuration::from_nanos(997 + v % 131), next);
            next += 1;
        }
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        black_box(sum);
    };
    let secs = min_secs(SAMPLES, run);
    EVENTS as f64 / secs / 1e6
}

/// One fleet run at the given shard count, returning (min seconds,
/// a determinism fingerprint of the report).
fn fleet_run(shards: usize) -> (f64, u64) {
    let until = fleet::bench_duration();
    let mut fingerprint = 0u64;
    let secs = min_secs(SAMPLES, || {
        let sim = fleet::fleet_scenario(Knob::None, fleet::FLEET_SSDS).build_host(until);
        let r = sim.run_sharded(until, shards);
        fingerprint = r.apps.iter().fold(0u64, |acc, a| {
            acc.wrapping_mul(0x100_0000_01b3)
                .wrapping_add(a.completed)
                .wrapping_add(a.latency.p99_us.to_bits())
        });
        black_box(&r);
    });
    (secs, fingerprint)
}

/// Min nanoseconds per `io.cost` period boundary with `n` tenants
/// materialized and ~10 % active (the `qos_scale` bench's tick axis).
fn qos_tick_ns(n: usize) -> f64 {
    let mut ctl = IoCostController::new(qos_fixture::bench_config());
    let mut now = qos_fixture::populate(&mut ctl, n);
    // One warm batch before timing.
    for _ in 0..QOS_TICK_ITERS {
        now += SimDuration::from_millis(5);
        ctl.tick(now);
    }
    let secs = min_secs(SAMPLES, || {
        for _ in 0..QOS_TICK_ITERS {
            now += SimDuration::from_millis(5);
            ctl.tick(black_box(now));
        }
    });
    secs * 1e9 / f64::from(QOS_TICK_ITERS)
}

/// Min milliseconds for one smoke-fidelity `fleet_scale` cell
/// (256 tenants, no knob) end to end.
fn fleet_scale_cell_ms() -> f64 {
    let until = Fidelity::Smoke.fleet_scale_duration();
    let secs = min_secs(SAMPLES, || {
        let (s, _, _) = fleet_scale::fleet_scale_scenario(Knob::None, 256);
        // A fixed shard count so the metric does not depend on how many
        // cores the auto-detected runner config would grab.
        black_box(&s.build_host(until).run_sharded(until, 4));
    });
    secs * 1e3
}

/// One 4096-tenant smoke `fleet_scale` cell (scenario + build + run):
/// (min ms, events per run).
fn fleet4096_cell() -> (f64, u64) {
    let until = Fidelity::Smoke.fleet_scale_duration();
    let before = host_sim::stats::snapshot();
    let secs = min_secs(SAMPLES, || {
        let (s, _, _) = fleet_scale::fleet_scale_scenario(Knob::None, 4096);
        black_box(&s.build_host(until).run(until));
    });
    let after = host_sim::stats::snapshot();
    let events_per_run = (after.events_popped - before.events_popped) / SAMPLES as u64;
    (secs * 1e3, events_per_run)
}

/// The 65536-tenant smoke cell end to end (scenario + build + run),
/// min milliseconds over [`FLEET64K_SAMPLES`].
fn fleet65536_cell_ms() -> f64 {
    let until = Fidelity::Smoke.fleet_scale_duration();
    let secs = min_secs(FLEET64K_SAMPLES, || {
        let (s, _, _) = fleet_scale::fleet_scale_scenario(Knob::None, 65536);
        black_box(&s.build_host(until).run(until));
    });
    secs * 1e3
}

/// Summed per-cell seconds for one experiment from the latest `figures`
/// run's `timings.json`, in milliseconds (None when absent).
fn experiment_cells_ms(experiment: &str) -> Option<f64> {
    let json = std::fs::read_to_string(format!("{OUTPUT_DIR}/timings.json")).ok()?;
    let needle = format!("{{\"experiment\": \"{experiment}\"");
    let mut secs = 0.0f64;
    let mut count = 0usize;
    for line in json.lines() {
        let line = line.trim_start();
        if line.starts_with(&needle) {
            if let Some(v) = line
                .split("\"seconds\": ")
                .nth(1)
                .and_then(|s| s.split(',').next())
            {
                if let Ok(s) = v.parse::<f64>() {
                    count += 1;
                    secs += s;
                }
            }
        }
    }
    (count > 0).then_some(secs * 1e3)
}

/// Cells per second from the latest `figures` run, if one exists.
fn cells_per_sec() -> Option<f64> {
    let json = std::fs::read_to_string(format!("{OUTPUT_DIR}/timings.json")).ok()?;
    // Count cell objects and sum their seconds (hand-rolled scan over
    // the hand-rolled JSON).
    let mut count = 0usize;
    let mut secs = 0.0f64;
    for line in json.lines() {
        let line = line.trim_start();
        if line.starts_with("{\"experiment\": ") {
            if let Some(v) = line
                .split("\"seconds\": ")
                .nth(1)
                .and_then(|s| s.split(',').next())
            {
                if let Ok(s) = v.parse::<f64>() {
                    count += 1;
                    secs += s;
                }
            }
        }
    }
    (count > 0 && secs > 0.0).then(|| count as f64 / secs)
}

#[derive(Debug, Clone, Copy)]
struct Snapshot {
    host_cores: usize,
    event_queue_mops: f64,
    fleet_shard1_ms: f64,
    fleet_shard4_ms: f64,
    speedup: f64,
    qos_tick_arena_8_ns: f64,
    qos_tick_arena_1024_ns: f64,
    fleet_scale_cell_ms: f64,
    cells_per_sec: Option<f64>,
}

impl Snapshot {
    /// Per-metric best of two measurement passes: min for wall-clock
    /// metrics, max for throughputs, ratios recomputed from the merged
    /// components. Repeated measurement converges on the undisturbed
    /// cost even when single passes wobble far beyond the gate
    /// tolerance under noisy neighbors.
    fn merge_best(self, other: Self) -> Self {
        let fleet_shard1_ms = self.fleet_shard1_ms.min(other.fleet_shard1_ms);
        let fleet_shard4_ms = self.fleet_shard4_ms.min(other.fleet_shard4_ms);
        Snapshot {
            host_cores: self.host_cores,
            event_queue_mops: self.event_queue_mops.max(other.event_queue_mops),
            fleet_shard1_ms,
            fleet_shard4_ms,
            speedup: fleet_shard1_ms / fleet_shard4_ms,
            qos_tick_arena_8_ns: self.qos_tick_arena_8_ns.min(other.qos_tick_arena_8_ns),
            qos_tick_arena_1024_ns: self
                .qos_tick_arena_1024_ns
                .min(other.qos_tick_arena_1024_ns),
            fleet_scale_cell_ms: self.fleet_scale_cell_ms.min(other.fleet_scale_cell_ms),
            cells_per_sec: match (self.cells_per_sec, other.cells_per_sec) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
        }
    }

    fn measure() -> Self {
        let host_cores =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mops = event_queue_mops();
        let (s1, fp1) = fleet_run(1);
        let (s4, fp4) = fleet_run(4);
        assert_eq!(
            fp1, fp4,
            "sharded fleet report diverged from the sequential report"
        );
        Snapshot {
            host_cores,
            event_queue_mops: mops,
            fleet_shard1_ms: s1 * 1e3,
            fleet_shard4_ms: s4 * 1e3,
            speedup: s1 / s4,
            qos_tick_arena_8_ns: qos_tick_ns(8),
            qos_tick_arena_1024_ns: qos_tick_ns(1024),
            fleet_scale_cell_ms: fleet_scale_cell_ms(),
            cells_per_sec: cells_per_sec(),
        }
    }

    fn to_json(self) -> String {
        let cells = self
            .cells_per_sec
            .map_or("null".to_owned(), |v| format!("{v:.2}"));
        format!(
            "{{\n  \"host_cores\": {},\n  \"event_queue_mops\": {:.2},\n  \
             \"fleet_shard1_ms\": {:.2},\n  \"fleet_shard4_ms\": {:.2},\n  \
             \"fleet_speedup_4shards\": {:.3},\n  \
             \"qos_tick_arena_8_ns\": {:.1},\n  \"qos_tick_arena_1024_ns\": {:.1},\n  \
             \"fleet_scale_cell_ms\": {:.2},\n  \"fleet_scale_cells_per_sec\": {:.2},\n  \
             \"cells_per_sec\": {cells}\n}}\n",
            self.host_cores,
            self.event_queue_mops,
            self.fleet_shard1_ms,
            self.fleet_shard4_ms,
            self.speedup,
            self.qos_tick_arena_8_ns,
            self.qos_tick_arena_1024_ns,
            self.fleet_scale_cell_ms,
            1e3 / self.fleet_scale_cell_ms,
        )
    }
}

/// Pulls `"key": <number>` out of the snapshot JSON.
fn field(json: &str, key: &str) -> Option<f64> {
    json.split(&format!("\"{key}\": "))
        .nth(1)?
        .split([',', '\n', '}'])
        .next()?
        .trim()
        .parse()
        .ok()
}

fn check(current: Snapshot, baseline: &str) -> Result<(), String> {
    let mut failures = Vec::new();
    // Throughput metrics: fail when current drops >10 % below baseline.
    if let Some(base) = field(baseline, "event_queue_mops") {
        if current.event_queue_mops < base * (1.0 - TOLERANCE) {
            failures.push(format!(
                "event_queue_mops regressed: {:.2} vs baseline {base:.2}",
                current.event_queue_mops
            ));
        }
    }
    // Latency metrics: fail when current rises >10 % above baseline.
    for (key, cur) in [
        ("fleet_shard1_ms", current.fleet_shard1_ms),
        ("fleet_shard4_ms", current.fleet_shard4_ms),
        ("qos_tick_arena_8_ns", current.qos_tick_arena_8_ns),
        ("qos_tick_arena_1024_ns", current.qos_tick_arena_1024_ns),
        ("fleet_scale_cell_ms", current.fleet_scale_cell_ms),
    ] {
        if let Some(base) = field(baseline, key) {
            if cur > base * (1.0 + TOLERANCE) {
                failures.push(format!(
                    "{key} regressed: {cur:.2} ms vs baseline {base:.2} ms"
                ));
            }
        }
    }
    if let (Some(base), Some(cur)) = (field(baseline, "cells_per_sec"), current.cells_per_sec) {
        if cur < base * (1.0 - TOLERANCE) {
            failures.push(format!(
                "cells_per_sec regressed: {cur:.2} vs baseline {base:.2}"
            ));
        }
    }
    // The acceptance gate: ≥ 2.5× at 4 shards, only meaningful with the
    // cores to run them.
    if current.host_cores >= SPEEDUP_CORES && current.speedup < SPEEDUP_FLOOR {
        failures.push(format!(
            "fleet speedup at 4 shards is {:.2}x on a {}-core host (floor {SPEEDUP_FLOOR}x)",
            current.speedup, current.host_cores
        ));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// The PR 9 snapshot: O(active) engine + fleet-scale cell gates.
#[derive(Debug, Clone, Copy)]
struct Pr9Snapshot {
    fleet4096_cell_ms: f64,
    speedup_vs_pr8_4096: f64,
    engine_events_per_sec: f64,
    fleet65536_cell_ms: f64,
    speedup_vs_pr8_65536: f64,
    fig4_cells_ms: Option<f64>,
    q10_cells_ms: Option<f64>,
}

impl Pr9Snapshot {
    fn measure() -> Self {
        let (cell_ms, events) = fleet4096_cell();
        let scale_ms = fleet65536_cell_ms();
        Pr9Snapshot {
            fleet4096_cell_ms: cell_ms,
            speedup_vs_pr8_4096: PR8_FLEET4096_CELL_MS / cell_ms,
            engine_events_per_sec: events as f64 / (cell_ms / 1e3),
            fleet65536_cell_ms: scale_ms,
            speedup_vs_pr8_65536: PR8_FLEET65536_CELL_MS / scale_ms,
            fig4_cells_ms: experiment_cells_ms("fig4"),
            q10_cells_ms: experiment_cells_ms("q10"),
        }
    }

    /// Per-metric best of two passes (min wall-clock, max throughput,
    /// ratios recomputed) — same estimator as [`Snapshot::merge_best`].
    fn merge_best(self, other: Self) -> Self {
        let fleet4096_cell_ms = self.fleet4096_cell_ms.min(other.fleet4096_cell_ms);
        let fleet65536_cell_ms = self.fleet65536_cell_ms.min(other.fleet65536_cell_ms);
        let min_opt = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Pr9Snapshot {
            fleet4096_cell_ms,
            speedup_vs_pr8_4096: PR8_FLEET4096_CELL_MS / fleet4096_cell_ms,
            engine_events_per_sec: self.engine_events_per_sec.max(other.engine_events_per_sec),
            fleet65536_cell_ms,
            speedup_vs_pr8_65536: PR8_FLEET65536_CELL_MS / fleet65536_cell_ms,
            fig4_cells_ms: min_opt(self.fig4_cells_ms, other.fig4_cells_ms),
            q10_cells_ms: min_opt(self.q10_cells_ms, other.q10_cells_ms),
        }
    }

    fn to_json(self) -> String {
        let opt = |v: Option<f64>| v.map_or("null".to_owned(), |v| format!("{v:.2}"));
        format!(
            "{{\n  \"fleet4096_cell_ms\": {:.2},\n  \
             \"pr8_fleet4096_cell_ms\": {PR8_FLEET4096_CELL_MS:.2},\n  \
             \"speedup_vs_pr8_4096\": {:.3},\n  \
             \"engine_events_per_sec\": {:.0},\n  \
             \"fleet65536_cell_ms\": {:.2},\n  \
             \"pr8_fleet65536_cell_ms\": {PR8_FLEET65536_CELL_MS:.2},\n  \
             \"speedup_vs_pr8_65536\": {:.3},\n  \
             \"fleet65536_budget_ms\": {FLEET64K_BUDGET_MS:.0},\n  \
             \"fig4_cells_ms\": {},\n  \"q10_cells_ms\": {}\n}}\n",
            self.fleet4096_cell_ms,
            self.speedup_vs_pr8_4096,
            self.engine_events_per_sec,
            self.fleet65536_cell_ms,
            self.speedup_vs_pr8_65536,
            opt(self.fig4_cells_ms),
            opt(self.q10_cells_ms),
        )
    }
}

fn check_pr9(current: Pr9Snapshot, baseline: &str) -> Result<(), String> {
    let mut failures = Vec::new();
    // Regressions against the committed snapshot (latency metrics).
    for (key, cur) in [
        ("fleet4096_cell_ms", Some(current.fleet4096_cell_ms)),
        ("fleet65536_cell_ms", Some(current.fleet65536_cell_ms)),
        ("fig4_cells_ms", current.fig4_cells_ms),
        ("q10_cells_ms", current.q10_cells_ms),
    ] {
        if let (Some(base), Some(cur)) = (field(baseline, key), cur) {
            if cur > base * (1.0 + TOLERANCE) {
                failures.push(format!(
                    "{key} regressed: {cur:.2} ms vs baseline {base:.2} ms"
                ));
            }
        }
    }
    // The 4096-tenant cell must not be slower than the PR 8 seed.
    if current.fleet4096_cell_ms > PR8_FLEET4096_CELL_MS * (1.0 + TOLERANCE) {
        failures.push(format!(
            "fleet4096 cell regressed past the PR 8 seed: {:.2} ms vs {PR8_FLEET4096_CELL_MS} ms",
            current.fleet4096_cell_ms
        ));
    }
    // The scale gates: ≥3× over the PR 8 seed at 65536 tenants, and
    // absolutely within the standard-fidelity cell budget.
    if current.speedup_vs_pr8_65536 < SCALE_SPEEDUP_FLOOR {
        failures.push(format!(
            "fleet65536 cell is only {:.2}x faster than the PR 8 seed \
             ({:.0} ms vs {PR8_FLEET65536_CELL_MS:.0} ms; floor {SCALE_SPEEDUP_FLOOR}x)",
            current.speedup_vs_pr8_65536, current.fleet65536_cell_ms
        ));
    }
    if current.fleet65536_cell_ms > FLEET64K_BUDGET_MS {
        failures.push(format!(
            "fleet65536 cell blew the standard-fidelity budget: {:.0} ms > {FLEET64K_BUDGET_MS:.0} ms",
            current.fleet65536_cell_ms
        ));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1);
    let current = Snapshot::measure();
    println!(
        "perfsnap: {} core(s), event_queue {:.2} Mops/s, fleet {:.2} ms @1 shard / {:.2} ms @4 shards ({:.2}x), cells/s {}",
        current.host_cores,
        current.event_queue_mops,
        current.fleet_shard1_ms,
        current.fleet_shard4_ms,
        current.speedup,
        current
            .cells_per_sec
            .map_or("n/a".to_owned(), |v| format!("{v:.2}")),
    );
    println!(
        "perfsnap: io.cost tick {:.1} ns @8, {:.1} ns @1024, fleet_scale cell {:.1} ms ({:.2} cells/s)",
        current.qos_tick_arena_8_ns,
        current.qos_tick_arena_1024_ns,
        current.fleet_scale_cell_ms,
        1e3 / current.fleet_scale_cell_ms,
    );
    let current9 = Pr9Snapshot::measure();
    println!(
        "perfsnap: fleet4096 cell {:.1} ms ({:.2} Mev/s), fleet65536 cell {:.0} ms ({:.2}x vs PR 8 seed)",
        current9.fleet4096_cell_ms,
        current9.engine_events_per_sec / 1e6,
        current9.fleet65536_cell_ms,
        current9.speedup_vs_pr8_65536,
    );
    match mode.as_deref() {
        Some("--update") => {
            // A second pass merged in keeps a transient slow window out
            // of the committed baseline.
            let best = current.merge_best(Snapshot::measure());
            if let Err(e) = std::fs::write(SNAPSHOT, best.to_json()) {
                eprintln!("cannot write {SNAPSHOT}: {e}");
                return ExitCode::FAILURE;
            }
            println!("perfsnap: wrote {SNAPSHOT}");
            let best9 = current9.merge_best(Pr9Snapshot::measure());
            if let Err(e) = std::fs::write(SNAPSHOT_PR9, best9.to_json()) {
                eprintln!("cannot write {SNAPSHOT_PR9}: {e}");
                return ExitCode::FAILURE;
            }
            println!("perfsnap: wrote {SNAPSHOT_PR9}");
            ExitCode::SUCCESS
        }
        Some("--check") => {
            let baseline = match std::fs::read_to_string(SNAPSHOT) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {SNAPSHOT}: {e} (run `perfsnap --update` first)");
                    return ExitCode::FAILURE;
                }
            };
            let baseline9 = match std::fs::read_to_string(SNAPSHOT_PR9) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {SNAPSHOT_PR9}: {e} (run `perfsnap --update` first)");
                    return ExitCode::FAILURE;
                }
            };
            // Noise only ever slows a pass down, so an apparent
            // regression earns re-measurement: merge per-metric bests
            // until the check passes or the attempts run out. Genuine
            // regressions stay slow on every pass.
            let mut best = current;
            let mut best9 = current9;
            let mut verdict = check(best, &baseline);
            let mut verdict9 = check_pr9(best9, &baseline9);
            for attempt in 1..CHECK_ATTEMPTS {
                if verdict.is_ok() && verdict9.is_ok() {
                    break;
                }
                println!("perfsnap: noisy pass, re-measuring ({attempt}/{CHECK_ATTEMPTS})");
                if verdict.is_err() {
                    best = best.merge_best(Snapshot::measure());
                    verdict = check(best, &baseline);
                }
                if verdict9.is_err() {
                    best9 = best9.merge_best(Pr9Snapshot::measure());
                    verdict9 = check_pr9(best9, &baseline9);
                }
            }
            match (verdict, verdict9) {
                (Ok(()), Ok(())) => {
                    println!(
                        "perfsnap: within {:.0} % of {SNAPSHOT} and {SNAPSHOT_PR9}",
                        TOLERANCE * 100.0
                    );
                    ExitCode::SUCCESS
                }
                (v, v9) => {
                    let msg = [v.err(), v9.err()]
                        .into_iter()
                        .flatten()
                        .collect::<Vec<_>>()
                        .join("\n");
                    eprintln!("perfsnap: REGRESSION\n{msg}");
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!("usage: perfsnap --update | --check (got {other:?})");
            ExitCode::FAILURE
        }
    }
}
