//! # perfbench — the simulator's own performance ledger
//!
//! Drives the simulator's public API from one process and times it end
//! to end and per layer, on three workloads that stress different
//! layers (see [`Workload`]). Each run makes two kinds of pass:
//!
//! * **untraced** passes give every end-to-end number (host time), and
//! * one **traced** pass (with `--trace 1`) turns on the engine's
//!   per-subsystem timing and gives the per-layer split.
//!
//! Every pass digests the simulated output of each cell. Repeated and
//! traced passes must reproduce the first untraced pass bit for bit,
//! and at the default seed the digests must equal the ones recorded in
//! `digests.tsv`: a change that only makes the simulator faster leaves
//! every simulated byte where it was.
//!
//! Host time is wall-clock on the host; `sim.*` numbers are simulated
//! time or simulated counts.

#![forbid(unsafe_code)]

mod apps;
pub mod digest;
mod fleet;
mod paper_grid;
mod spans;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use host_sim::stats;
use host_sim::RunReport;
use isol_bench::{runner, Scenario};
use simcore::SimTime;

use crate::spans::Spans;

/// The seed whose simulated output is recorded in `digests.tsv`.
pub const DEFAULT_SEED: u64 = 1;

/// Worker threads for cells and shards per scenario: both fixed at one
/// so that no number depends on how busy the host's other cores are.
const WORKERS: usize = 1;

/// Shards per scenario (see [`WORKERS`]).
const SHARDS: usize = 1;

/// End-to-end metrics (host time), printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.calls", "count"),
    ("workload.ns_per_call", "ns"),
    ("workload.share", "fraction"),
    ("ioqos.calls", "count"),
    ("ioqos.ns_per_call", "ns"),
    ("ioqos.share", "fraction"),
    ("iosched.calls", "count"),
    ("iosched.ns_per_call", "ns"),
    ("iosched.share", "fraction"),
    ("nvme.calls", "count"),
    ("nvme.ns_per_call", "ns"),
    ("nvme.share", "fraction"),
    ("stats.calls", "count"),
    ("stats.ns_per_call", "ns"),
    ("stats.share", "fraction"),
    ("host.events", "count"),
    ("host.ns_per_event", "ns"),
    ("host.self_share", "fraction"),
    ("host.peak_pending", "count"),
    ("host.tourney_active_ratio", "fraction"),
    ("core.stage_s", "s"),
    ("core.reduce_s", "s"),
    ("core.runner_overhead_s", "s"),
    ("core.cells", "count"),
    ("profile_overhead", "ratio"),
];

/// The per-layer names of the engine's five timing buckets, in
/// `host_sim::stats::SUBSYS_NAMES` order.
pub const BUCKETS: [&str; 5] = ["workload", "ioqos", "iosched", "nvme", "stats"];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The smoke-fidelity fig3–fig7 and q10 grids Table I is derived
    /// from: few tenants per device and all five knobs, so per-I/O cost
    /// in the device, scheduler and QoS layers dominates.
    PaperGrid,
    /// The `fleet_scale` tree at 16384 tenants under each knob plus one
    /// no-knob cell at 65536: cost scales with configured tenants.
    Fleet16k,
    /// The four closed-loop application engines under each knob: reads
    /// and writes, load that adapts to latency.
    AppsRw,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::PaperGrid, Workload::Fleet16k, Workload::AppsRw];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::Fleet16k => "fleet_16k",
            Workload::AppsRw => "apps_rw",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's inputs depend on the seed. The paper
    /// grid's seeds are fixed inside the experiments.
    #[must_use]
    pub const fn uses_seed(self) -> bool {
        !matches!(self, Workload::PaperGrid)
    }

    /// Set-up repetitions made before the measured passes; their
    /// median (with each pass's own set-up) is `setup_s`.
    const fn setup_reps(self) -> usize {
        match self {
            Workload::PaperGrid => 25,
            Workload::Fleet16k => 4,
            Workload::AppsRw => 25,
        }
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Input seed (ignored by [`Workload::PaperGrid`]).
    pub seed: u64,
    /// Host seconds to spend on untraced passes (at least one runs).
    pub seconds: f64,
    /// Make one untraced and one traced pass and report per-layer
    /// metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shrink every workload to a few seconds (tests).
    pub quick: bool,
    /// Scratch directory for cell caches, journals and CSVs.
    pub work_dir: PathBuf,
}

/// A named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// Engine counter deltas over one pass.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    /// Events popped.
    pub events: u64,
    /// Largest pending-event count of any run in the pass.
    pub peak_pending: u64,
    /// Per-bucket `(ns, calls)` (all zero on untraced passes).
    pub subsys: [(u64, u64); 5],
}

/// Simulated totals over the run reports a pass holds.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SimTotals {
    ios_completed: u64,
    qos_wait_us: f64,
    sched_wait_us: f64,
    device_us: f64,
    cpu_us: f64,
    core_util: f64,
    gc_level: f64,
    reports: usize,
}

impl SimTotals {
    /// Folds one report in: stage times weighted by completions, core
    /// utilization and GC level averaged per report.
    pub fn add(&mut self, r: &RunReport) {
        for a in &r.apps {
            let n = a.completed as f64;
            self.ios_completed += a.completed;
            self.qos_wait_us += a.stages.qos_wait_us * n;
            self.sched_wait_us += a.stages.sched_wait_us * n;
            self.device_us += a.stages.device_us * n;
            self.cpu_us += (a.stages.submit_cpu_us + a.stages.complete_cpu_us) * n;
        }
        self.core_util += r.mean_cpu_utilization();
        let devs = r.devices.len().max(1) as f64;
        self.gc_level += r.devices.iter().map(|d| d.gc_level).sum::<f64>() / devs;
        self.reports += 1;
    }

    /// Simulated I/Os completed.
    #[must_use]
    pub fn ios_completed(&self) -> u64 {
        self.ios_completed
    }

    fn metrics(&self) -> Vec<Metric> {
        let per_io = |v: f64| v / (self.ios_completed.max(1) as f64);
        let per_report = |v: f64| v / (self.reports.max(1) as f64);
        vec![
            Metric::new("sim.ios_completed", self.ios_completed as f64, "count"),
            Metric::new("sim.qos_wait_us", per_io(self.qos_wait_us), "us"),
            Metric::new("sim.sched_wait_us", per_io(self.sched_wait_us), "us"),
            Metric::new("sim.device_us", per_io(self.device_us), "us"),
            Metric::new("sim.cpu_us", per_io(self.cpu_us), "us"),
            Metric::new("sim.core_util", per_report(self.core_util), "fraction"),
            Metric::new("sim.gc_level", per_report(self.gc_level), "fraction"),
        ]
    }
}

/// Checks the per-app conservation rules on a report with faults off:
/// `issued ≥ completed + failed` and nothing failed.
#[must_use]
pub(crate) fn report_ok(r: &RunReport) -> bool {
    r.apps
        .iter()
        .all(|a| a.failed == 0 && a.issued >= a.completed + a.failed)
}

/// What one pass over a workload produced.
#[derive(Debug, Default)]
pub(crate) struct Pass {
    /// Benchmark-owned spans: `pass`, `stage`, `build_host`, `cell`,
    /// `run`, `reduce`.
    pub spans: Spans,
    /// Cell labels and simulated-output digests, in cell order.
    pub cells: Vec<(String, u64)>,
    /// Host seconds per cell (the `cell_s` samples).
    pub cell_s: Vec<f64>,
    /// Host seconds inside the simulation proper: `HostSim` runs on
    /// fleet and apps, whole cell tasks on the paper grid.
    pub run_s: f64,
    /// Indices of cells that panicked, were quarantined or failed an
    /// output check.
    pub failed: BTreeSet<usize>,
    /// Simulated totals, where the pass holds run reports.
    pub sim: Option<SimTotals>,
    /// Workload-specific results.
    pub extra: Vec<Metric>,
    /// Engine counter deltas.
    pub counters: Counters,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.spans.total("pass")
    }

    fn setup_s(&self) -> f64 {
        self.spans.total("stage") + self.spans.total("build_host")
    }
}

/// Times building every cell's host (scenario in a `stage` span, host
/// in a `build_host` span) without running it.
fn cells_setup<C: Copy>(cells: &[C], until: SimTime, make: impl Fn(C) -> Scenario) -> f64 {
    let mut spans = Spans::new();
    for (i, &c) in cells.iter().enumerate() {
        if let Some(s) = spans.try_time("stage", Some(i), || make(c)) {
            drop(spans.try_time("build_host", Some(i), || s.build_host(until)));
        }
    }
    spans.total("stage") + spans.total("build_host")
}

/// One pass over scenario cells the benchmark builds itself: per cell,
/// a `stage` span builds the scenario, a `cell` span wraps
/// `build_host` and `run`, and a `reduce` span digests and checks the
/// report.
fn cells_pass<C: Copy>(
    cells: &[C],
    until: SimTime,
    label: impl Fn(C) -> String,
    make: impl Fn(C) -> Scenario,
) -> Pass {
    let mut spans = Spans::new();
    let mut pass = Pass::default();
    let mut sim = SimTotals::default();
    let whole = spans.open("pass", None);
    for (i, &c) in cells.iter().enumerate() {
        let scenario = spans.try_time("stage", Some(i), || make(c));
        let cell = spans.open("cell", Some(i));
        let report = scenario.and_then(|s| {
            let host = spans.try_time("build_host", Some(i), || s.build_host(until))?;
            spans.try_time("run", Some(i), || host.run_sharded(until, SHARDS))
        });
        pass.cell_s.push(spans.close(cell));
        // The report is dropped inside the span: freeing per-tenant
        // histograms is part of the cell's cost.
        let totals = &mut sim;
        let d = spans.time("reduce", Some(i), move || {
            let r = report?;
            totals.add(&r);
            report_ok(&r).then(|| digest::report(&r))
        });
        if d.is_none() {
            pass.failed.insert(i);
        }
        pass.cells.push((label(c), d.unwrap_or(0)));
    }
    spans.close(whole);
    pass.run_s = spans.total("run");
    pass.spans = spans;
    pass.sim = Some(sim);
    pass
}

fn setup_once(cfg: &Config) -> f64 {
    match cfg.workload {
        Workload::PaperGrid => paper_grid::setup(cfg),
        Workload::Fleet16k => fleet::setup(cfg),
        Workload::AppsRw => apps::setup(cfg),
    }
}

fn run_pass(cfg: &Config, traced: bool, index: usize) -> Result<Pass, String> {
    let dir = cfg.work_dir.join(format!("pass-{index}"));
    stats::set_subsystem_timing(traced);
    stats::reset_peak();
    let before = stats::snapshot();
    let sub_before = stats::subsys_snapshot();
    let pass = match cfg.workload {
        Workload::PaperGrid => paper_grid::pass(cfg, &dir),
        Workload::Fleet16k => Ok(fleet::pass(cfg)),
        Workload::AppsRw => Ok(apps::pass(cfg)),
    };
    let after = stats::snapshot();
    let sub_after = stats::subsys_snapshot();
    stats::set_subsystem_timing(false);
    // Best effort: a leftover scratch directory costs disk, not results.
    let _ = std::fs::remove_dir_all(&dir);
    let mut pass = pass?;
    let mut subsys = [(0, 0); 5];
    for (d, (a, b)) in subsys.iter_mut().zip(sub_after.iter().zip(&sub_before)) {
        *d = (a.0 - b.0, a.1 - b.1);
    }
    pass.counters = Counters {
        events: after.events_popped - before.events_popped,
        peak_pending: after.peak_pending,
        subsys,
    };
    Ok(pass)
}

/// Host context recorded with every result.
#[derive(Debug, Clone)]
pub struct Context {
    /// `nproc` of the host.
    pub host_cores: usize,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
}

impl Context {
    /// Reads the host context.
    #[must_use]
    pub fn detect() -> Self {
        let host_cores =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        // Only ask git inside a work tree of our own: a checkout without
        // `.git` could otherwise report an enclosing repository's commit.
        let commit = Path::new(".git")
            .exists()
            .then(|| {
                std::process::Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .output()
                    .ok()
                    .filter(|o| o.status.success())
                    .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            })
            .flatten()
            .unwrap_or_else(|| "unknown".to_owned());
        Context {
            host_cores,
            commit,
            rustc: env!("PERFBENCH_RUSTC").to_owned(),
        }
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The run's settings.
    pub config: Config,
    /// Host context.
    pub context: Context,
    /// Distinct cells attempted.
    pub attempted: usize,
    /// Distinct cells that failed in any pass or check.
    pub failed: usize,
    /// Untraced passes made.
    pub units: usize,
    /// The [`END_TO_END`] metrics, in that order (from the single
    /// untraced pass when the run is traced).
    pub end_to_end: Vec<Metric>,
    /// The [`PER_LAYER`] metrics, in that order, when the run is traced.
    pub per_layer: Option<Vec<Metric>>,
    /// Workload-specific metrics printed beside them.
    pub detail: Vec<Metric>,
    /// `(traced, spans)` of every pass, in pass order.
    spans: Vec<(bool, Spans)>,
    /// Per-cell digests of the first untraced pass.
    pub digests: Vec<(String, u64)>,
    /// Why cells failed, one line per cause.
    pub problems: Vec<String>,
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Percentile `q` in `[0, 1]`, interpolating linearly between the
/// closest ranks.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Marks `other`'s cells whose digests differ from `first`'s.
fn diff_cells(
    first: &Pass,
    other: &Pass,
    what: &str,
    failed: &mut BTreeSet<usize>,
    problems: &mut Vec<String>,
) {
    if other.cells.len() != first.cells.len() {
        problems.push(format!("{what} ran a different number of cells"));
        failed.extend(0..first.cells.len());
    }
    for (i, (a, b)) in first.cells.iter().zip(&other.cells).enumerate() {
        if a != b {
            failed.insert(i);
            problems.push(format!("{}: {what} differs from the first pass", a.0));
        }
    }
}

/// The output checks: cells that failed in any pass, passes that do
/// not reproduce the first pass bit for bit, and (at the default seed,
/// full length) digests that differ from `digests.tsv`. Returns the
/// failed cell indices and one line per cause.
fn check(cfg: &Config, units: &[Pass], traced: Option<&Pass>) -> (BTreeSet<usize>, Vec<String>) {
    let first = &units[0];
    let mut failed = BTreeSet::new();
    let mut problems = Vec::new();
    for (k, u) in units.iter().enumerate().skip(1) {
        diff_cells(
            first,
            u,
            &format!("untraced pass {k}"),
            &mut failed,
            &mut problems,
        );
    }
    if let Some(t) = traced {
        diff_cells(first, t, "traced pass", &mut failed, &mut problems);
    }
    for p in units.iter().chain(traced) {
        for &i in &p.failed {
            failed.insert(i);
            if let Some((label, _)) = p.cells.get(i) {
                problems.push(format!(
                    "{label}: failed (panic, quarantine or output check)"
                ));
            }
        }
    }
    let seed_key = if cfg.workload.uses_seed() {
        (cfg.seed == DEFAULT_SEED).then(|| DEFAULT_SEED.to_string())
    } else {
        Some("*".to_owned())
    };
    if let (Some(seed), false) = (seed_key, cfg.quick) {
        let recorded = digest::recorded(cfg.workload.name(), &seed);
        if recorded.len() != first.cells.len() {
            problems.push("digests.tsv records a different cell set".to_owned());
            failed.extend(0..first.cells.len());
        }
        for (i, (label, d)) in first.cells.iter().enumerate() {
            if recorded.get(label) != Some(&digest::hex(*d)) {
                failed.insert(i);
                problems.push(format!(
                    "{label}: simulated output differs from digests.tsv"
                ));
            }
        }
    }
    problems.sort();
    problems.dedup();
    (failed, problems)
}

/// Runs one workload and measures it.
///
/// # Errors
///
/// Fails when the scratch directory cannot be written.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    runner::set_jobs(WORKERS);
    runner::set_shards(SHARDS);
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    let reps = if cfg.quick {
        1
    } else {
        cfg.workload.setup_reps()
    };
    let mut setup: Vec<f64> = (0..reps).map(|_| setup_once(cfg)).collect();

    let started = Instant::now();
    let mut units: Vec<Pass> = Vec::new();
    loop {
        let pass = run_pass(cfg, false, units.len())?;
        let wall = pass.wall_s();
        setup.push(pass.setup_s());
        units.push(pass);
        // Start another pass only if it should end inside the budget.
        if cfg.trace || started.elapsed().as_secs_f64() + wall > cfg.seconds {
            break;
        }
    }
    let traced = if cfg.trace {
        Some(run_pass(cfg, true, units.len())?)
    } else {
        None
    };

    let first = &units[0];
    let attempted = first.cells.len();
    let (failed, problems) = check(cfg, &units, traced.as_ref());

    // --- metrics ---
    let walls: Vec<f64> = units.iter().map(Pass::wall_s).collect();
    let wall = median(&walls);
    let cell_samples: Vec<f64> = units
        .iter()
        .flat_map(|u| u.cell_s.iter().copied())
        .collect();
    let events_per_s: Vec<f64> = units
        .iter()
        .map(|u| u.counters.events as f64 / u.run_s.max(1e-9))
        .collect();
    let mut detail = vec![
        Metric::new(
            "failed_ratio",
            failed.len() as f64 / attempted.max(1) as f64,
            "fraction",
        ),
        // Per-cell quantiles are printed but not gated: cell times are
        // lumpy (one cluster per experiment or knob), so the quantiles
        // jump between clusters as host speed moves.
        Metric::new("cell_s.p50", percentile(&cell_samples, 0.5), "s"),
        Metric::new("cell_s.p90", percentile(&cell_samples, 0.9), "s"),
        Metric::new("cell_s.samples", cell_samples.len() as f64, "count"),
    ];
    detail.extend(first.extra.iter().cloned());
    if let Some(sim) = &first.sim {
        detail.push(Metric::new(
            "sim_ios_per_s",
            sim.ios_completed() as f64 / wall.max(1e-9),
            "1/s",
        ));
        detail.push(Metric::new(
            "host.build_host_s",
            first.spans.total("build_host"),
            "s",
        ));
        detail.push(Metric::new("host.run_s", first.run_s, "s"));
        detail.extend(sim.metrics());
    }

    let end_to_end = vec![
        Metric::new("wall_s", wall, "s"),
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("cells_per_s", attempted as f64 / wall.max(1e-9), "1/s"),
        Metric::new("events_per_s", median(&events_per_s), "1/s"),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    let per_layer = traced.as_ref().map(|t| per_layer(first, t));

    let digests = first.cells.clone();
    let spans = units
        .into_iter()
        .map(|u| (false, u.spans))
        .chain(traced.map(|t| (true, t.spans)))
        .collect();
    Ok(Outcome {
        config: cfg.clone(),
        context: Context::detect(),
        attempted,
        failed: failed.len(),
        units: walls.len(),
        end_to_end,
        per_layer,
        detail,
        spans,
        digests,
        problems,
    })
}

fn per_layer(untraced: &Pass, traced: &Pass) -> Vec<Metric> {
    let mut out = Vec::new();
    let traced_run = traced.run_s.max(1e-9);
    let mut bucket_share = 0.0;
    for (name, &(ns, calls)) in BUCKETS.iter().zip(&traced.counters.subsys) {
        let share = ns as f64 * 1e-9 / traced_run;
        bucket_share += share;
        out.push(Metric::new(&format!("{name}.calls"), calls as f64, "count"));
        out.push(Metric::new(
            &format!("{name}.ns_per_call"),
            if calls == 0 {
                0.0
            } else {
                ns as f64 / calls as f64
            },
            "ns",
        ));
        out.push(Metric::new(&format!("{name}.share"), share, "fraction"));
    }
    let events = untraced.counters.events;
    let engine = stats::snapshot();
    let cells: f64 = untraced.cell_s.iter().sum();
    let stage = untraced.spans.total("stage");
    let reduce = untraced.spans.total("reduce");
    out.extend([
        Metric::new("host.events", events as f64, "count"),
        Metric::new(
            "host.ns_per_event",
            untraced.run_s * 1e9 / events.max(1) as f64,
            "ns",
        ),
        Metric::new("host.self_share", 1.0 - bucket_share, "fraction"),
        Metric::new(
            "host.peak_pending",
            untraced.counters.peak_pending as f64,
            "count",
        ),
        Metric::new(
            "host.tourney_active_ratio",
            engine.tourney_active_hwm as f64 / engine.tourney_leaves.max(1) as f64,
            "fraction",
        ),
        Metric::new("core.stage_s", stage, "s"),
        Metric::new("core.reduce_s", reduce, "s"),
        Metric::new(
            "core.runner_overhead_s",
            untraced.wall_s() - stage - cells - reduce,
            "s",
        ),
        Metric::new("core.cells", untraced.cells.len() as f64, "count"),
        Metric::new(
            "profile_overhead",
            traced.run_s / untraced.run_s.max(1e-9),
            "ratio",
        ),
    ]);
    debug_assert_eq!(out.len(), PER_LAYER.len());
    out
}

/// Formats a number for JSON: finite values with every digit, others
/// as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Outcome {
    /// The metrics the result line reports: per-layer when traced,
    /// end-to-end otherwise.
    #[must_use]
    pub fn metrics(&self) -> &[Metric] {
        self.per_layer.as_deref().unwrap_or(&self.end_to_end)
    }

    /// Whether every cell passed every check.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics().iter().all(|m| m.value.is_finite())
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            json_metrics(self.metrics())
        )
    }

    /// The run context as a JSON object.
    #[must_use]
    pub fn context_json(&self) -> String {
        let c = &self.config;
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seed_used\": {}, \"trace\": {}, \"quick\": {}, \
             \"seconds\": {}, \"units\": {}, \"host_cores\": {}, \"workers\": {WORKERS}, \
             \"shards\": {SHARDS}, \"fidelity\": \"smoke\", \"commit\": {}, \"rustc\": {}}}",
            json_string(c.workload.name()),
            c.seed,
            c.workload.uses_seed(),
            c.trace,
            c.quick,
            json_number(c.seconds),
            self.units,
            self.context.host_cores,
            json_string(&self.context.commit),
            json_string(&self.context.rustc),
        )
    }

    /// Context, every metric (end-to-end, per-layer when traced, and
    /// the workload's detail) and the problems as one JSON object.
    #[must_use]
    pub fn record_json(&self) -> String {
        format!(
            "{{\"context\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"end_to_end\": {}, \"per_layer\": {}, \"detail\": {}, \"problems\": [{}]}}",
            self.context_json(),
            self.correct(),
            self.attempted,
            self.failed,
            json_metrics(&self.end_to_end),
            json_metrics(self.per_layer.as_deref().unwrap_or_default()),
            json_metrics(&self.detail),
            self.problems
                .iter()
                .map(|p| json_string(p))
                .collect::<Vec<_>>()
                .join(", ")
        )
    }

    /// The spans of every pass as one JSON array.
    #[must_use]
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (traced, spans)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"pass\":{i},\"traced\":{traced},\"spans\":");
            spans.write_json(&mut out);
            out.push('}');
        }
        out.push(']');
        out
    }

    /// A human-readable table of every metric with its unit.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = format!("# perfbench {}\n", self.context_json());
        let per_layer = self.per_layer.as_deref().unwrap_or_default();
        for m in self.end_to_end.iter().chain(per_layer).chain(&self.detail) {
            let _ = writeln!(
                out,
                "{:<28} {:>18} {}",
                m.name,
                format!("{:.6}", m.value),
                m.unit
            );
        }
        for p in &self.problems {
            let _ = writeln!(out, "problem: {p}");
        }
        out
    }
}
