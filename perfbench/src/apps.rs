//! `apps_rw`: the four closed-loop engines of `scenarios/app_mix.toml`
//! (KV with read-modify-write write-back, OLTP with fsync commit-log
//! writes, a file server with appends, an ML scan with checkpoint
//! bursts) under each knob.
//!
//! The benchmark writes the scenario file itself, with the run's seed
//! and a longer run, and loads it through the scenario DSL. Load adapts
//! to latency, so a slower controller shows up as fewer simulated I/Os.

use isol_bench::scenario_file::ScenarioSpec;
use isol_bench::{Knob, Scenario};
use simcore::SimTime;

use crate::{cells_pass, cells_setup, Config, Pass};

/// Simulated run length per knob.
fn duration_ms(cfg: &Config) -> u64 {
    if cfg.quick {
        300
    } else {
        5000
    }
}

/// The `app_mix` scenario file for `knob`, with the run's seed and
/// length.
#[must_use]
fn scenario_toml(knob: Knob, seed: u64, duration_ms: u64) -> String {
    format!(
        r#"name = "apps_rw"
seed = {seed}
cores = 4
duration_ms = {duration_ms}
warmup_ms = 30
knob = "{knob}"

[[device]]
profile = "flash"

[[cgroup]]
name = "prio"
weight = 800

[[cgroup]]
name = "be"
weight = 100

[[tenant]]
name = "kv"
cgroup = "prio"
workload = "kv"
window = 16
read_fraction = 0.95
theta = 0.99
value_size = 4096
think_us = 20

[[tenant]]
name = "oltp"
cgroup = "prio"
workload = "oltp"
window = 8
reads_per_txn = 4
think_us = 50

[[tenant]]
name = "fileserver"
cgroup = "be"
workload = "fileserver"
window = 8
files = 256
think_us = 30

[[tenant]]
name = "scan"
cgroup = "be"
workload = "mlscan"
window = 32
checkpoint_every = 64
"#,
        knob = knob.label()
    )
}

fn scenario(cfg: &Config, knob: Knob) -> Scenario {
    let text = scenario_toml(knob, cfg.seed, duration_ms(cfg));
    ScenarioSpec::parse(&text)
        .expect("the benchmark's own scenario file parses")
        .build()
}

fn label(knob: Knob) -> String {
    format!("apps_rw-{}", knob.label())
}

/// Times building every knob's host without running it.
#[must_use]
pub fn setup(cfg: &Config) -> f64 {
    let until = SimTime::from_millis(duration_ms(cfg));
    cells_setup(&Knob::ALL, until, |k| scenario(cfg, k))
}

/// One pass: build, run and reduce every knob's scenario in turn.
#[must_use]
pub fn pass(cfg: &Config) -> Pass {
    let until = SimTime::from_millis(duration_ms(cfg));
    cells_pass(&Knob::ALL, until, label, |k| scenario(cfg, k))
}
