//! `fleet_16k`: the `fleet_scale` consolidation tree (4 devices,
//! 4 levels, diurnal bursts) at 16384 tenants under each knob, plus one
//! no-knob cell at 65536 tenants.
//!
//! Cost here scales with configured tenants, not with I/Os: building
//! the hierarchy and the host, per-queue BFQ scheduling, per-group
//! io.cost accounting and per-tenant histograms.

use isol_bench::experiments::fleet_scale;
use isol_bench::{Fidelity, Knob, Scenario};

use crate::{cells_pass, cells_setup, Config, Pass};

/// `(knob, tenants)` per cell, in run order.
fn cells(cfg: &Config) -> Vec<(Knob, usize)> {
    let (fleet, big) = if cfg.quick {
        (1024, 4096)
    } else {
        (16384, 65536)
    };
    let mut out: Vec<(Knob, usize)> = Knob::ALL.iter().map(|&k| (k, fleet)).collect();
    out.push((Knob::None, big));
    out
}

fn scenario(cfg: &Config, (knob, tenants): (Knob, usize)) -> Scenario {
    let (mut s, _, _) = fleet_scale::fleet_scale_scenario(knob, tenants);
    s.set_seed(cfg.seed);
    s
}

fn label((knob, tenants): (Knob, usize)) -> String {
    fleet_scale::cell_label(knob, tenants)
}

/// Times building every cell's host without running it.
#[must_use]
pub fn setup(cfg: &Config) -> f64 {
    let until = Fidelity::Smoke.fleet_scale_duration();
    cells_setup(&cells(cfg), until, |c| scenario(cfg, c))
}

/// One pass: build, run and reduce every cell in turn.
#[must_use]
pub fn pass(cfg: &Config) -> Pass {
    let until = Fidelity::Smoke.fleet_scale_duration();
    cells_pass(&cells(cfg), until, label, |c| scenario(cfg, c))
}
