//! Fleet-scale `io.cost` fixture for the `qos_scale` bench: the
//! benchmark cost model, a 4 KiB probe read, and [`populate`], which
//! leaves a controller in the steady state a loaded host presents every
//! period (many tenants materialized, ~10 % of them active).

use blkio::{AccessPattern, AppId, DeviceId, GroupId, IoOp, IoRequest, ReqId};
use ioqos::{IoCostConfig, IoCostController, QosController, SubmitOutcome};
use simcore::{SimDuration, SimTime};

/// The 1 GiB/s, 100k-rand-IOPS model the benchmark controller prices
/// against.
#[must_use]
pub fn bench_config() -> IoCostConfig {
    IoCostConfig::new(
        cgroup_sim::IoCostModel {
            ctrl: cgroup_sim::CostCtrl::User,
            rbps: 1 << 30,
            rseqiops: 200_000,
            rrandiops: 100_000,
            wbps: 1 << 30,
            wseqiops: 200_000,
            wrandiops: 100_000,
        },
        cgroup_sim::IoCostQos::default(),
    )
}

/// A 4 KiB random read from `group` at `at`.
#[must_use]
pub fn read4k(id: ReqId, group: usize, at: SimTime) -> IoRequest {
    IoRequest::new(
        id,
        AppId(group),
        GroupId(group),
        DeviceId(0),
        IoOp::Read,
        AccessPattern::Random,
        4096,
        0,
        at,
    )
}

/// The probe tenant every per-I/O benchmark submits from (heavyweight so
/// its charges always clear the dispatch margin).
pub const PROBE_GROUP: usize = 1;

/// How many of `n` tenants the fixture leaves active: 10% (at least 1),
/// matching the acceptance gate's "≤10% active" condition.
#[must_use]
pub fn active_count(n: usize) -> usize {
    (n / 10).max(1)
}

/// Materializes `n` tenant groups on `ctl` and leaves [`active_count`]
/// of them (including the probe group) active with one uncompleted I/O
/// each, the steady state a loaded host presents to the controller every
/// period. Returns the simulated instant benchmark loops should resume
/// from.
///
/// Every group is touched once so the controller's per-group state is
/// materialized (the overhead model counts total groups), then the
/// activity window is allowed to lapse so only the re-activated tenants
/// remain on the hot path.
pub fn populate(ctl: &mut IoCostController, n: usize) -> SimTime {
    ctl.set_weight(GroupId(PROBE_GROUP), 10_000);
    for g in 2..=n {
        ctl.set_weight(GroupId(g), [100, 200, 400, 800][g % 4]);
    }
    // Touch every tenant once; complete (or release) everything later.
    let mut inflight = Vec::new();
    let mut id: ReqId = 0;
    for g in 1..=n {
        if let SubmitOutcome::Pass(r) = ctl.on_submit(read4k(id, g, SimTime::ZERO), SimTime::ZERO) {
            inflight.push(r);
        }
        id += 1;
    }
    let settle = SimTime::from_secs(5);
    let mut released = Vec::new();
    ctl.drain_released_into(settle, &mut released);
    for r in inflight.into_iter().chain(released) {
        ctl.on_device_complete(&r, settle);
    }
    // Let the activity window lapse, then let a tick prune idle state.
    let idle = settle + SimDuration::from_millis(200);
    ctl.tick(idle);
    // Re-activate ~10%: one submitted-and-unfinished I/O pins each
    // tenant on the controller's hot path.
    let stride = n / active_count(n);
    for g in (1..=n).step_by(stride.max(1)) {
        let _ = ctl.on_submit(read4k(id, g, idle), idle);
        id += 1;
    }
    idle
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn populate_leaves_only_a_tenth_active() {
        let mut arena = IoCostController::new(bench_config());
        let now = populate(&mut arena, 64);
        // One more tick after another lapsed window: only the pinned
        // (inflight > 0) tenants survive pruning, so the next period's
        // walk is over ~10% of the fleet.
        arena.tick(now + SimDuration::from_millis(300));
        let probe = read4k(9_999, PROBE_GROUP, now);
        assert!(matches!(
            arena.on_submit(probe, now),
            SubmitOutcome::Pass(_) | SubmitOutcome::Held
        ));
    }

    /// Appends one submission's decision to `log` (`P<id>;` or `H;`),
    /// returning the request when it passed.
    fn submit(
        ctl: &mut IoCostController,
        log: &mut String,
        req: IoRequest,
        now: SimTime,
    ) -> Option<IoRequest> {
        match ctl.on_submit(req, now) {
            SubmitOutcome::Pass(r) => {
                write!(log, "P{};", r.id).unwrap();
                Some(r)
            }
            SubmitOutcome::Held => {
                log.push_str("H;");
                None
            }
        }
    }

    /// Four equal-weight groups at one read per 100 µs each, every
    /// passed or released request completing at once. Returns the
    /// decision log: per round, the submit outcomes then the released
    /// ids (`R<id>;`), newline-terminated.
    fn light_decisions() -> String {
        let mut ctl = IoCostController::new(bench_config());
        let mut log = String::new();
        let mut id = 0;
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            now += SimDuration::from_micros(100);
            for g in 1..=4usize {
                if let Some(r) = submit(&mut ctl, &mut log, read4k(id, g, now), now) {
                    ctl.on_device_complete(&r, now);
                }
                id += 1;
            }
            for r in ctl.drain_released(now) {
                write!(log, "R{};", r.id).unwrap();
                ctl.on_device_complete(&r, now);
            }
            ctl.tick(now);
            log.push('\n');
        }
        log
    }

    /// Four groups weighted 100/200/400/800 offering ~3× the model's
    /// random-read capacity, completions landing one round later, so
    /// most submissions are held and released by weight. Same log
    /// format as [`light_decisions`].
    fn loaded_decisions() -> String {
        let mut ctl = IoCostController::new(bench_config());
        for g in 1..=4usize {
            ctl.set_weight(GroupId(g), [100, 200, 400, 800][g - 1]);
        }
        let mut log = String::new();
        let mut id = 0;
        let mut now = SimTime::ZERO;
        let mut inflight = Vec::new();
        for _ in 0..300 {
            now += SimDuration::from_micros(100);
            for r in inflight.drain(..) {
                ctl.on_device_complete(&r, now);
            }
            for g in 1..=4usize {
                for _ in 0..8 {
                    inflight.extend(submit(&mut ctl, &mut log, read4k(id, g, now), now));
                    id += 1;
                }
            }
            for r in ctl.drain_released(now) {
                write!(log, "R{};", r.id).unwrap();
                inflight.push(r);
            }
            ctl.tick(now);
            log.push('\n');
        }
        log
    }

    /// The arena controller's pass/hold/release sequence matches a
    /// frozen reference: XXH64 (seed 0) digests of the decision logs
    /// the retired `HashMap`-based controller produced on exactly these
    /// inputs (same pricing model, donation math and vrate loop; only
    /// the data-structure walks differed).
    #[test]
    fn arena_matches_frozen_map_controller_decisions() {
        let light = light_decisions();
        assert_eq!(light.matches("P").count(), 800, "every light read passes");
        let got = simcore::xxhash64(light.as_bytes(), 0);
        assert_eq!(got, 0x2c2d_e959_b22f_fd52, "light: got {got:#018x}");

        let loaded = loaded_decisions();
        assert!(loaded.contains("H;"), "the loaded run must hold requests");
        assert!(loaded.contains('R'), "the loaded run must release requests");
        let got = simcore::xxhash64(loaded.as_bytes(), 0);
        assert_eq!(got, 0x9c66_1124_f3b7_d771, "loaded: got {got:#018x}");
    }
}
