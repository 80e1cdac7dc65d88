//! Fleet scenario — the sharded engine's reference workload.
//!
//! A multi-SSD host running one Q10-style tenant pair per device: a
//! latency-critical priority app plus [`BE_APPS`] best-effort batch apps,
//! all pinned to their own SSD and their own cores. Tenants share
//! nothing — no device, no core, no cgroup subtree — so the machine
//! decouples into one component per SSD and the sharded engine
//! ([`host_sim::HostSim::run_sharded`]) can run every SSD on its own
//! worker. The shard criterion bench, the `perf_floors` speed-up test
//! and the shards-axis determinism tests all build their scenarios here
//! so they measure and check the same machine.

use simcore::SimDuration;
use workload::JobSpec;

use crate::{Knob, Scenario};

/// Apps per SSD tenant: one priority app + this many best-effort apps.
pub const BE_APPS: usize = 4;

/// SSD count matching the acceptance benchmark (a 7-SSD fleet).
pub const FLEET_SSDS: usize = 7;

/// Builds the fleet scenario: `ssds` devices, each with one prioritized
/// LC app and [`BE_APPS`] batch apps pinned to it, on `(BE_APPS + 1) ×
/// ssds` cores (one per app, so tenants never share a core). `knob`
/// configures every tenant's priority wiring, exactly like the Q10
/// burst study does for its single device.
///
/// # Panics
///
/// Panics if `ssds` is zero (a scenario needs at least one device).
#[must_use]
pub fn fleet_scenario(knob: Knob, ssds: usize) -> Scenario {
    let devices = (0..ssds).map(|_| knob.device_setup(false)).collect();
    let mut s = Scenario::new(
        &format!("fleet-{}-{}ssd", knob.label(), ssds),
        (BE_APPS + 1) * ssds,
        devices,
    );
    s.set_bw_window(SimDuration::from_millis(10));
    for d in 0..ssds {
        let prio = s.add_cgroup(&format!("prio-{d}"));
        let be = s.add_cgroup(&format!("be-{d}"));
        // Apps are placed on cores round-robin by app index; with one
        // core per app the tenant occupies its own core block.
        s.add_app_on(
            prio,
            JobSpec::builder(&format!("prio-{d}"))
                .iodepth(1)
                .block_size(4096)
                .build(),
            vec![blkio::DeviceId(d)],
        );
        for j in 0..BE_APPS {
            s.add_app_on(
                be,
                JobSpec::batch_app(&format!("be-{d}-{j}")),
                vec![blkio::DeviceId(d)],
            );
        }
        crate::knob::configure_fleet_priority(knob, &mut s, prio, be, d);
    }
    s
}

/// The fleet with periodic controller resets armed on every device —
/// the determinism tests' adversarial variant (cross-component fault
/// timing must still replay bit-exactly).
#[must_use]
pub fn fleet_scenario_faulted(knob: Knob, ssds: usize) -> Scenario {
    let mut s = fleet_scenario(knob, ssds);
    for (d, dev) in s.devices_mut().iter_mut().enumerate() {
        dev.faults = nvme_sim::FaultConfig {
            // Stagger reset cadence per device so shards never tick in
            // lockstep.
            reset_period: Some(SimDuration::from_millis(7 + d as u64)),
            reset_duration: SimDuration::from_micros(500),
            spike_rate: 0.01,
            spike_mult: 4.0,
            ..nvme_sim::FaultConfig::none()
        };
    }
    s.set_io_timeout(Some(SimDuration::from_millis(5)));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    #[test]
    fn fleet_decouples_per_ssd() {
        let r = fleet_scenario(Knob::IoCost, 3).run(SimTime::from_millis(20));
        assert_eq!(r.apps.len(), 3 * (BE_APPS + 1));
        assert_eq!(r.devices.len(), 3);
        assert!(r.apps.iter().all(|a| a.completed > 0));
        // One core per app, every core used.
        assert_eq!(r.cores.len(), 3 * (BE_APPS + 1));
        assert!(r.cores.iter().all(|c| !c.busy.is_zero()));
    }

    #[test]
    fn faulted_fleet_exercises_recovery() {
        let r = fleet_scenario_faulted(Knob::None, 2).run(SimTime::from_millis(30));
        let resets: u64 = r.devices.iter().map(|d| d.resets).sum();
        assert!(resets > 0, "staggered reset plans armed");
    }
}
