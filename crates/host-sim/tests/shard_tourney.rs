//! Sharded runs must record wake-tournament occupancy like sequential
//! runs do. This file holds a single test so the process-global
//! counters in `host_sim::stats` start at zero and only this test's
//! runs move them.

use blkio::{AppId, DeviceId};
use cgroup_sim::Hierarchy;
use host_sim::{stats, AppSetup, DeviceSetup, HostConfig, HostSim, JobSpecStopExt};
use simcore::SimTime;
use workload::JobSpec;

const APPS: usize = 4;

/// `APPS` apps, each pinned to its own device and core: `APPS`
/// independent shard components.
fn pinned_fleet() -> HostSim {
    let mut h = Hierarchy::new();
    let slice = h.create(Hierarchy::ROOT, "bench.slice").unwrap();
    h.enable_io(slice).unwrap();
    let apps = (0..APPS)
        .map(|i| {
            let g = h.create(slice, &format!("app-{i}")).unwrap();
            h.attach_process(g, AppId(i)).unwrap();
            AppSetup::new(
                JobSpec::lc_app(&format!("lc-{i}")).stop_by(SimTime::from_millis(10)),
                vec![DeviceId(i)],
            )
        })
        .collect();
    let devices = (0..APPS).map(|_| DeviceSetup::flash()).collect();
    HostSim::build(HostConfig::with_cores(APPS), h, apps, devices)
}

#[test]
fn sharded_run_records_tournament_occupancy() {
    let fresh = stats::snapshot();
    assert_eq!(fresh.tourney_leaves, 0, "no run finished yet");
    assert_eq!(fresh.tourney_active_hwm, 0, "no run finished yet");

    let until = SimTime::from_millis(10);
    let _ = pinned_fleet().run_sharded(until, APPS);
    let sharded = stats::snapshot();
    assert_eq!(sharded.sharded_runs, 1, "the run must actually shard");
    assert_eq!(sharded.tourney_leaves, APPS as u64, "leaves = total apps");
    // Each single-app component peaks at one active leaf; the scenario
    // records the sum of component peaks.
    assert_eq!(sharded.tourney_active_hwm, APPS as u64);

    // The summed peak bounds the sequential run's high-water mark from
    // above, so the sequential run cannot raise the recorded maximum.
    let _ = pinned_fleet().run(until);
    let after = stats::snapshot();
    assert_eq!(after.tourney_active_hwm, sharded.tourney_active_hwm);
    assert_eq!(after.tourney_leaves, sharded.tourney_leaves);
}
