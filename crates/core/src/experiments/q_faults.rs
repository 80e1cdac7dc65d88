//! Isolation under device faults — a robustness question the paper's
//! methodology leaves open: *do the cgroup knobs keep their isolation
//! promises when the SSD itself misbehaves?*
//!
//! Real deployments see media errors, firmware hiccups, latency spikes,
//! and the occasional controller reset; the kernel's recovery path
//! (`nvme_timeout` → abort → retry/requeue) re-drives the affected
//! commands. This experiment runs the paper's prioritization probe — a
//! latency-critical tenant with an 8:1 weight advantage over a batch
//! tenant — on a deliberately flaky device, with the host recovery path
//! armed, and reports both the isolation outcome (per-cgroup bandwidth,
//! LC tail latency) and the fault/recovery accounting for every knob.
//!
//! Determinism: the fault stream is a pure function of the scenario
//! seed and device index, so the whole grid is byte-identical across
//! `--jobs` values (covered by the determinism regression tests and a
//! committed golden CSV).

use std::io;

use iostats::Table;
use simcore::SimDuration;
use workload::JobSpec;

use crate::{cgroup_bandwidths, Cell, Fidelity, Knob, OutputSink, Scenario, Staged};
use nvme_sim::FaultConfig;

/// The fault mix every cell runs under: roughly one media error per
/// 2 500 commands, rare firmware stalls long enough to trip the host
/// deadline, occasional 8× latency spikes, and a periodic full
/// controller reset.
#[must_use]
pub fn fault_config() -> FaultConfig {
    FaultConfig {
        media_error_rate: 4e-4,
        stall_rate: 1e-4,
        stall: SimDuration::from_millis(100),
        spike_rate: 1e-3,
        spike_mult: 8.0,
        reset_period: Some(SimDuration::from_millis(120)),
        reset_duration: SimDuration::from_millis(10),
        window: None,
    }
}

/// The per-command deadline armed for every cell (the
/// `/sys/block/*/queue/io_timeout` analogue; well below the injected
/// 100 ms stall so stalled commands are aborted, not waited out).
#[must_use]
pub fn io_timeout() -> SimDuration {
    SimDuration::from_millis(20)
}

/// The cell label the runner reports on a panic (`q_faults-<knob>`) —
/// also the target for `figures --inject-panic`.
#[must_use]
pub fn cell_label(knob: Knob) -> String {
    format!("q_faults-{}", knob.label())
}

/// One knob's outcome on the faulty device.
#[derive(Debug, Clone, Copy)]
pub struct QFaultsRow {
    /// The knob under test.
    pub knob: Knob,
    /// Prioritized (weight 800) cgroup bandwidth, MiB/s.
    pub prio_mib_s: f64,
    /// Best-effort (weight 100) cgroup bandwidth, MiB/s.
    pub be_mib_s: f64,
    /// Prioritized tenant's P99 end-to-end latency, microseconds.
    pub prio_p99_us: f64,
    /// Injected media-error completions.
    pub media_errors: u64,
    /// Commands aborted on deadline expiry.
    pub timeouts: u64,
    /// Device attempts re-driven by the retry path.
    pub retries: u64,
    /// Requests failed back to their app after exhausting retries.
    pub failed: u64,
    /// Full controller resets the device underwent.
    pub resets: u64,
}

/// The fault-injection study.
#[derive(Debug)]
pub struct QFaultsResult {
    /// One row per knob, in [`Knob::ALL`] order (panicked cells omitted).
    pub rows: Vec<QFaultsRow>,
}

impl QFaultsResult {
    /// Looks up one knob's row.
    #[must_use]
    pub fn row(&self, knob: Knob) -> Option<&QFaultsRow> {
        self.rows.iter().find(|r| r.knob == knob)
    }
}

/// Builds the cell for one knob's faulty-device probe. The scenario
/// carries injected faults, so the cell cache always bypasses it (fault
/// outcomes must never be served from disk). Cell rows:
/// `[[prio_mib_s, be_mib_s, prio_p99_us, media, timeouts, retries,
/// failed, resets]]` — the counts are exact in `f64` (far below 2^53).
fn probe_cell(knob: Knob, fidelity: Fidelity) -> Cell {
    let device = knob.device_setup(false).with_faults(fault_config());
    let mut s = Scenario::new(&cell_label(knob), 8, vec![device]);
    s.set_warmup(fidelity.warmup());
    s.set_io_timeout(Some(io_timeout()));
    let prio = s.add_cgroup("prio");
    let be = s.add_cgroup("be");
    knob.configure_weights(&mut s, &[prio, be], &[800, 100]);
    s.add_app(prio, JobSpec::lc_app("prio"));
    s.add_app(be, JobSpec::batch_app("be"));
    let groups = s.app_groups().to_vec();
    Cell::scenario(
        "q_faults",
        fidelity,
        s,
        fidelity.q_faults_duration(),
        move |report| {
            let bws = cgroup_bandwidths(&report, &groups, &[prio, be]);
            let d = report.devices[0];
            vec![vec![
                bws[0],
                bws[1],
                report.apps[0].latency.p99_us,
                d.media_errors as f64,
                d.timeouts as f64,
                d.retries as f64,
                d.failed as f64,
                d.resets as f64,
            ]]
        },
    )
}

/// Stages the fault-injection isolation study: one cell per knob.
#[must_use]
pub fn stage(fidelity: Fidelity) -> Staged<QFaultsResult> {
    let keys: Vec<Knob> = Knob::ALL.to_vec();
    let cells = keys
        .iter()
        .map(|&knob| probe_cell(knob, fidelity))
        .collect();
    Staged::new("q_faults", cells, move |results, sink| {
        let rows: Vec<QFaultsRow> = keys
            .iter()
            .zip(results)
            .filter_map(|(&knob, cell)| {
                let cell = cell?;
                let v = &cell[0];
                Some(QFaultsRow {
                    knob,
                    prio_mib_s: v[0],
                    be_mib_s: v[1],
                    prio_p99_us: v[2],
                    media_errors: v[3] as u64,
                    timeouts: v[4] as u64,
                    retries: v[5] as u64,
                    failed: v[6] as u64,
                    resets: v[7] as u64,
                })
            })
            .collect();
        emit_table(&rows, sink)?;
        Ok(QFaultsResult { rows })
    })
}

fn emit_table(rows: &[QFaultsRow], sink: &mut OutputSink) -> io::Result<()> {
    let mut t = Table::new(vec![
        "knob",
        "prio MiB/s",
        "be MiB/s",
        "prio P99 (us)",
        "media err",
        "timeouts",
        "retries",
        "failed",
        "resets",
    ]);
    for r in rows {
        t.row(vec![
            r.knob.label().to_owned(),
            format!("{:.0}", r.prio_mib_s),
            format!("{:.0}", r.be_mib_s),
            format!("{:.1}", r.prio_p99_us),
            r.media_errors.to_string(),
            r.timeouts.to_string(),
            r.retries.to_string(),
            r.failed.to_string(),
            r.resets.to_string(),
        ]);
    }
    sink.emit("q_faults_isolation", &t)?;
    sink.note(
        "(media errors/stalls/spikes/resets are injected; timeouts, retries, \
         and failures are the host recovery path responding — faults are \
         retried transparently, so `failed` should stay 0)",
    );
    Ok(())
}

/// Runs the fault-injection isolation study across all knobs.
///
/// # Errors
///
/// Propagates sink I/O failures.
pub fn run(fidelity: Fidelity, sink: &mut OutputSink) -> io::Result<QFaultsResult> {
    stage(fidelity).run(sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_are_injected_and_recovered() {
        let r = run(Fidelity::Smoke, &mut OutputSink::quiet()).expect("q_faults");
        assert_eq!(r.rows.len(), Knob::ALL.len());
        let media: u64 = r.rows.iter().map(|r| r.media_errors).sum();
        let retries: u64 = r.rows.iter().map(|r| r.retries).sum();
        let resets: u64 = r.rows.iter().map(|r| r.resets).sum();
        assert!(media > 0, "media errors injected");
        assert!(retries > 0, "retry path exercised");
        assert!(resets > 0, "resets injected");
        // Recovery is transparent: nothing fails back to the apps, and
        // every cell still moves real data.
        for row in &r.rows {
            assert_eq!(row.failed, 0, "{}: no exhausted retries", row.knob);
            assert!(row.prio_mib_s > 0.0, "{}: prio made progress", row.knob);
            assert!(row.be_mib_s > 0.0, "{}: be made progress", row.knob);
        }
    }
}
