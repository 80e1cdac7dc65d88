//! Digests of simulated output, and the digests recorded for the
//! default seed.
//!
//! A digest covers every simulated number a cell produces and no host
//! time, so a change that only makes the simulator faster leaves it
//! unchanged, and a change that moves one simulated byte does not.

use std::collections::BTreeMap;

use host_sim::RunReport;
use simcore::hash::xxhash64;

/// The digests recorded for the default seed, one line per cell:
/// `workload<TAB>seed<TAB>cell<TAB>digest`. `paper_grid` ignores the
/// seed and records `*`.
pub const RECORDED: &str = include_str!("../digests.tsv");

struct Bytes(Vec<u8>);

impl Bytes {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Digest of a cell's result rows (the currency of the paper grid).
#[must_use]
pub fn rows(rows: &[Vec<f64>]) -> u64 {
    let mut b = Bytes(Vec::new());
    for row in rows {
        b.u64(row.len() as u64);
        for &v in row {
            b.f64(v);
        }
    }
    xxhash64(&b.0, 0)
}

/// Digest of every simulated field of a run report: per-app counts,
/// bandwidth, latency digest and stage breakdown, per-core busy time,
/// and per-device service, GC and recovery counters.
#[must_use]
pub fn report(r: &RunReport) -> u64 {
    let mut b = Bytes(Vec::with_capacity(r.apps.len() * 200));
    b.u64(r.duration.as_nanos());
    b.u64(r.measure_from.as_nanos());
    for a in &r.apps {
        b.u64(a.issued);
        b.u64(a.completed);
        b.u64(a.failed);
        b.u64(a.bytes);
        b.f64(a.mean_mib_s);
        let l = &a.latency;
        b.u64(l.count);
        for v in [
            l.mean_us, l.p50_us, l.p90_us, l.p95_us, l.p99_us, l.p999_us, l.max_us,
        ] {
            b.f64(v);
        }
        b.f64(a.ctx_per_io);
        let s = &a.stages;
        for v in [
            s.submit_cpu_us,
            s.qos_wait_us,
            s.sched_wait_us,
            s.device_us,
            s.complete_cpu_us,
        ] {
            b.f64(v);
        }
    }
    for c in &r.cores {
        b.f64(c.utilization);
        b.u64(c.busy.as_nanos());
    }
    for d in &r.devices {
        for v in [
            d.served_ios,
            d.served_bytes,
            d.media_errors,
            d.stalls,
            d.spikes,
            d.resets,
            d.timeouts,
            d.retries,
            d.failed,
        ] {
            b.u64(v);
        }
        b.f64(d.gc_level);
    }
    xxhash64(&b.0, 0)
}

/// Renders a digest the way [`RECORDED`] stores it.
#[must_use]
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// The recorded digests of `workload` at `seed`, keyed by cell label
/// (empty when none are recorded).
#[must_use]
pub fn recorded(workload: &str, seed: &str) -> BTreeMap<String, String> {
    RECORDED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            (f.len() == 4 && f[0] == workload && f[1] == seed)
                .then(|| (f[2].to_owned(), f[3].to_owned()))
        })
        .collect()
}

/// Replaces the lines of `workload` in a digests file's `text` with
/// `cells` (label, digest) recorded at `seed`.
#[must_use]
pub fn rewrite(text: &str, workload: &str, seed: &str, cells: &[(String, u64)]) -> String {
    let mut out: String = text
        .lines()
        .filter(|l| l.split('\t').next() != Some(workload))
        .map(|l| format!("{l}\n"))
        .collect();
    for (label, d) in cells {
        out.push_str(&format!("{workload}\t{seed}\t{label}\t{}\n", hex(*d)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_digest_sees_every_bit() {
        let a = rows(&[vec![1.0, 2.0]]);
        assert_eq!(a, rows(&[vec![1.0, 2.0]]));
        assert_ne!(a, rows(&[vec![1.0, f64::from_bits(2.0f64.to_bits() + 1)]]));
        assert_ne!(a, rows(&[vec![1.0], vec![2.0]]));
    }

    #[test]
    fn rewrite_replaces_only_its_workload() {
        let text = "# header\nfleet_16k\t1\ta\t00\napps_rw\t1\tb\t01\n";
        let out = rewrite(text, "fleet_16k", "1", &[("c".to_owned(), 2)]);
        assert_eq!(
            out,
            "# header\napps_rw\t1\tb\t01\nfleet_16k\t1\tc\t0000000000000002\n"
        );
    }
}
