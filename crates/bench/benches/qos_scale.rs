//! `qos_scale`: controller-cost scaling with tenant count.
//!
//! Two cost axes, each at 8 / 256 / 1024 / 4096 / 16384 materialized
//! tenant groups with ~10% of them active (the fleet steady state: most
//! tenants idle between diurnal bursts):
//!
//! * **tick** — one `io.cost` period boundary (`adjust_vrate`): usage
//!   EMAs, active-set pruning, vrate clamp. The controller walks only
//!   the active slot set, so the cost should track active tenants, not
//!   materialized ones.
//! * **charge** — pricing one 4 KiB random read on the submit path
//!   (`on_submit`): hweight is served from the controller's memo or
//!   recomputed over the active set.
//!
//! The `bfq_scale` group asks the same question of the BFQ scheduler at
//! 8 / 1024 / 16384 groups, ~10% backlogged: one `dispatch` plus the
//! refill `insert` into the served group. BFQ picks the next group from
//! a vtime-ordered index of backlogged groups, so the cost should grow
//! with the log of the backlog, not with configured groups.
//!
//! The `perfsnap` binary re-times the tick axis at 8 and 1024 groups
//! and gates absolute regressions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use blkio::GroupId;
use ioqos::{IoCostController, QosController};
use iosched_sim::{Bfq, BfqConfig};
use isol_bench_harness::qos_fixture;
use simcore::{SimDuration, SimTime};

const GROUP_COUNTS: [usize; 5] = [8, 256, 1024, 4096, 16384];
const BFQ_GROUP_COUNTS: [usize; 3] = [8, 1024, 16384];

fn bench_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("qos_scale_tick");
    g.sample_size(50);
    for n in GROUP_COUNTS {
        g.bench_function(BenchmarkId::new("arena", n), |b| {
            let mut ctl = IoCostController::new(qos_fixture::bench_config());
            let mut now = qos_fixture::populate(&mut ctl, n);
            b.iter(|| {
                now += SimDuration::from_millis(5);
                ctl.tick(black_box(now));
            });
        });
    }
    g.finish();
}

fn bench_charge(c: &mut Criterion) {
    let mut g = c.benchmark_group("qos_scale_charge");
    g.sample_size(50);
    for n in GROUP_COUNTS {
        g.bench_function(BenchmarkId::new("arena", n), |b| {
            let mut ctl = IoCostController::new(qos_fixture::bench_config());
            let mut now = qos_fixture::populate(&mut ctl, n);
            let mut id = 1_000_000;
            b.iter(|| {
                // The probe tenant's weight dwarfs the fleet's, so its
                // charge always clears the margin at this pace and the
                // held queues stay bounded.
                now += SimDuration::from_micros(400);
                id += 1;
                let req = qos_fixture::read4k(id, qos_fixture::PROBE_GROUP, now);
                black_box(ctl.on_submit(req, now))
            });
        });
    }
    g.finish();
}

fn bench_bfq(c: &mut Criterion) {
    let mut g = c.benchmark_group("bfq_scale");
    g.sample_size(50);
    for n in BFQ_GROUP_COUNTS {
        g.bench_function(BenchmarkId::new("insert_dispatch", n), |b| {
            // A one-request budget makes every dispatch start a new slice,
            // so each one picks the next group (fleet tenants' queues drain
            // just as fast).
            let mut s = Bfq::new(BfqConfig {
                slice_idle: SimDuration::ZERO,
                budget_bytes: 4096,
                ..BfqConfig::default()
            });
            for grp in 1..=n {
                s.set_group_weight(GroupId(grp), [100, 200, 400, 800][grp % 4]);
            }
            // Backlog every tenth group with a few 4 KiB reads.
            let mut id = 0;
            let stride = n / qos_fixture::active_count(n);
            for grp in (1..=n).step_by(stride.max(1)) {
                for _ in 0..4 {
                    s.insert(qos_fixture::read4k(id, grp, SimTime::ZERO), SimTime::ZERO);
                    id += 1;
                }
            }
            let mut now = SimTime::ZERO;
            b.iter(|| {
                // Refilling the served group keeps the backlogged set fixed.
                now += SimDuration::from_micros(10);
                let r = s.dispatch(black_box(now)).expect("backlogged");
                id += 1;
                s.insert(qos_fixture::read4k(id, r.group.index(), now), now);
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_tick, bench_charge, bench_bfq);
criterion_main!(benches);
