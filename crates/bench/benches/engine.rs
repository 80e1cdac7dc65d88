//! Micro-benchmarks of the simulator's hot paths: the event queue, the
//! latency histogram, the device service loop, and a full host-sim
//! second of simulated I/O per scheduler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use blkio::{AccessPattern, AppId, DeviceId, GroupId, IoOp, IoRequest};
use iosched_sim::SchedKind;
use isol_bench::{Knob, Scenario};
use nvme_sim::{DeviceProfile, NvmeDevice, StartedCmd};
use simcore::{DetRng, EventQueue, SimTime};
use workload::JobSpec;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_nanos((i * 7919) % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        });
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("latency_histogram_record_100k", |b| {
        b.iter(|| {
            let mut h = iostats::LatencyHistogram::new();
            let mut x = 12345u64;
            for _ in 0..100_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                h.record_ns(x % 10_000_000);
            }
            black_box(h.percentile_ns(0.99))
        });
    });
    // A fleet tenant's whole life: a handful of completions, one summary.
    c.bench_function("latency_histogram_fleet_tenant", |b| {
        b.iter(|| {
            let mut h = iostats::LatencyHistogram::new();
            for us in [60u64, 85, 110, 140, 230, 480, 950, 1_900] {
                h.record_ns(black_box(us * 1_000));
            }
            black_box(h.summary())
        });
    });
}

fn bench_device(c: &mut Criterion) {
    c.bench_function("nvme_device_service_10k", |b| {
        b.iter(|| {
            let mut dev = NvmeDevice::new(DeviceProfile::flash(), DetRng::new(1));
            let mut now = SimTime::ZERO;
            let mut completions: Vec<StartedCmd> = Vec::new();
            for i in 0..10_000u64 {
                let r = IoRequest::new(
                    i,
                    AppId(0),
                    GroupId(0),
                    DeviceId(0),
                    IoOp::Read,
                    AccessPattern::Random,
                    4096,
                    0,
                    now,
                );
                if !dev.has_capacity(now) {
                    // Retire the oldest outstanding completion.
                    let cmd = completions.remove(0);
                    now = cmd.done_at;
                    dev.complete_current(cmd.slot, cmd.gen, now);
                }
                dev.accept(r, now);
                completions.extend(dev.start_ready(now));
            }
            black_box(dev.served())
        });
    });
}

fn bench_host_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("host_sim_quarter_second");
    g.sample_size(10);
    for sched in [SchedKind::None, SchedKind::MqDeadline, SchedKind::Bfq] {
        g.bench_with_input(BenchmarkId::from_parameter(sched), &sched, |b, &sched| {
            b.iter(|| {
                let knob = match sched {
                    SchedKind::MqDeadline => Knob::MqDlPrio,
                    SchedKind::Bfq => Knob::BfqWeight,
                    _ => Knob::None,
                };
                let mut s = Scenario::new("bench", 4, vec![knob.device_setup(true)]);
                let g0 = s.add_cgroup("g0");
                s.add_app(g0, JobSpec::batch_app("b"));
                black_box(s.run(SimTime::from_millis(250)).total_bytes())
            });
        });
    }
    g.finish();
}

/// The tracing overhead contract: a disabled recorder is one
/// thread-local flag read per probe site (compare `untraced` against
/// the other `host_sim_quarter_second` numbers over time), and even a
/// fully armed recorder stays within a small constant factor.
fn bench_trace(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace");
    g.sample_size(10);
    let scenario = || {
        let mut s = Scenario::new("bench", 4, vec![Knob::MqDlPrio.device_setup(true)]);
        let g0 = s.add_cgroup("g0");
        s.add_app(g0, JobSpec::batch_app("b"));
        s
    };
    g.bench_function("host_sim_quarter_second_untraced", |b| {
        b.iter(|| black_box(scenario().run(SimTime::from_millis(250)).total_bytes()));
    });
    g.bench_function("host_sim_quarter_second_traced", |b| {
        b.iter(|| {
            let (report, trace) = scenario().run_traced(SimTime::from_millis(250), 1 << 20);
            black_box((report.total_bytes(), trace.events.len()))
        });
    });
    g.bench_function("record_with_disabled_100k", |b| {
        b.iter(|| {
            for i in 0..100_000u64 {
                simcore::trace::record_with(|| {
                    panic!("event built with tracing disabled ({i})");
                });
            }
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = criterion::Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_event_queue, bench_histogram, bench_device, bench_host_sim, bench_trace
}
criterion_main!(benches);
