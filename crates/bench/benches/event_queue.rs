//! Event-queue and request-tracking micro-benchmarks:
//!
//! * pre-sizing (`EventQueue::with_capacity`) vs growing from empty,
//! * the timing wheel under the engine's three characteristic schedule
//!   shapes (uniform churn, bursty arrivals with long quiet gaps,
//!   same-instant ties),
//! * slab/free-list in-service tracking vs a `HashMap` keyed by request
//!   id (the structure `NvmeDevice` replaced).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;
use std::hint::black_box;

use blkio::{AccessPattern, AppId, DeviceId, GroupId, IoOp, IoRequest};
use simcore::{EventQueue, SimDuration, SimTime};

const EVENTS: u64 = 10_000;

/// Fill-then-drain: schedule everything, then pop everything. Growth
/// cost shows up in the fill phase of the unsized variant.
fn fill_drain(mut q: EventQueue<u64>) -> u64 {
    for i in 0..EVENTS {
        q.schedule(SimTime::from_nanos((i * 7919) % 100_000), i);
    }
    let mut sum = 0u64;
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(v);
    }
    sum
}

/// Steady-state churn as the engine sees it: a bounded pending set
/// (one completion re-arms the next event), far more pops than the
/// peak queue length.
fn churn(mut q: EventQueue<u64>, pending: u64) -> u64 {
    for i in 0..pending {
        q.schedule(SimTime::from_nanos(i * 997), i);
    }
    let mut sum = 0u64;
    let mut next = pending;
    while next < EVENTS {
        let (t, v) = q.pop().expect("pending set never empties");
        sum = sum.wrapping_add(v);
        q.schedule(t + simcore::SimDuration::from_nanos(997 + v % 131), next);
        next += 1;
    }
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(v);
    }
    sum
}

fn bench_event_queue_sizing(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_sizing");
    g.bench_function(BenchmarkId::new("fill_drain_10k", "unsized"), |b| {
        b.iter(|| black_box(fill_drain(EventQueue::new())));
    });
    g.bench_function(BenchmarkId::new("fill_drain_10k", "presized"), |b| {
        b.iter(|| black_box(fill_drain(EventQueue::with_capacity(EVENTS as usize))));
    });
    let pending = 256u64; // ~ one device's max_qd worth of in-flight events
    g.bench_function(BenchmarkId::new("churn_10k_qd256", "unsized"), |b| {
        b.iter(|| black_box(churn(EventQueue::new(), pending)));
    });
    g.bench_function(BenchmarkId::new("churn_10k_qd256", "presized"), |b| {
        b.iter(|| black_box(churn(EventQueue::with_capacity(pending as usize), pending)));
    });
    g.finish();
}

/// Uniform churn: a 512-deep pending set with re-arm delays spread over
/// ~130 µs — the steady-state shape of a saturated device.
fn uniform_workload(mut q: EventQueue<u64>) -> u64 {
    let pending = 512u64;
    for i in 0..pending {
        q.schedule(SimTime::from_nanos(i * 257), i);
    }
    let mut sum = 0u64;
    for next in pending..EVENTS {
        let (t, v) = q.pop().expect("pending set never empties");
        sum = sum.wrapping_add(v);
        q.schedule(t + SimDuration::from_nanos(1 + (v * 7919) % 131_072), next);
    }
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(v);
    }
    sum
}

/// Bursty arrivals: clusters of 64 events within 10 µs separated by
/// 5 ms quiet gaps (burst workloads; exercises the wheel's upper level
/// and far-heap scatter path).
fn bursty_workload(mut q: EventQueue<u64>) -> u64 {
    let mut sum = 0u64;
    let mut base = SimTime::ZERO;
    let mut i = 0u64;
    while i < EVENTS {
        for k in 0..64 {
            q.schedule(base + SimDuration::from_nanos((k * 157) % 10_000), i);
            i += 1;
        }
        // Drain half the burst, keeping a backlog across gaps.
        for _ in 0..32 {
            let (_, v) = q.pop().expect("burst pending");
            sum = sum.wrapping_add(v);
        }
        base += SimDuration::from_micros(5_000);
    }
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(v);
    }
    sum
}

/// Same-instant ties: batches of 128 events at one instant (FIFO
/// tie-break pressure — completions fanning out of one dispatch).
fn ties_workload(mut q: EventQueue<u64>) -> u64 {
    let mut sum = 0u64;
    let mut i = 0u64;
    let mut now = SimTime::ZERO;
    while i < EVENTS {
        for _ in 0..128 {
            q.schedule(now, i);
            i += 1;
        }
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        now += SimDuration::from_nanos(911);
    }
    sum
}

fn bench_queue_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue_shapes");
    g.bench_function("uniform_10k", |b| {
        b.iter(|| black_box(uniform_workload(EventQueue::new())));
    });
    g.bench_function("bursty_10k", |b| {
        b.iter(|| black_box(bursty_workload(EventQueue::new())));
    });
    g.bench_function("ties_10k", |b| {
        b.iter(|| black_box(ties_workload(EventQueue::new())));
    });
    g.finish();
}

fn mk_req(id: u64) -> IoRequest {
    IoRequest::new(
        id,
        AppId(0),
        GroupId(0),
        DeviceId(0),
        IoOp::Read,
        AccessPattern::Random,
        4096,
        id * 4096,
        SimTime::from_nanos(id),
    )
}

/// In-service tracking via `HashMap<ReqId, IoRequest>` — the structure
/// `NvmeDevice` used before the slab: hash + probe per start/complete.
fn hashmap_tracking(outstanding: u64) -> u64 {
    let mut in_service: HashMap<u64, IoRequest> = HashMap::new();
    let mut sum = 0u64;
    for i in 0..EVENTS {
        in_service.insert(i, mk_req(i));
        if i >= outstanding {
            let req = in_service.remove(&(i - outstanding)).expect("tracked");
            sum = sum.wrapping_add(u64::from(req.len));
        }
    }
    for (_, req) in in_service.drain() {
        sum = sum.wrapping_add(u64::from(req.len));
    }
    sum
}

/// In-service tracking via the slab/free-list shape `NvmeDevice` uses
/// now: a fixed arena indexed by service slot, FIFO completion order.
fn slab_tracking(outstanding: u64) -> u64 {
    let n = outstanding as usize;
    let mut slots: Vec<Option<IoRequest>> = (0..n).map(|_| None).collect();
    let mut free: Vec<u32> = (0..n as u32).rev().collect();
    // Completion ring: slot of the i-th started request, retired FIFO.
    let mut ring: Vec<u32> = vec![0; n];
    let mut sum = 0u64;
    for i in 0..EVENTS {
        if i >= outstanding {
            let slot = ring[(i % outstanding) as usize];
            let req = slots[slot as usize].take().expect("tracked");
            free.push(slot);
            sum = sum.wrapping_add(u64::from(req.len));
        }
        let slot = free.pop().expect("arena sized to outstanding");
        slots[slot as usize] = Some(mk_req(i));
        ring[(i % outstanding) as usize] = slot;
    }
    for req in slots.into_iter().flatten() {
        sum = sum.wrapping_add(u64::from(req.len));
    }
    sum
}

fn bench_slab_vs_hashmap(c: &mut Criterion) {
    let mut g = c.benchmark_group("in_service_tracking");
    for outstanding in [64u64, 256] {
        g.bench_function(
            BenchmarkId::new(format!("hashmap_10k_qd{outstanding}"), "hashmap"),
            |b| b.iter(|| black_box(hashmap_tracking(outstanding))),
        );
        g.bench_function(
            BenchmarkId::new(format!("slab_10k_qd{outstanding}"), "slab"),
            |b| b.iter(|| black_box(slab_tracking(outstanding))),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue_sizing,
    bench_queue_shapes,
    bench_slab_vs_hashmap
);
criterion_main!(benches);
