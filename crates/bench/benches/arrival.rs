//! `arrival`: batched vs per-call arrival generation.
//!
//! The engine consumes `(op, pattern, offset)` tuples from an
//! [`ArrivalBatch`] that pregenerates [`BATCH_CHUNK`]-sized chunks via
//! `AddressStream::fill`, instead of calling `next_io` per I/O. The
//! batched path hoists the per-kind dispatch and (for Zipf) the
//! `powf`-based inverse-CDF constants out of the per-sample loop, so
//! the two sides of each pair below measure the same sample sequence —
//! `fill` is sample-identical to repeated `next_io` — at different
//! per-sample cost.
//!
//! Four kinds cover the dispatch arms: sequential (pure pointer walk),
//! uniform random (one RNG draw), mixed (two draws: offset then coin),
//! and Zipf (inverse-CDF with hoisted normalization).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use simcore::DetRng;
use workload::{AddressStream, ArrivalBatch, JobSpec, RwKind};

/// 1 GiB of 4 KiB blocks — large enough that Zipf's hot set and the
/// uniform draws exercise the full index math.
const CAPACITY: u64 = 1 << 30;

fn kinds() -> [(&'static str, RwKind); 4] {
    [
        ("seqread", RwKind::SeqRead),
        ("randread", RwKind::RandRead),
        ("randrw", RwKind::RandRw { read_frac: 0.7 }),
        ("zipfread", RwKind::ZipfRead { theta: 1.1 }),
    ]
}

fn stream(rw: RwKind) -> AddressStream {
    let spec = JobSpec::builder("bench").rw(rw).block_size(4096).build();
    AddressStream::new(&spec, CAPACITY, DetRng::new(0xA221))
}

fn bench_arrival(c: &mut Criterion) {
    let mut g = c.benchmark_group("arrival");
    g.sample_size(50);
    for (name, rw) in kinds() {
        g.bench_function(BenchmarkId::new("percall", name), |b| {
            let mut s = stream(rw);
            b.iter(|| black_box(s.next_io()));
        });
        g.bench_function(BenchmarkId::new("batched", name), |b| {
            let mut s = stream(rw);
            let mut batch = ArrivalBatch::new();
            b.iter(|| black_box(batch.next(&mut s)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_arrival);
criterion_main!(benches);
