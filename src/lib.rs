//! # isol-bench-repro — facade crate
//!
//! Re-exports every crate of the isol-bench reproduction under one
//! roof, so examples and downstream users can depend on a single crate:
//!
//! * [`bench_suite`] — the isol-bench benchmark suite itself (scenarios,
//!   knobs, desiderata experiments, Table I derivation),
//! * [`host`] — the simulated host machine,
//! * [`cgroup`] — the cgroup-v2 hierarchy and knob grammars,
//! * [`sched`] — none / MQ-Deadline / BFQ scheduler models,
//! * [`qos`] — io.max / io.latency / io.cost controller models,
//! * [`nvme`] — the NVMe SSD device model,
//! * [`workload`] — the fio-like workload generator,
//! * [`stats`] — histograms, Jain's index, bandwidth series, tables,
//! * [`simcore`] / [`blkio`] — the simulation core and shared I/O types.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and the
//! `figures` binary (`cargo run --release -p isol-bench-harness --bin
//! figures`) to regenerate every table and figure of the paper.

pub use blkio;
pub use cgroup_sim as cgroup;
pub use host_sim as host;
pub use ioqos as qos;
pub use iosched_sim as sched;
pub use iostats as stats;
pub use isol_bench as bench_suite;
pub use nvme_sim as nvme;
pub use simcore;
pub use workload;
