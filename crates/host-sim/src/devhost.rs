//! Per-device host-side state: scheduler + QoS chain + the device.

use std::collections::VecDeque;

use blkio::IoRequest;
use ioqos::QosChain;
use iosched_sim::{SchedKind, Scheduler};
use nvme_sim::{NvmeDevice, ServiceSlot};
use simcore::{SimDuration, SimTime};

/// Everything the host keeps per device.
///
/// Timer coalescing: the engine keeps at most one *live* `QosPump` and
/// one *live* `SchedTimer` event per device. `*_at` is the instant of
/// the live event and `*_gen` its generation; whenever an earlier timer
/// is needed, the generation is bumped and a new event scheduled — the
/// superseded event still sits in the queue (it cannot be removed) but
/// carries a stale generation, so the engine drops it on arrival
/// without ticking or pumping.
#[derive(Debug)]
pub(crate) struct DeviceHost {
    pub device: NvmeDevice,
    pub sched: Scheduler,
    pub qos: QosChain,
    /// A request currently traversing the serialized dispatch path.
    pub dispatching: Option<IoRequest>,
    /// Instant of the live QoS pump event (`None` = no pump pending).
    pub qos_pump_at: Option<SimTime>,
    /// Generation of the live QoS pump event.
    pub qos_pump_gen: u64,
    /// Instant of the live scheduler timer (`None` = none pending).
    pub sched_timer_at: Option<SimTime>,
    /// Generation of the live scheduler timer.
    pub sched_timer_gen: u64,
    /// Extra context switches per I/O attributed to the scheduler.
    pub ctx_factor: f64,
    /// Outstanding per-command deadlines `(deadline, slot, slot gen)`,
    /// in deadline order (the timeout is a constant offset from service
    /// start, so FIFO order *is* deadline order — the kernel exploits
    /// the same monotonicity in `blk_mq_timeout_work`). Entries whose
    /// command already left its slot are pruned lazily from the front.
    pub timeouts: VecDeque<(SimTime, ServiceSlot, u64)>,
    /// Instant of the live `IoTimeout` event (`None` = none pending).
    pub timeout_at: Option<SimTime>,
    /// Generation of the live `IoTimeout` event.
    pub timeout_gen: u64,
    /// Requests awaiting their backoff delay before re-entering the
    /// scheduler, as `(due instant, request)` in push order. Due times
    /// can invert across backoff levels, so this is a plain vector
    /// scanned linearly (it holds a handful of entries at most).
    pub retry_queue: Vec<(SimTime, IoRequest)>,
    /// Instant of the live `RetryTimer` event (`None` = none pending).
    pub retry_at: Option<SimTime>,
    /// Generation of the live `RetryTimer` event.
    pub retry_gen: u64,
    /// Period of injected full-device resets (from the fault config).
    pub reset_period: Option<SimDuration>,
    /// How long each injected reset keeps the device offline.
    pub reset_duration: SimDuration,
    /// Host-side error accounting: deadline expirations (aborts fired).
    pub timeouts_fired: u64,
    /// Host-side error accounting: re-driven device attempts.
    pub retries: u64,
    /// Host-side error accounting: requests failed back to their app.
    pub failed: u64,
}

impl DeviceHost {
    pub(crate) fn ctx_factor_for(kind: SchedKind) -> f64 {
        match kind {
            SchedKind::None => 0.0,
            SchedKind::MqDeadline => 0.058,
            SchedKind::Bfq => 0.050,
        }
    }
}
