//! MQ-Deadline with `ioprio` class support.
//!
//! The model captures the behaviours the paper reports (§IV-B, Fig. 2b,
//! Q6): strict class priority (realtime > best-effort > idle) with an
//! anti-starvation *aging* timeout — a lower-class request whose queue age
//! exceeds `prio_aging_expire` is dispatched ahead of higher classes,
//! which is why starved apps still trickle tens-to-hundreds of KiB/s.

use std::collections::VecDeque;

use blkio::{IoRequest, PrioClass};
use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};

/// Tunables of [`MqDeadline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MqDeadlineConfig {
    /// Age after which a lower-priority request is force-dispatched
    /// (kernel `prio_aging_expire`, default 10 s there; shortened here so
    /// short simulations exhibit the same trickle behaviour).
    pub prio_aging_expire: SimDuration,
    /// Serialized dispatch-path cost per request. Calibrated so 4 KiB
    /// random reads plateau near the paper's 1.81 GiB/s (Fig. 4a).
    pub dispatch_overhead: SimDuration,
    /// Extra per-I/O CPU on the submitting core (Fig. 3).
    pub submit_cpu_overhead: SimDuration,
}

impl Default for MqDeadlineConfig {
    fn default() -> Self {
        MqDeadlineConfig {
            prio_aging_expire: SimDuration::from_millis(1_000),
            dispatch_overhead: SimDuration::from_nanos(2_100),
            submit_cpu_overhead: SimDuration::from_nanos(2_600),
        }
    }
}

#[derive(Debug)]
struct Entry {
    req: IoRequest,
    queued_at: SimTime,
}

/// The MQ-Deadline scheduler model.
#[derive(Debug)]
pub struct MqDeadline {
    config: MqDeadlineConfig,
    /// One FIFO per class, indexed by `PrioClass::ALL` order (rt, be, idle).
    queues: [VecDeque<Entry>; 3],
}

fn class_index(p: PrioClass) -> usize {
    match p {
        PrioClass::Realtime => 0,
        PrioClass::BestEffort => 1,
        PrioClass::Idle => 2,
    }
}

impl MqDeadline {
    /// Creates the scheduler.
    #[must_use]
    pub fn new(config: MqDeadlineConfig) -> Self {
        MqDeadline {
            config,
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
        }
    }

    /// Index of the class `dispatch` would serve at `now`, if any.
    fn pick_class(&self, now: SimTime) -> Option<usize> {
        let highest = (0..3).find(|&c| !self.queues[c].is_empty())?;
        // Aging: a starved lower class preempts if its head exceeded the
        // aging deadline.
        for c in (highest + 1)..3 {
            if let Some(head) = self.queues[c].front() {
                if now.saturating_since(head.queued_at) >= self.config.prio_aging_expire {
                    return Some(c);
                }
            }
        }
        Some(highest)
    }

    /// Queues a request.
    pub fn insert(&mut self, req: IoRequest, now: SimTime) {
        let idx = class_index(req.prio);
        self.queues[idx].push_back(Entry {
            req,
            queued_at: now,
        });
    }

    /// Picks the next request to send to the device, or `None` if none
    /// may dispatch right now.
    pub fn dispatch(&mut self, now: SimTime) -> Option<IoRequest> {
        let c = self.pick_class(now)?;
        self.queues[c].pop_front().map(|e| e.req)
    }

    /// `true` if any request is queued.
    pub fn has_pending(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }

    /// The earliest instant at which `dispatch` might newly succeed
    /// while requests are pending.
    pub fn next_timer(&self, now: SimTime) -> Option<SimTime> {
        // dispatch() always succeeds while something is pending, so no
        // retry timer is ever needed; aging only changes *which* request
        // dispatches. (The host keeps dispatching while the device has
        // room.)
        let _ = now;
        None
    }

    /// Serialized per-request dispatch cost.
    pub fn dispatch_overhead(&self) -> SimDuration {
        self.config.dispatch_overhead
    }

    /// Extra per-I/O CPU burned on the submitting core.
    pub fn submit_cpu_overhead(&self) -> SimDuration {
        self.config.submit_cpu_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::req_prio;

    #[test]
    fn strict_class_priority() {
        let mut s = MqDeadline::new(MqDeadlineConfig::default());
        s.insert(
            req_prio(0, 0, PrioClass::Idle, SimTime::ZERO),
            SimTime::ZERO,
        );
        s.insert(
            req_prio(1, 1, PrioClass::BestEffort, SimTime::ZERO),
            SimTime::ZERO,
        );
        s.insert(
            req_prio(2, 2, PrioClass::Realtime, SimTime::ZERO),
            SimTime::ZERO,
        );
        let t = SimTime::from_micros(1);
        assert_eq!(s.dispatch(t).unwrap().id, 2);
        assert_eq!(s.dispatch(t).unwrap().id, 1);
        assert_eq!(s.dispatch(t).unwrap().id, 0);
    }

    #[test]
    fn fifo_within_class() {
        let mut s = MqDeadline::new(MqDeadlineConfig::default());
        for i in 0..4 {
            s.insert(
                req_prio(i, 0, PrioClass::BestEffort, SimTime::ZERO),
                SimTime::ZERO,
            );
        }
        for i in 0..4 {
            assert_eq!(s.dispatch(SimTime::ZERO).unwrap().id, i);
        }
    }

    #[test]
    fn aging_prevents_total_starvation() {
        let cfg = MqDeadlineConfig {
            prio_aging_expire: SimDuration::from_millis(100),
            ..Default::default()
        };
        let mut s = MqDeadline::new(cfg);
        // An idle-class request queued at t=0...
        s.insert(
            req_prio(0, 0, PrioClass::Idle, SimTime::ZERO),
            SimTime::ZERO,
        );
        // ...and a steady stream of realtime requests.
        s.insert(
            req_prio(1, 1, PrioClass::Realtime, SimTime::ZERO),
            SimTime::ZERO,
        );
        assert_eq!(s.dispatch(SimTime::from_millis(1)).unwrap().id, 1);
        s.insert(
            req_prio(2, 1, PrioClass::Realtime, SimTime::from_millis(2)),
            SimTime::from_millis(2),
        );
        // Before the aging deadline the rt class still wins...
        assert_eq!(s.dispatch(SimTime::from_millis(50)).unwrap().id, 2);
        s.insert(
            req_prio(3, 1, PrioClass::Realtime, SimTime::from_millis(60)),
            SimTime::from_millis(60),
        );
        // ...after it, the starved idle request is forced out first.
        assert_eq!(s.dispatch(SimTime::from_millis(150)).unwrap().id, 0);
        assert_eq!(s.dispatch(SimTime::from_millis(150)).unwrap().id, 3);
    }

    #[test]
    fn aging_applies_to_middle_class_too() {
        let cfg = MqDeadlineConfig {
            prio_aging_expire: SimDuration::from_millis(10),
            ..Default::default()
        };
        let mut s = MqDeadline::new(cfg);
        s.insert(
            req_prio(0, 0, PrioClass::BestEffort, SimTime::ZERO),
            SimTime::ZERO,
        );
        s.insert(
            req_prio(1, 1, PrioClass::Realtime, SimTime::from_millis(20)),
            SimTime::from_millis(20),
        );
        // BE head is 20 ms old: aged past 10 ms, wins over rt.
        assert_eq!(s.dispatch(SimTime::from_millis(20)).unwrap().id, 0);
    }

    #[test]
    fn never_needs_timer() {
        let mut s = MqDeadline::new(MqDeadlineConfig::default());
        assert_eq!(s.next_timer(SimTime::ZERO), None);
        s.insert(
            req_prio(0, 0, PrioClass::Idle, SimTime::ZERO),
            SimTime::ZERO,
        );
        assert_eq!(s.next_timer(SimTime::ZERO), None);
        assert!(s.has_pending());
    }
}
