//! Scheduler `none`: the NVMe default pass-through FIFO.

use std::collections::VecDeque;

use blkio::IoRequest;
use simcore::{SimDuration, SimTime};

/// The `none` "scheduler": requests dispatch in arrival order with almost
/// no added cost. This is the paper's baseline configuration.
#[derive(Debug, Default)]
pub struct Noop {
    queue: VecDeque<IoRequest>,
}

impl Noop {
    /// Creates an empty FIFO.
    #[must_use]
    pub fn new() -> Self {
        Noop::default()
    }

    /// Queues a request.
    pub fn insert(&mut self, req: IoRequest, _now: SimTime) {
        self.queue.push_back(req);
    }

    /// Picks the next request to send to the device, or `None` if none
    /// may dispatch right now.
    pub fn dispatch(&mut self, _now: SimTime) -> Option<IoRequest> {
        self.queue.pop_front()
    }

    /// `true` if any request is queued.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }

    /// The earliest instant at which `dispatch` might newly succeed
    /// while requests are pending.
    pub fn next_timer(&self, _now: SimTime) -> Option<SimTime> {
        None
    }

    /// Serialized per-request dispatch cost.
    pub fn dispatch_overhead(&self) -> SimDuration {
        // The hardware dispatch path without an elevator: ~0.1 µs.
        SimDuration::from_nanos(100)
    }

    /// Extra per-I/O CPU burned on the submitting core.
    pub fn submit_cpu_overhead(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::req;

    #[test]
    fn fifo_order() {
        let mut s = Noop::new();
        for i in 0..5 {
            s.insert(req(i, 0, 4096, SimTime::ZERO), SimTime::ZERO);
        }
        for i in 0..5 {
            assert_eq!(s.dispatch(SimTime::ZERO).unwrap().id, i);
        }
        assert!(s.dispatch(SimTime::ZERO).is_none());
    }

    #[test]
    fn pending_tracks_queue() {
        let mut s = Noop::new();
        assert!(!s.has_pending());
        s.insert(req(0, 0, 4096, SimTime::ZERO), SimTime::ZERO);
        assert!(s.has_pending());
        s.dispatch(SimTime::ZERO);
        assert!(!s.has_pending());
    }

    #[test]
    fn never_times() {
        let mut s = Noop::new();
        s.insert(req(0, 0, 4096, SimTime::ZERO), SimTime::ZERO);
        assert_eq!(s.next_timer(SimTime::ZERO), None);
    }
}
