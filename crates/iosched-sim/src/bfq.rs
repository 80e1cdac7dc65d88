//! BFQ: budget fair queueing with hierarchical weights and `slice_idle`.
//!
//! The model implements the mechanisms behind the paper's BFQ findings:
//!
//! * **weight-proportional service** — each cgroup has an absolute weight
//!   (`io.bfq.weight`, 1–1000, default 100); service is allotted by
//!   virtual time so long-run bandwidth shares follow relative weights
//!   (Fig. 2c/d, Q4),
//! * **slices with budgets** — the in-service group keeps the device
//!   until its byte budget is spent, then the group with the smallest
//!   virtual time is picked,
//! * **`slice_idle`** — when the in-service group's queue runs dry, BFQ
//!   *idles the device* for up to `slice_idle`, refusing to serve other
//!   groups, betting the group will send more I/O. This preserves
//!   weights for seeky workloads but wastes device time: it is the root
//!   cause of BFQ's low utilization and unstable bandwidth (O2, O6).
//!
//! `low_latency` is modelled as disabled, matching the paper's setup
//! (§III disables it because it re-prioritizes dynamically).
//!
//! **Backlog index.** Like the kernel's B-WF2Q+ (`bfq-wf2q.c`), which
//! keeps backlogged entities in vtime-ordered rb-trees and takes the
//! in-service one out, the model keeps an ordered set of
//! `(vtime, GroupId)` keys. Invariant: a group is in the set exactly
//! when its queue is non-empty and it is not in service, keyed by its
//! current `vtime` (only the in-service group is served, so no other
//! key goes stale). `insert` adds a group whose queue goes from empty
//! to non-empty (after the catch-up to the global vtime), a new slice
//! takes its group out, and an expired slice puts a still-backlogged
//! group back. Picking the next group, `has_pending` and the idle timer
//! then cost O(log backlogged) instead of a walk over every configured
//! group, a dispatch inside a slice touches no index at all, and the
//! set's order is the scan's order: smallest vtime, ties to the lowest
//! `GroupId`.

use std::collections::{BTreeSet, HashMap};

use blkio::{AccessPattern, GroupId, IoRequest};
use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};

/// Tunables of [`Bfq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BfqConfig {
    /// Device idling time waiting for the in-service queue to refill
    /// (kernel default 8 ms). Zero disables idling — the configuration
    /// the paper uses for the pure-overhead experiments (§V).
    pub slice_idle: SimDuration,
    /// Byte budget a group may consume before its slice expires.
    pub budget_bytes: u64,
    /// Wall-clock cap on one slice (kernel `bfq_timeout`, ~125 ms); an
    /// idling sync queue cannot hold the device longer than this.
    pub slice_timeout: SimDuration,
    /// Serialized dispatch-path cost per request; calibrated so 4 KiB
    /// random reads plateau near the paper's 0.69 GiB/s (Fig. 4a).
    pub dispatch_overhead: SimDuration,
    /// Extra per-I/O CPU on the submitting core (Fig. 3: BFQ saturates a
    /// core with only 8 LC-apps).
    pub submit_cpu_overhead: SimDuration,
}

impl Default for BfqConfig {
    fn default() -> Self {
        BfqConfig {
            slice_idle: SimDuration::from_millis(8),
            budget_bytes: 2 * 1024 * 1024,
            slice_timeout: SimDuration::from_millis(125),
            dispatch_overhead: SimDuration::from_nanos(5_500),
            submit_cpu_overhead: SimDuration::from_nanos(6_200),
        }
    }
}

#[derive(Debug, Default)]
struct GroupState {
    queue: std::collections::VecDeque<IoRequest>,
    weight: u32,
    vtime: f64,
    slice_consumed: u64,
}

/// Order-preserving `u64` encoding of a vtime: `a.total_cmp(&b)` and
/// `vtime_key(a).cmp(&vtime_key(b))` always agree.
fn vtime_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// The BFQ scheduler model.
#[derive(Debug)]
pub struct Bfq {
    config: BfqConfig,
    groups: HashMap<GroupId, GroupState>,
    /// `(vtime_key(vtime), id)` of every group with a non-empty queue,
    /// except the in-service one.
    backlog: BTreeSet<(u64, GroupId)>,
    in_service: Option<GroupId>,
    idle_until: Option<SimTime>,
    slice_started: SimTime,
    global_vtime: f64,
}

impl Bfq {
    /// Creates the scheduler.
    #[must_use]
    pub fn new(config: BfqConfig) -> Self {
        Bfq {
            config,
            groups: HashMap::new(),
            backlog: BTreeSet::new(),
            in_service: None,
            idle_until: None,
            slice_started: SimTime::ZERO,
            global_vtime: 0.0,
        }
    }

    fn group_mut(&mut self, id: GroupId) -> &mut GroupState {
        self.groups.entry(id).or_insert_with(|| GroupState {
            weight: 100,
            ..GroupState::default()
        })
    }

    fn serve_from(&mut self, id: GroupId, now: SimTime) -> Option<IoRequest> {
        let slice_idle = self.config.slice_idle;
        let g = self.groups.get_mut(&id)?;
        let req = g.queue.pop_front()?;
        g.vtime += f64::from(req.len) / f64::from(g.weight.max(1));
        g.slice_consumed += u64::from(req.len);
        // Idling is only worthwhile for sequential (non-seeky) queues:
        // BFQ disables it for seeky ones, which is why it cannot protect
        // a random-read LC app (Fig. 7e) yet wastes utilization on
        // sequential tenants.
        if g.queue.is_empty() && !slice_idle.is_zero() && req.pattern == AccessPattern::Sequential {
            // Bet on more I/O from this group: idle the device.
            self.idle_until = Some(now + slice_idle);
        } else {
            self.idle_until = None;
        }
        Some(req)
    }

    /// Queues a request.
    pub fn insert(&mut self, req: IoRequest, _now: SimTime) {
        let global_v = self.global_vtime;
        let group = req.group;
        let g = self.group_mut(group);
        let was_idle = g.queue.is_empty();
        if was_idle {
            // Catch up: an idle group must not bank virtual time.
            g.vtime = g.vtime.max(global_v);
        }
        let key = (vtime_key(g.vtime), group);
        g.queue.push_back(req);
        if self.in_service == Some(group) {
            // The awaited request arrived: stop idling and resume service.
            self.idle_until = None;
        } else if was_idle {
            self.backlog.insert(key);
        }
    }

    /// Picks the next request to send to the device, or `None` if none
    /// may dispatch right now.
    pub fn dispatch(&mut self, now: SimTime) -> Option<IoRequest> {
        if let Some(current) = self.in_service {
            let (has_work, budget_spent) = {
                let g = self.groups.get(&current)?;
                (
                    !g.queue.is_empty(),
                    g.slice_consumed >= self.config.budget_bytes,
                )
            };
            let timed_out = now.saturating_since(self.slice_started) >= self.config.slice_timeout;
            if has_work && !budget_spent && !timed_out {
                return self.serve_from(current, now);
            }
            if timed_out {
                self.in_service = None;
                self.idle_until = None;
            }
            if !has_work {
                if let Some(idle_until) = self.idle_until {
                    if now < idle_until {
                        // slice_idle: the device stays idle even though
                        // other groups may have pending requests.
                        return None;
                    }
                }
            }
            // Slice expired (budget or idle timeout): release the device.
            self.in_service = None;
            self.idle_until = None;
            if has_work {
                let vtime = self.groups[&current].vtime;
                self.backlog.insert((vtime_key(vtime), current));
            }
        }
        let (_, next) = self.backlog.pop_first()?;
        self.global_vtime = self.global_vtime.max(self.groups[&next].vtime);
        self.in_service = Some(next);
        self.slice_started = now;
        self.group_mut(next).slice_consumed = 0;
        self.serve_from(next, now)
    }

    /// `true` if any request is queued.
    pub fn has_pending(&self) -> bool {
        !self.backlog.is_empty()
            || self
                .in_service
                .is_some_and(|id| !self.groups[&id].queue.is_empty())
    }

    /// The earliest instant at which `dispatch` might newly succeed
    /// while requests are pending.
    pub fn next_timer(&self, now: SimTime) -> Option<SimTime> {
        match (self.in_service, self.idle_until) {
            // A timer is only useful if someone else is waiting.
            (Some(_), Some(t)) if now < t => (!self.backlog.is_empty()).then_some(t),
            _ => None,
        }
    }

    /// Serialized per-request dispatch cost.
    pub fn dispatch_overhead(&self) -> SimDuration {
        self.config.dispatch_overhead
    }

    /// Extra per-I/O CPU burned on the submitting core.
    pub fn submit_cpu_overhead(&self) -> SimDuration {
        self.config.submit_cpu_overhead
    }

    /// Updates a cgroup's `io.bfq.weight`, clamped to BFQ's 1–1000 range.
    pub fn set_group_weight(&mut self, group: GroupId, weight: u32) {
        self.group_mut(group).weight = weight.clamp(1, 1_000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{req, seq_req};
    use proptest::prelude::*;
    use proptest::TestRng;

    /// Reference model: BFQ that finds the next group, pending work and
    /// waiting groups by scanning every configured group. Dispatch logic
    /// is otherwise `Bfq`'s; the backlog index must never change a
    /// decision it makes.
    struct ScanBfq {
        config: BfqConfig,
        groups: HashMap<GroupId, GroupState>,
        in_service: Option<GroupId>,
        idle_until: Option<SimTime>,
        slice_started: SimTime,
        global_vtime: f64,
    }

    impl ScanBfq {
        fn new(config: BfqConfig) -> Self {
            ScanBfq {
                config,
                groups: HashMap::new(),
                in_service: None,
                idle_until: None,
                slice_started: SimTime::ZERO,
                global_vtime: 0.0,
            }
        }

        fn group_mut(&mut self, id: GroupId) -> &mut GroupState {
            self.groups.entry(id).or_insert_with(|| GroupState {
                weight: 100,
                ..GroupState::default()
            })
        }

        fn pick_next(&self) -> Option<GroupId> {
            self.groups
                .iter()
                .filter(|(_, g)| !g.queue.is_empty())
                .min_by(|(ia, a), (ib, b)| a.vtime.total_cmp(&b.vtime).then_with(|| ia.cmp(ib)))
                .map(|(&id, _)| id)
        }

        fn serve_from(&mut self, id: GroupId, now: SimTime) -> Option<IoRequest> {
            let slice_idle = self.config.slice_idle;
            let g = self.groups.get_mut(&id)?;
            let req = g.queue.pop_front()?;
            g.vtime += f64::from(req.len) / f64::from(g.weight.max(1));
            g.slice_consumed += u64::from(req.len);
            if g.queue.is_empty()
                && !slice_idle.is_zero()
                && req.pattern == AccessPattern::Sequential
            {
                self.idle_until = Some(now + slice_idle);
            } else {
                self.idle_until = None;
            }
            Some(req)
        }

        fn insert(&mut self, req: IoRequest) {
            let global_v = self.global_vtime;
            let in_service = self.in_service;
            let g = self.group_mut(req.group);
            if g.queue.is_empty() {
                g.vtime = g.vtime.max(global_v);
            }
            let group = req.group;
            g.queue.push_back(req);
            if in_service == Some(group) {
                self.idle_until = None;
            }
        }

        fn dispatch(&mut self, now: SimTime) -> Option<IoRequest> {
            if let Some(current) = self.in_service {
                let g = self.groups.get(&current)?;
                let has_work = !g.queue.is_empty();
                let budget_spent = g.slice_consumed >= self.config.budget_bytes;
                let timed_out =
                    now.saturating_since(self.slice_started) >= self.config.slice_timeout;
                if has_work && !budget_spent && !timed_out {
                    return self.serve_from(current, now);
                }
                if timed_out {
                    self.in_service = None;
                    self.idle_until = None;
                }
                if !has_work && self.idle_until.is_some_and(|t| now < t) {
                    return None;
                }
                self.in_service = None;
                self.idle_until = None;
            }
            let next = self.pick_next()?;
            self.global_vtime = self.global_vtime.max(self.groups[&next].vtime);
            self.in_service = Some(next);
            self.slice_started = now;
            self.group_mut(next).slice_consumed = 0;
            self.serve_from(next, now)
        }

        fn has_pending(&self) -> bool {
            self.groups.values().any(|g| !g.queue.is_empty())
        }

        fn next_timer(&self, now: SimTime) -> Option<SimTime> {
            match (self.in_service, self.idle_until) {
                (Some(current), Some(t)) if now < t => {
                    let others_pending = self
                        .groups
                        .iter()
                        .any(|(&id, g)| id != current && !g.queue.is_empty());
                    others_pending.then_some(t)
                }
                _ => None,
            }
        }

        fn set_group_weight(&mut self, group: GroupId, weight: u32) {
            self.group_mut(group).weight = weight.clamp(1, 1_000);
        }
    }

    /// Rebuilds the backlog index from the group table.
    fn expected_backlog(s: &Bfq) -> BTreeSet<(u64, GroupId)> {
        s.groups
            .iter()
            .filter(|&(&id, g)| !g.queue.is_empty() && s.in_service != Some(id))
            .map(|(&id, g)| (vtime_key(g.vtime), id))
            .collect()
    }

    #[test]
    fn vtime_key_orders_like_total_cmp() {
        let vs = [
            f64::NEG_INFINITY,
            -1.0e300,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            4096.0 / 7.0,
            1.0e300,
            f64::INFINITY,
        ];
        for a in vs {
            for b in vs {
                assert_eq!(
                    vtime_key(a).cmp(&vtime_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn equal_vtime_goes_to_the_lowest_group_id() {
        let mut s = Bfq::new(no_idle_config());
        for (id, group) in [(0, 7), (1, 3), (2, 5)] {
            s.insert(req(id, group, 4096, SimTime::ZERO), SimTime::ZERO);
        }
        let order: Vec<usize> = (0..3)
            .map(|_| s.dispatch(SimTime::ZERO).unwrap().group.index())
            .collect();
        assert_eq!(order, [3, 5, 7]);
        assert!(!s.has_pending());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn backlog_index_matches_the_scan_model(
            groups in prop_oneof![1usize..=8, 9usize..=5000],
            seed in 0u64..=u64::MAX,
            idle in proptest::bool::ANY,
            budget in prop_oneof![Just(8192u64), Just(64 * 1024), Just(2 * 1024 * 1024)],
            timeout_ms in prop_oneof![Just(1u64), Just(10), Just(125)],
            steps in 200usize..1500,
        ) {
            let config = BfqConfig {
                slice_idle: SimDuration::from_millis(if idle { 8 } else { 0 }),
                budget_bytes: budget,
                slice_timeout: SimDuration::from_millis(timeout_ms),
                ..BfqConfig::default()
            };
            let mut fast = Bfq::new(config);
            let mut scan = ScanBfq::new(config);
            let mut rng = TestRng::from_seed(seed);
            // Most groups get an explicit weight; the rest keep the default.
            for g in 1..=groups {
                if rng.below(8) != 0 {
                    let w = 1 + rng.below(1000) as u32;
                    fast.set_group_weight(GroupId(g), w);
                    scan.set_group_weight(GroupId(g), w);
                }
            }
            // A small hot set carries most arrivals, like a fleet where
            // ~10 % of tenants are active at once.
            let hot = 1 + groups / 10;
            let mut now = SimTime::ZERO;
            for id in 0..steps as u64 {
                now += SimDuration::from_micros(rng.below(3000));
                if rng.below(3) != 0 {
                    let pool = if rng.below(4) == 0 { groups } else { hot };
                    let group = rng.below(pool as u64) as usize + 1;
                    let len = [512u32, 4096, 65536, 1 << 20][rng.below(4) as usize];
                    let r = if rng.below(2) == 0 {
                        seq_req(id, group, len, now)
                    } else {
                        req(id, group, len, now)
                    };
                    fast.insert(r.clone(), now);
                    scan.insert(r);
                } else {
                    let got = fast.dispatch(now).map(|r| r.id);
                    let want = scan.dispatch(now).map(|r| r.id);
                    prop_assert_eq!(got, want, "dispatch at step {}", id);
                }
                if rng.below(50) == 0 {
                    let g = GroupId(1 + rng.below(groups as u64) as usize);
                    let w = 1 + rng.below(1000) as u32;
                    fast.set_group_weight(g, w);
                    scan.set_group_weight(g, w);
                }
                prop_assert_eq!(fast.has_pending(), scan.has_pending(), "pending at step {}", id);
                prop_assert_eq!(fast.next_timer(now), scan.next_timer(now), "timer at step {}", id);
                if groups <= 64 {
                    prop_assert_eq!(&fast.backlog, &expected_backlog(&fast));
                }
            }
            // Drain: every queued request leaves in the same order.
            while scan.has_pending() {
                now += SimDuration::from_millis(1);
                let got = fast.dispatch(now).map(|r| r.id);
                let want = scan.dispatch(now).map(|r| r.id);
                prop_assert_eq!(got, want, "drain dispatch");
            }
            prop_assert!(!fast.has_pending());
        }
    }

    fn no_idle_config() -> BfqConfig {
        BfqConfig {
            slice_idle: SimDuration::ZERO,
            budget_bytes: 64 * 1024,
            ..BfqConfig::default()
        }
    }

    /// Keep both groups backlogged; measure dispatched byte share.
    fn share_ratio(weight_a: u32, weight_b: u32, rounds: usize) -> f64 {
        let mut s = Bfq::new(no_idle_config());
        s.set_group_weight(GroupId(1), weight_a);
        s.set_group_weight(GroupId(2), weight_b);
        let mut id = 0;
        let mut bytes = [0u64; 2];
        // Pre-fill.
        for _ in 0..8 {
            for g in [1usize, 2] {
                s.insert(req(id, g, 65536, SimTime::ZERO), SimTime::ZERO);
                id += 1;
            }
        }
        for i in 0..rounds {
            let now = SimTime::from_micros(i as u64);
            let r = s.dispatch(now).expect("backlogged");
            bytes[r.group.index() - 1] += u64::from(r.len);
            // Refill the group we just served.
            s.insert(req(id, r.group.index(), 65536, now), now);
            id += 1;
        }
        bytes[0] as f64 / bytes[1] as f64
    }

    #[test]
    fn equal_weights_share_equally() {
        let ratio = share_ratio(100, 100, 2000);
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn service_follows_weights() {
        let ratio = share_ratio(300, 100, 3000);
        assert!((2.6..3.4).contains(&ratio), "ratio {ratio}");
        let ratio = share_ratio(1000, 1, 3000);
        assert!(ratio > 50.0, "extreme weights should dominate, got {ratio}");
    }

    #[test]
    fn slice_idle_blocks_other_groups() {
        let mut s = Bfq::new(BfqConfig::default());
        s.insert(seq_req(0, 1, 4096, SimTime::ZERO), SimTime::ZERO);
        s.insert(seq_req(1, 2, 4096, SimTime::ZERO), SimTime::ZERO);
        // Serve group 1's only request → queue empty → idling starts.
        let r = s.dispatch(SimTime::ZERO).unwrap();
        assert_eq!(r.group, GroupId(1));
        // Group 2 is pending, but BFQ idles the device.
        let t1 = SimTime::from_millis(1);
        assert!(s.dispatch(t1).is_none());
        assert!(s.has_pending());
        let timer = s.next_timer(t1).expect("idle timer");
        assert_eq!(timer, SimTime::ZERO + SimDuration::from_millis(8));
        // After idle expiry, group 2 finally dispatches.
        let t2 = SimTime::from_millis(9);
        assert_eq!(s.dispatch(t2).unwrap().group, GroupId(2));
    }

    #[test]
    fn arrival_from_in_service_group_cancels_idle() {
        let mut s = Bfq::new(BfqConfig::default());
        s.insert(seq_req(0, 1, 4096, SimTime::ZERO), SimTime::ZERO);
        s.insert(seq_req(1, 2, 4096, SimTime::ZERO), SimTime::ZERO);
        s.dispatch(SimTime::ZERO).unwrap(); // group 1, starts idling
                                            // The awaited request arrives: service continues in group 1.
        s.insert(
            seq_req(2, 1, 4096, SimTime::from_millis(1)),
            SimTime::from_millis(1),
        );
        let r = s.dispatch(SimTime::from_millis(1)).unwrap();
        assert_eq!(r.group, GroupId(1));
    }

    #[test]
    fn seeky_queues_do_not_idle() {
        // Random (seeky) requests: the slice ends when the queue drains,
        // so the other group dispatches immediately.
        let mut s = Bfq::new(BfqConfig::default());
        s.insert(req(0, 1, 4096, SimTime::ZERO), SimTime::ZERO);
        s.insert(req(1, 2, 4096, SimTime::ZERO), SimTime::ZERO);
        assert_eq!(s.dispatch(SimTime::ZERO).unwrap().group, GroupId(1));
        assert_eq!(s.dispatch(SimTime::ZERO).unwrap().group, GroupId(2));
    }

    #[test]
    fn slice_timeout_rotates_even_a_backlogged_group() {
        let cfg = BfqConfig {
            slice_idle: SimDuration::ZERO,
            budget_bytes: u64::MAX, // only the timeout can expire a slice
            slice_timeout: SimDuration::from_millis(10),
            ..BfqConfig::default()
        };
        let mut s = Bfq::new(cfg);
        for i in 0..4 {
            s.insert(req(i, 1, 4096, SimTime::ZERO), SimTime::ZERO);
            s.insert(req(10 + i, 2, 4096, SimTime::ZERO), SimTime::ZERO);
        }
        // Group 1 holds the slice before the timeout...
        assert_eq!(s.dispatch(SimTime::ZERO).unwrap().group, GroupId(1));
        assert_eq!(
            s.dispatch(SimTime::from_millis(5)).unwrap().group,
            GroupId(1)
        );
        // ...after 10 ms the slice expires and vtime picks group 2.
        assert_eq!(
            s.dispatch(SimTime::from_millis(11)).unwrap().group,
            GroupId(2)
        );
    }

    #[test]
    fn zero_slice_idle_never_idles() {
        let mut s = Bfq::new(no_idle_config());
        s.insert(req(0, 1, 4096, SimTime::ZERO), SimTime::ZERO);
        s.insert(req(1, 2, 4096, SimTime::ZERO), SimTime::ZERO);
        assert!(s.dispatch(SimTime::ZERO).is_some());
        assert!(s.dispatch(SimTime::ZERO).is_some());
        assert!(!s.has_pending());
    }

    #[test]
    fn budget_expiry_rotates_groups() {
        let cfg = BfqConfig {
            slice_idle: SimDuration::ZERO,
            budget_bytes: 8192, // two 4 KiB requests per slice
            ..BfqConfig::default()
        };
        let mut s = Bfq::new(cfg);
        for i in 0..4 {
            s.insert(req(i, 1, 4096, SimTime::ZERO), SimTime::ZERO);
            s.insert(req(i + 10, 2, 4096, SimTime::ZERO), SimTime::ZERO);
        }
        let order: Vec<usize> = (0..6)
            .map(|_| s.dispatch(SimTime::ZERO).unwrap().group.index())
            .collect();
        // Two from one group, then the slice expires and the other runs.
        assert_eq!(&order[..2], &[order[0], order[0]]);
        assert_ne!(order[2], order[0]);
    }

    #[test]
    fn idle_group_does_not_bank_vtime() {
        let mut s = Bfq::new(no_idle_config());
        // Group 1 works alone for a while, accruing vtime.
        let mut id = 0;
        for _ in 0..64 {
            s.insert(req(id, 1, 65536, SimTime::ZERO), SimTime::ZERO);
            id += 1;
            s.dispatch(SimTime::ZERO).unwrap();
        }
        // Group 2 wakes up; it must not monopolize service to "catch up".
        let mut counts = [0usize; 2];
        for _ in 0..16 {
            s.insert(req(id, 1, 65536, SimTime::ZERO), SimTime::ZERO);
            id += 1;
            s.insert(req(id, 2, 65536, SimTime::ZERO), SimTime::ZERO);
            id += 1;
        }
        for _ in 0..16 {
            let r = s.dispatch(SimTime::ZERO).unwrap();
            counts[r.group.index() - 1] += 1;
        }
        assert!(counts[0] >= 4, "old group starved: {counts:?}");
    }

    #[test]
    fn weight_is_clamped_to_bfq_range() {
        let mut s = Bfq::new(no_idle_config());
        s.set_group_weight(GroupId(1), 5_000);
        assert_eq!(s.groups[&GroupId(1)].weight, 1_000);
        s.set_group_weight(GroupId(1), 0);
        assert_eq!(s.groups[&GroupId(1)].weight, 1);
    }
}
