//! Sharded execution of a single scenario: per-device parallelism with
//! bit-exact results for any shard count.
//!
//! # Ownership map
//!
//! The machine is partitioned into *components*: connected components of
//! the coupling graph whose nodes are devices and cores, with an edge
//! from every app to its core and to each of its devices. Everything an
//! event handler can touch — the app, its core's FIFO, the device host
//! with its scheduler and QoS chain — stays inside one component, so a
//! component's event stream is completely independent of the others.
//! Apps spanning multiple devices, or sharing a core, merge the
//! components they touch; the per-device vtime/QoS state never crosses a
//! component boundary (see [`ioqos::QosChain::held_requests`]). Cores no
//! app maps to belong to no component and are reported with zero
//! utilization.
//!
//! # Execution
//!
//! [`HostSim::build`] runs unchanged (every RNG stream is forked from
//! global app/device indices), then [`HostSim::run_sharded`] splits the
//! built machine into per-component engines with local dense indices and
//! fresh event queues. Components are packed onto at most `shards`
//! workers (longest-processing-time-first on an iodepth-based load
//! estimate) and free-run to `until` on scoped threads.
//!
//! # Window/barrier protocol and the determinism argument
//!
//! A component-local run is an exact restriction of the sequential global
//! run: the initial inserts preserve the global seed order, and
//! inductively every pop inserts the same children at the same times, so
//! the component's sub-sequence of the global `(time, seq)` FIFO order is
//! reproduced verbatim. Untraced runs therefore need no synchronization
//! at all — only report merging.
//!
//! Traced runs must also reproduce the *interleaving* (trace bytes are
//! the golden artifact). Each worker attaches a [`JournalSink`]: per pop
//! it records the pop time, the insert times of scheduled children, the
//! request-ids allocated, and the trace events emitted (captured by an
//! unbounded thread-local recorder). Records are flushed to the
//! coordinator mailbox in epoch batches once the shard's clock advances
//! past a conservative lookahead window — the minimum median command
//! latency of the shard's devices (service-time lower bound; fault
//! spikes and GC only add latency) — with each batch committing a time
//! horizon that all later records must respect. The coordinator replays
//! the global order from the journals: it seeds the merged init inserts,
//! repeatedly pops the earliest `(time, seq, component)` entry, consumes
//! that component's next record, reallocates global request-ids in pop
//! order, rewrites each trace event's local device/request ids to the
//! global ones, and re-emits it into the caller's recorder — inheriting
//! capacity, eviction, and fault-injection semantics. Children insert
//! with fresh global sequence numbers, reproducing FIFO tie-breaks. The
//! result is byte-identical to the sequential trace for any shard count,
//! and `shards = 1` short-circuits to [`HostSim::run`] itself.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Mutex;

use blkio::{AppId, CoreId, DeviceId};
use simcore::trace::{self, TraceEvent, TraceKind};
use simcore::{SimDuration, SimTime};

use crate::engine::HostSim;
use crate::report::{CoreReport, RunReport};

/// Journal records per mailbox batch before an early flush.
const MAX_BATCH: usize = 4096;

/// One handled event in a shard's journal: everything the coordinator
/// needs to replay it in the global order.
#[derive(Debug)]
struct PopRecord {
    /// Pop time (must match the replayed global pop).
    t: SimTime,
    /// Insert times of events scheduled while handling this one, in
    /// schedule order.
    children: Vec<SimTime>,
    /// Trace events emitted while handling this one (local ids).
    events: Vec<TraceEvent>,
    /// Request-ids allocated while handling this one.
    n_alloc: u32,
}

/// One initial insert from [`HostSim::seed_initial_events`], positioned
/// by (class, index, ordinal) so the coordinator can interleave every
/// component's seeds in the exact global order.
#[derive(Debug)]
struct InitInsert {
    /// 0 = per-app wake, 1 = per-device seed (pump/reset).
    class: u8,
    /// Local app/device index (the coordinator maps it to global).
    local_idx: u32,
    /// Position within the slot (a device can seed up to two events).
    ordinal: u32,
    at: SimTime,
}

#[derive(Debug)]
enum ShardMsg {
    /// The shard's initial inserts, sent once before any batch.
    Init(Vec<InitInsert>),
    Batch(Batch),
}

#[derive(Debug)]
struct Batch {
    records: Vec<PopRecord>,
    /// Every record in a *later* batch has `t >=` this commitment;
    /// `None` marks the shard's final batch.
    horizon: Option<SimTime>,
}

/// The engine-side end of a shard's journal: buffers per-pop records and
/// flushes them to the coordinator in epoch batches (see module docs).
#[derive(Debug)]
pub(crate) struct JournalSink {
    tx: mpsc::Sender<ShardMsg>,
    /// Lookahead window: a batch flushes once the shard clock has
    /// advanced this far past the batch's first record.
    window: SimDuration,
    init: Vec<InitInsert>,
    init_slot: Option<(u8, u32)>,
    init_ordinal: u32,
    init_sent: bool,
    pending: Vec<PopRecord>,
    batch_start: SimTime,
    cur: Option<PopRecord>,
}

impl JournalSink {
    fn new(tx: mpsc::Sender<ShardMsg>, window: SimDuration) -> Self {
        JournalSink {
            tx,
            window,
            init: Vec::new(),
            init_slot: None,
            init_ordinal: 0,
            init_sent: false,
            pending: Vec::new(),
            batch_start: SimTime::ZERO,
            cur: None,
        }
    }

    /// Subsequent seed inserts belong to local app `i`.
    pub(crate) fn mark_app(&mut self, i: usize) {
        self.init_slot = Some((0, i as u32));
        self.init_ordinal = 0;
    }

    /// Subsequent seed inserts belong to local device `d`.
    pub(crate) fn mark_dev(&mut self, d: usize) {
        self.init_slot = Some((1, d as u32));
        self.init_ordinal = 0;
    }

    /// Journals one event insert (a seed insert before the first pop, a
    /// child of the current pop afterwards).
    pub(crate) fn child(&mut self, at: SimTime) {
        if let Some(rec) = self.cur.as_mut() {
            rec.children.push(at);
        } else {
            let (class, local_idx) = self.init_slot.expect("seed insert before mark");
            self.init.push(InitInsert {
                class,
                local_idx,
                ordinal: self.init_ordinal,
                at,
            });
            self.init_ordinal += 1;
        }
    }

    /// Opens the record for the pop at `t`, flushing the pending batch
    /// when the lookahead window has elapsed (the flush commits `t` as
    /// the horizon: this shard will never journal an earlier record).
    pub(crate) fn begin_pop(&mut self, t: SimTime) {
        self.ensure_init_sent();
        if !self.pending.is_empty()
            && (self.pending.len() >= MAX_BATCH
                || t.saturating_since(self.batch_start) >= self.window)
        {
            let records = std::mem::take(&mut self.pending);
            let _ = self.tx.send(ShardMsg::Batch(Batch {
                records,
                horizon: Some(t),
            }));
        }
        self.cur = Some(PopRecord {
            t,
            children: Vec::new(),
            events: Vec::new(),
            n_alloc: 0,
        });
    }

    /// Closes the current pop's record.
    pub(crate) fn finish_pop(&mut self, n_alloc: u32, events: Vec<TraceEvent>) {
        let mut rec = self.cur.take().expect("finish_pop without begin_pop");
        rec.n_alloc = n_alloc;
        rec.events = events;
        if self.pending.is_empty() {
            self.batch_start = rec.t;
        }
        self.pending.push(rec);
    }

    /// Flushes everything left; consuming the sink marks the stream done.
    fn close(mut self) {
        self.ensure_init_sent();
        let records = std::mem::take(&mut self.pending);
        let _ = self.tx.send(ShardMsg::Batch(Batch {
            records,
            horizon: None,
        }));
    }

    fn ensure_init_sent(&mut self) {
        if !self.init_sent {
            self.init_sent = true;
            let _ = self.tx.send(ShardMsg::Init(std::mem::take(&mut self.init)));
        }
    }
}

/// One connected component of the coupling graph, in global indices
/// (each list sorted ascending; components ordered by first device).
#[derive(Debug)]
struct Component {
    devs: Vec<usize>,
    cores: Vec<usize>,
    apps: Vec<usize>,
    /// Load estimate for worker packing: Σ app iodepth + devices.
    load: u64,
}

/// Union-find with path halving (no ranks: the graphs are tiny).
struct Dsu(Vec<usize>);

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu((0..n).collect())
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] != x {
            self.0[x] = self.0[self.0[x]];
            x = self.0[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.0[hi] = lo;
        }
    }
}

/// Partitions the built machine into independent components.
fn plan_components(sim: &HostSim) -> Vec<Component> {
    let n_devs = sim.devs.len();
    let n_cores = sim.cores.len();
    // Nodes: devices 0..n_devs, cores n_devs..n_devs+n_cores.
    let mut dsu = Dsu::new(n_devs + n_cores);
    for app in &sim.apps {
        let anchor = app.devices[0].index();
        dsu.union(anchor, n_devs + app.core.index());
        for d in &app.devices[1..] {
            dsu.union(anchor, d.index());
        }
    }
    // Components in order of first device; every device belongs to one
    // (solo devices still pump QoS and take injected resets).
    let mut comp_of_root = vec![usize::MAX; n_devs + n_cores];
    let mut comps: Vec<Component> = Vec::new();
    for d in 0..n_devs {
        let root = dsu.find(d);
        if comp_of_root[root] == usize::MAX {
            comp_of_root[root] = comps.len();
            comps.push(Component {
                devs: Vec::new(),
                cores: Vec::new(),
                apps: Vec::new(),
                load: 0,
            });
        }
        comps[comp_of_root[root]].devs.push(d);
        comps[comp_of_root[root]].load += 1;
    }
    for c in 0..n_cores {
        let root = dsu.find(n_devs + c);
        if comp_of_root[root] != usize::MAX {
            comps[comp_of_root[root]].cores.push(c);
        }
    }
    for (i, app) in sim.apps.iter().enumerate() {
        let ci = comp_of_root[dsu.find(app.devices[0].index())];
        comps[ci].apps.push(i);
        comps[ci].load += u64::from(app.spec.iodepth());
    }
    comps
}

/// Packs components onto `workers` shards, LPT-first by load estimate.
/// Returns per-worker component lists (deterministic).
fn pack(plan: &[Component], workers: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..plan.len()).collect();
    // Heaviest first; ties break on component order (= first device).
    order.sort_by_key(|&i| (Reverse(plan[i].load), i));
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut loads = vec![0u64; workers];
    for ci in order {
        let w = (0..workers)
            .min_by_key(|&w| (loads[w], w))
            .expect("workers > 0");
        loads[w] += plan[ci].load;
        groups[w].push(ci);
    }
    groups
}

/// Splits the built (but not yet seeded) machine into one engine per
/// component, remapping app core/device references to local dense
/// indices. Request-ids restart from 0 per component; within a component
/// they stay order-isomorphic to the global ids, which is all that any
/// consumer (scheduler FIFOs, trace req fields before rewrite) relies on.
fn split(sim: HostSim, plan: &[Component]) -> Vec<HostSim> {
    debug_assert!(
        sim.devs.iter().all(|d| !d.sched.has_pending()
            && d.qos.held_requests() == 0
            && d.dispatching.is_none()),
        "shard split requires a quiescent machine"
    );
    let mut dev_local = vec![usize::MAX; sim.devs.len()];
    let mut core_local = vec![usize::MAX; sim.cores.len()];
    for comp in plan {
        for (li, &g) in comp.devs.iter().enumerate() {
            dev_local[g] = li;
        }
        for (li, &g) in comp.cores.iter().enumerate() {
            core_local[g] = li;
        }
    }
    let HostSim {
        config,
        apps,
        cores,
        devs,
        ..
    } = sim;
    let mut apps: Vec<_> = apps.into_iter().map(Some).collect();
    let mut cores: Vec<_> = cores.into_iter().map(Some).collect();
    let mut devs: Vec<_> = devs.into_iter().map(Some).collect();
    plan.iter()
        .map(|comp| {
            let c_apps: Vec<_> = comp
                .apps
                .iter()
                .map(|&i| {
                    let mut a = apps[i].take().expect("app in one component");
                    a.core = CoreId(core_local[a.core.index()]);
                    for d in &mut a.devices {
                        *d = DeviceId(dev_local[d.index()]);
                    }
                    a
                })
                .collect();
            let c_cores: Vec<_> = comp
                .cores
                .iter()
                .map(|&i| cores[i].take().expect("core in one component"))
                .collect();
            let c_devs: Vec<_> = comp
                .devs
                .iter()
                .map(|&i| devs[i].take().expect("device in one component"))
                .collect();
            // The split machine is quiescent, so a fresh engine with
            // empty queue and trees is exact.
            HostSim::assemble(config.clone(), c_apps, c_cores, c_devs)
        })
        .collect()
}

/// Conservative lookahead for a shard: the fastest median command time
/// across its devices (floored at 1 µs against degenerate profiles).
///
/// Batched arrival generation does not change this bound: pregeneration
/// only moves RNG draws earlier in wall-clock time, never an *event*
/// earlier in simulated time, and the tournament frontiers release pops
/// in the same `(time, seq)` order the wheel would — so the earliest
/// cross-shard influence is still a device completion.
fn lookahead_window(part: &HostSim) -> SimDuration {
    part.devs
        .iter()
        .map(|d| d.device.profile().min_cmd_latency())
        .min()
        .unwrap_or(SimDuration::from_micros(1))
        .max(SimDuration::from_micros(1))
}

/// `true` for kinds whose `req` field is a request id that must be
/// rewritten from shard-local to global. The rest carry 0 or a
/// kind-specific small integer (reset/restart, `Cfg*`, `RunEnd`).
fn req_scoped(kind: TraceKind) -> bool {
    !matches!(
        kind,
        TraceKind::DeviceReset
            | TraceKind::DeviceRestart
            | TraceKind::CfgDevice
            | TraceKind::CfgSched
            | TraceKind::CfgIoMax
            | TraceKind::RunEnd
    )
}

/// Result of one component's run.
struct CompResult {
    report: RunReport,
    popped: u64,
    peak: u64,
    faults: (u64, u64, u64),
    /// High-water mark of the component's active wake-tree leaves.
    active_hwm: u64,
}

/// Runs one component engine to `until` (shared by both paths; the
/// traced path attaches the journal beforehand and closes it here).
fn run_component(mut part: HostSim, until: SimTime) -> CompResult {
    part.seed_initial_events();
    let (popped, peak) = part.run_loop(until);
    if let Some(j) = part.journal.take() {
        j.close();
    }
    let faults = part.fault_totals();
    let active_hwm = part.active_hwm as u64;
    CompResult {
        report: part.finish(until),
        popped,
        peak,
        faults,
        active_hwm,
    }
}

/// Scatters per-component reports back to global index positions. Cores
/// outside every component idled the whole run.
fn merge_reports(
    plan: &[Component],
    mut results: Vec<Option<CompResult>>,
    n_apps: usize,
    n_cores: usize,
    n_devs: usize,
) -> RunReport {
    let mut apps: Vec<Option<_>> = (0..n_apps).map(|_| None).collect();
    let mut cores: Vec<Option<_>> = (0..n_cores).map(|_| None).collect();
    let mut devices: Vec<Option<_>> = (0..n_devs).map(|_| None).collect();
    let mut duration = SimDuration::ZERO;
    let mut measure_from = SimTime::ZERO;
    for (comp, slot) in plan.iter().zip(results.iter_mut()) {
        let r = slot.take().expect("every component ran").report;
        duration = r.duration;
        measure_from = r.measure_from;
        for (mut a, &g) in r.apps.into_iter().zip(&comp.apps) {
            a.app = AppId(g);
            apps[g] = Some(a);
        }
        for (mut c, &g) in r.cores.into_iter().zip(&comp.cores) {
            c.core = CoreId(g);
            cores[g] = Some(c);
        }
        for (mut d, &g) in r.devices.into_iter().zip(&comp.devs) {
            d.dev = DeviceId(g);
            devices[g] = Some(d);
        }
    }
    RunReport {
        duration,
        measure_from,
        apps: apps.into_iter().map(|a| a.expect("app covered")).collect(),
        cores: cores
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                c.unwrap_or(CoreReport {
                    core: CoreId(i),
                    utilization: 0.0,
                    busy: SimDuration::ZERO,
                })
            })
            .collect(),
        devices: devices
            .into_iter()
            .map(|d| d.expect("device covered"))
            .collect(),
    }
}

/// Folds component results into the process-global stats (one
/// `record_run` and one `record_tourney` per scenario, like the
/// sequential path) and returns the merged report.
///
/// Tournament occupancy combines by summing the component high-water
/// marks over the scenario's total app count. Components run on
/// independent clocks, so their peaks cannot be lined up in simulated
/// time; the scenario-wide active set at any instant is the sum of the
/// component active sets, so the sum of peaks is an upper bound on the
/// sequential run's high-water mark (and equal to it when the peaks
/// coincide, as at an all-active start).
fn finish_sharded(
    plan: &[Component],
    groups: &[Vec<usize>],
    results: Vec<Option<CompResult>>,
    coord: CoordTotals,
    dims: (usize, usize, usize),
) -> RunReport {
    let popped: Vec<u64> = results
        .iter()
        .map(|r| r.as_ref().expect("every component ran").popped)
        .collect();
    let peak = results
        .iter()
        .map(|r| r.as_ref().expect("every component ran").peak)
        .max()
        .unwrap_or(0);
    let (t, rt, f) = results.iter().fold((0, 0, 0), |(t, rt, f), r| {
        let (dt, dr, df) = r.as_ref().expect("every component ran").faults;
        (t + dt, rt + dr, f + df)
    });
    let active_hwm = results
        .iter()
        .map(|r| r.as_ref().expect("every component ran").active_hwm)
        .sum();
    crate::stats::record_run(popped.iter().sum(), peak);
    crate::stats::record_tourney(active_hwm, dims.0 as u64);
    crate::stats::record_faults(t, rt, f);
    let per_shard: Vec<u64> = groups
        .iter()
        .map(|g| g.iter().map(|&ci| popped[ci]).sum())
        .collect();
    crate::stats::record_sharded(per_shard, coord.stalls, coord.batches, coord.violations);
    merge_reports(plan, results, dims.0, dims.1, dims.2)
}

/// Coordinator-side totals (all zero for untraced runs).
#[derive(Debug, Default)]
struct CoordTotals {
    stalls: u64,
    batches: u64,
    violations: u64,
}

/// Coordinator-side state of one component's journal stream.
struct CompChan {
    rx: mpsc::Receiver<ShardMsg>,
    records: VecDeque<PopRecord>,
    /// Local → global request-id map, dense from 0.
    req_map: Vec<u64>,
    /// Strongest horizon committed by a received batch.
    committed: SimTime,
}

impl CompChan {
    /// Next journal record, receiving batches as needed. Blocking waits
    /// count as barrier stalls; received records are checked against the
    /// component's committed horizon.
    ///
    /// Returns `None` only under cooperative cancellation: the epoch
    /// barrier polls the coordinator thread's [`simcore::cancel`] token
    /// while waiting, and a cancelled worker closes its journal early,
    /// so a stalled replay unwinds instead of blocking forever. On a
    /// healthy run every replayed pop finds its record (a short journal
    /// is still a panic then — that is an invariant violation).
    fn next_record(&mut self, ci: usize, totals: &mut CoordTotals) -> Option<PopRecord> {
        loop {
            if let Some(r) = self.records.pop_front() {
                return Some(r);
            }
            let msg = match self.rx.try_recv() {
                Ok(m) => m,
                Err(TryRecvError::Empty) => {
                    totals.stalls += 1;
                    loop {
                        match self.rx.recv_timeout(std::time::Duration::from_millis(20)) {
                            Ok(m) => break m,
                            Err(mpsc::RecvTimeoutError::Timeout) => {
                                if simcore::cancel::cancelled() {
                                    return None;
                                }
                            }
                            Err(mpsc::RecvTimeoutError::Disconnected) => {
                                if simcore::cancel::cancelled() {
                                    return None;
                                }
                                panic!("shard {ci} worker died mid-run")
                            }
                        }
                    }
                }
                Err(TryRecvError::Disconnected) => {
                    if simcore::cancel::cancelled() {
                        return None;
                    }
                    panic!("shard {ci} journal ended before its replayed pop")
                }
            };
            match msg {
                ShardMsg::Batch(b) => {
                    totals.batches += 1;
                    for r in &b.records {
                        if r.t < self.committed {
                            totals.violations += 1;
                        }
                    }
                    if let Some(h) = b.horizon {
                        self.committed = self.committed.max(h);
                    }
                    self.records.extend(b.records);
                }
                ShardMsg::Init(_) => panic!("shard {ci} sent a second init"),
            }
        }
    }
}

/// Replays the global event order from the per-component journals,
/// re-emitting every trace event (with global ids) into the calling
/// thread's recorder. See the module docs for the exactness argument.
fn coordinate(plan: &[Component], chans: &mut [CompChan], until: SimTime) -> CoordTotals {
    let mut totals = CoordTotals::default();
    // (class, global index, ordinal, at, component): sorted, this is the
    // exact global seed order — apps by index, then devices by index.
    let mut inits: Vec<(u8, usize, u32, SimTime, usize)> = Vec::new();
    for (ci, ch) in chans.iter_mut().enumerate() {
        match ch.rx.recv() {
            Ok(ShardMsg::Init(list)) => {
                for e in list {
                    let g = if e.class == 0 {
                        plan[ci].apps[e.local_idx as usize]
                    } else {
                        plan[ci].devs[e.local_idx as usize]
                    };
                    inits.push((e.class, g, e.ordinal, e.at, ci));
                }
            }
            _ => panic!("shard {ci} sent no init record"),
        }
    }
    inits.sort_by_key(|&(class, g, ord, _, _)| (class, g, ord));
    let mut heap: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for &(_, _, _, at, ci) in &inits {
        heap.push(Reverse((at, seq, ci)));
        seq += 1;
    }
    let mut next_req_id = 0u64;
    while let Some(Reverse((t, _, ci))) = heap.pop() {
        if t > until {
            break;
        }
        let Some(rec) = chans[ci].next_record(ci, &mut totals) else {
            // Cancelled mid-replay: stop re-emitting; the partial trace
            // is discarded with the cell.
            break;
        };
        assert_eq!(
            rec.t, t,
            "shard {ci} journal diverged from the replay order"
        );
        for _ in 0..rec.n_alloc {
            chans[ci].req_map.push(next_req_id);
            next_req_id += 1;
        }
        for mut ev in rec.events {
            ev.dev = plan[ci].devs[ev.dev as usize] as u32;
            if req_scoped(ev.kind) {
                ev.req = chans[ci].req_map[ev.req as usize];
            }
            trace::record_with(|| ev);
        }
        for at in rec.children {
            heap.push(Reverse((at, seq, ci)));
            seq += 1;
        }
    }
    trace::record_with(|| TraceEvent::new(until.as_nanos(), TraceKind::RunEnd, 0, 0, 0, 0, 0));
    totals
}

/// Runs the per-worker component groups on scoped threads, filling
/// `results` by component index. `main_thread` runs concurrently on the
/// calling thread (the traced path's coordinator) and its return value
/// is passed through.
fn run_workers<T>(
    groups: &[Vec<usize>],
    parts: Vec<HostSim>,
    until: SimTime,
    traced: bool,
    main_thread: impl FnOnce() -> T,
) -> (Vec<Option<CompResult>>, T) {
    let mut slots: Vec<Option<HostSim>> = parts.into_iter().map(Some).collect();
    let results: Mutex<Vec<Option<CompResult>>> =
        Mutex::new((0..slots.len()).map(|_| None).collect());
    // Thread-locals do not cross `thread::scope`: hand the launching
    // thread's cancellation token to every worker explicitly so a
    // watchdog cancel reaches all component loops.
    let cancel = simcore::cancel::current();
    let out = std::thread::scope(|s| {
        for g in groups {
            let mine: Vec<(usize, HostSim)> = g
                .iter()
                .map(|&ci| (ci, slots[ci].take().expect("component packed once")))
                .collect();
            let results = &results;
            let cancel = cancel.clone();
            s.spawn(move || {
                if let Some(token) = cancel {
                    simcore::cancel::install(token);
                }
                if traced {
                    // Journaled runs capture their trace events through
                    // this worker-local recorder (drained per pop).
                    trace::install_unbounded();
                }
                for (ci, part) in mine {
                    let r = run_component(part, until);
                    results.lock().unwrap_or_else(|e| e.into_inner())[ci] = Some(r);
                }
            });
        }
        main_thread()
    });
    (results.into_inner().unwrap_or_else(|e| e.into_inner()), out)
}

impl HostSim {
    /// Runs the simulation on up to `shards` parallel workers, bit-exact
    /// with [`HostSim::run`] for every shard count. Falls back to the
    /// sequential path when `shards <= 1` or the scenario couples into a
    /// single component (multi-device apps and shared cores merge
    /// components; see the module docs for the ownership map).
    #[must_use]
    pub fn run_sharded(self, until: SimTime, shards: usize) -> RunReport {
        if shards <= 1 {
            return self.run(until);
        }
        let plan = plan_components(&self);
        if plan.len() <= 1 {
            return self.run(until);
        }
        let dims = (self.apps.len(), self.cores.len(), self.devs.len());
        let groups = pack(&plan, shards.min(plan.len()));
        let traced = trace::enabled();
        let mut parts = split(self, &plan);
        if traced {
            let mut chans = Vec::with_capacity(parts.len());
            for part in &mut parts {
                let (tx, rx) = mpsc::channel();
                part.journal = Some(JournalSink::new(tx, lookahead_window(part)));
                chans.push(CompChan {
                    rx,
                    records: VecDeque::new(),
                    req_map: Vec::new(),
                    committed: SimTime::ZERO,
                });
            }
            let (results, coord) = run_workers(&groups, parts, until, true, || {
                coordinate(&plan, &mut chans, until)
            });
            finish_sharded(&plan, &groups, results, coord, dims)
        } else {
            let (results, ()) = run_workers(&groups, parts, until, false, || ());
            finish_sharded(&plan, &groups, results, CoordTotals::default(), dims)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{AppSetup, DeviceSetup, HostConfig};
    use crate::JobSpecStopExt;
    use cgroup_sim::Hierarchy;
    use workload::JobSpec;

    fn pinned_hierarchy(n: usize) -> Hierarchy {
        let mut h = Hierarchy::new();
        let slice = h.create(Hierarchy::ROOT, "bench.slice").unwrap();
        h.enable_io(slice).unwrap();
        for i in 0..n {
            let g = h.create(slice, &format!("app-{i}")).unwrap();
            h.attach_process(g, AppId(i)).unwrap();
        }
        h
    }

    /// `n` apps, each pinned to its own device and core: `n` components.
    fn pinned_fleet(n: usize, dur_ms: u64) -> HostSim {
        let h = pinned_hierarchy(n);
        let apps = (0..n)
            .map(|i| {
                AppSetup::new(
                    JobSpec::lc_app(&format!("lc-{i}")).stop_by(SimTime::from_millis(dur_ms)),
                    vec![DeviceId(i)],
                )
            })
            .collect();
        let devices = (0..n).map(|_| DeviceSetup::flash()).collect();
        HostSim::build(HostConfig::with_cores(n), h, apps, devices)
    }

    fn report_key(r: &RunReport) -> Vec<(u64, u64, u64, u64)> {
        r.apps
            .iter()
            .map(|a| {
                (
                    a.issued,
                    a.completed,
                    a.latency.p99_us.to_bits(),
                    a.mean_mib_s.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn pinned_apps_split_into_one_component_each() {
        let sim = pinned_fleet(3, 10);
        let plan = plan_components(&sim);
        assert_eq!(plan.len(), 3);
        for (i, c) in plan.iter().enumerate() {
            assert_eq!(c.devs, vec![i]);
            assert_eq!(c.cores, vec![i]);
            assert_eq!(c.apps, vec![i]);
        }
    }

    #[test]
    fn multi_device_app_merges_components() {
        let h = pinned_hierarchy(1);
        let apps = vec![AppSetup::new(
            JobSpec::lc_app("span").stop_by(SimTime::from_millis(10)),
            vec![DeviceId(0), DeviceId(1)],
        )];
        let sim = HostSim::build(
            HostConfig::default(),
            h,
            apps,
            vec![DeviceSetup::flash(), DeviceSetup::flash()],
        );
        assert_eq!(plan_components(&sim).len(), 1);
    }

    #[test]
    fn shared_core_merges_components() {
        // Two pinned apps on distinct devices, one core: i % 1 == 0.
        let h = pinned_hierarchy(2);
        let apps = (0..2)
            .map(|i| {
                AppSetup::new(
                    JobSpec::lc_app(&format!("lc-{i}")).stop_by(SimTime::from_millis(10)),
                    vec![DeviceId(i)],
                )
            })
            .collect();
        let sim = HostSim::build(
            HostConfig::with_cores(1),
            h,
            apps,
            vec![DeviceSetup::flash(), DeviceSetup::flash()],
        );
        assert_eq!(plan_components(&sim).len(), 1);
    }

    #[test]
    fn unreferenced_device_forms_singleton_component() {
        let h = pinned_hierarchy(1);
        let apps = vec![AppSetup::new(
            JobSpec::lc_app("lc").stop_by(SimTime::from_millis(10)),
            vec![DeviceId(0)],
        )];
        let sim = HostSim::build(
            HostConfig::default(),
            h,
            apps,
            vec![DeviceSetup::flash(), DeviceSetup::flash()],
        );
        let plan = plan_components(&sim);
        assert_eq!(plan.len(), 2);
        assert!(plan[1].apps.is_empty());
    }

    #[test]
    fn pack_is_deterministic_and_balanced() {
        let comps: Vec<Component> = [30u64, 10, 20, 5]
            .iter()
            .map(|&load| Component {
                devs: vec![],
                cores: vec![],
                apps: vec![],
                load,
            })
            .collect();
        let g = pack(&comps, 2);
        // LPT: 30 → w0; 20 → w1; 10 → w1 (30 vs 20); 5 → w1? loads 30/30 → w0.
        assert_eq!(g, vec![vec![0, 3], vec![2, 1]]);
    }

    #[test]
    fn sharded_report_matches_sequential() {
        let seq = pinned_fleet(4, 40).run(SimTime::from_millis(40));
        for shards in [2, 4, 7] {
            let par = pinned_fleet(4, 40).run_sharded(SimTime::from_millis(40), shards);
            assert_eq!(report_key(&seq), report_key(&par), "shards={shards}");
            assert_eq!(seq.cores.len(), par.cores.len());
            for (a, b) in seq.cores.iter().zip(&par.cores) {
                assert_eq!(a.core, b.core);
                assert_eq!(a.busy, b.busy);
            }
            for (a, b) in seq.devices.iter().zip(&par.devices) {
                assert_eq!(a.dev, b.dev);
                assert_eq!(a.served_ios, b.served_ios);
            }
        }
    }

    #[test]
    fn sharded_traced_run_matches_sequential_bytes() {
        trace::install(1 << 16);
        let seq = pinned_fleet(3, 20).run(SimTime::from_millis(20));
        let seq_trace = trace::take().expect("recorder installed");
        trace::install(1 << 16);
        let par = pinned_fleet(3, 20).run_sharded(SimTime::from_millis(20), 3);
        let par_trace = trace::take().expect("recorder installed");
        assert_eq!(report_key(&seq), report_key(&par));
        assert!(seq_trace.is_complete() && seq_trace.is_lossless());
        assert_eq!(seq_trace.to_jsonl(), par_trace.to_jsonl());
    }

    #[test]
    fn single_component_scenario_falls_back_to_sequential() {
        let h = pinned_hierarchy(2);
        let apps = (0..2)
            .map(|i| {
                AppSetup::new(
                    JobSpec::lc_app(&format!("lc-{i}")).stop_by(SimTime::from_millis(20)),
                    vec![DeviceId(0), DeviceId(1)],
                )
            })
            .collect();
        let devices = vec![DeviceSetup::flash(), DeviceSetup::flash()];
        let sim = HostSim::build(HostConfig::with_cores(2), h, apps, devices);
        let before = crate::stats::snapshot();
        let r = sim.run_sharded(SimTime::from_millis(20), 4);
        let after = crate::stats::snapshot();
        assert_eq!(after.sharded_runs, before.sharded_runs);
        assert!(r.apps.iter().all(|a| a.completed > 0));
    }
}
