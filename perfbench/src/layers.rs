//! The simulator's per-layer numbers, measured from outside.
//!
//! A [`LayerTracer`] passed to `System::new_traced` records the traced
//! run's events. Counts and simulated times come straight from those
//! events and the run's `Report`. Wall cost per layer comes from
//! replaying the traced run's own inputs through each layer's public
//! type (`StripingMap`, `DiskController`, `Scheduler`, `DiskMechanics`,
//! `LaneCalendar`, `BusModel`, `ForBitmap`, `StreamDriver`) and timing
//! those calls. The controller replay must reproduce the run's cache
//! hit and miss counts exactly, which shows it fed the controller the
//! same calls in the same order.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use forhdc_cache::CacheStats;
use forhdc_core::controller::ControllerDecision;
use forhdc_core::{DiskController, Report, SystemConfig};
use forhdc_host::StreamDriver;
use forhdc_layout::build_disk_bitmaps;
use forhdc_sim::request::DiskExtent;
use forhdc_sim::sched::{QueuedOp, Scheduler};
use forhdc_sim::{
    BusModel, DiskMechanics, LaneCalendar, LogicalBlock, PhysBlock, ReadWrite, SimTime, StreamId,
    StripingMap,
};
use forhdc_trace::{ProbeResult, TraceEvent, Tracer};
use forhdc_workload::Workload;

/// Media tokens at or above this are mirror-rebuild copy legs (the
/// simulator's internal token space; they carry no host request).
const REBUILD_TOKEN_BASE: u64 = 1 << 62;
/// Media tokens at or above this are HDC flush write-backs.
const FLUSH_TOKEN_BASE: u64 = 1 << 63;

#[derive(Debug, Clone, Copy)]
struct IssueRec {
    req: u64,
    stream: u32,
    start: u64,
    nblocks: u32,
    write: bool,
}

#[derive(Debug, Clone, Copy)]
enum DiskEv {
    Probe {
        t: u64,
        req: u64,
        disk: u16,
        nblocks: u32,
        result: ProbeResult,
    },
    Media {
        t: u64,
        req: u64,
        disk: u16,
        nblocks: u32,
        write: bool,
        /// seek, rotation, transfer as the run computed them.
        timing: [u64; 3],
        done: u64,
    },
    Bus {
        t: u64,
        end: u64,
        bytes: u64,
    },
}

/// Records what the per-layer replays need, plus running counts.
#[derive(Debug, Default)]
pub struct LayerTracer {
    issues: Vec<IssueRec>,
    events: Vec<DiskEv>,
    completes: Vec<u64>,
    queue_depth_sum: u64,
    queue_events: u64,
    media_ops: u64,
    media_wait_ns: u64,
    media_busy_ns: u64,
    rebuild_busy_ns: u64,
}

impl Tracer for LayerTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Issue {
                req,
                stream,
                start,
                nblocks,
                write,
                ..
            } => self.issues.push(IssueRec {
                req,
                stream,
                start,
                nblocks,
                write,
            }),
            TraceEvent::Probe {
                t,
                req,
                disk,
                nblocks,
                result,
            } => self.events.push(DiskEv::Probe {
                t,
                req,
                disk,
                nblocks,
                result,
            }),
            TraceEvent::Queue { depth, .. } => {
                self.queue_depth_sum += depth as u64;
                self.queue_events += 1;
            }
            TraceEvent::Media {
                t,
                req,
                disk,
                wait,
                seek,
                rotation,
                transfer,
                overhead,
                nblocks,
                write,
                ..
            } => {
                let busy = seek + rotation + transfer + overhead;
                self.media_ops += 1;
                self.media_wait_ns += wait;
                self.media_busy_ns += busy;
                if (REBUILD_TOKEN_BASE..FLUSH_TOKEN_BASE).contains(&req) {
                    self.rebuild_busy_ns += busy;
                }
                self.events.push(DiskEv::Media {
                    t,
                    req,
                    disk,
                    nblocks,
                    write,
                    timing: [seek, rotation, transfer],
                    done: t + busy,
                });
            }
            TraceEvent::Bus {
                t,
                wait,
                busy,
                bytes,
                ..
            } => self.events.push(DiskEv::Bus {
                t,
                end: t + wait + busy,
                bytes,
            }),
            TraceEvent::Complete { req, .. } => self.completes.push(req),
            _ => {}
        }
    }
}

/// Wall cost of timed sections: total ns and how many were timed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cost {
    pub ns: u64,
    pub timed: u64,
}

impl Cost {
    fn add(&mut self, since: Instant) {
        self.ns += since.elapsed().as_nanos() as u64;
        self.timed += 1;
    }

    /// Mean ns per operation over `ops` operations, with the timer's
    /// own cost (`timer_ns` per timed section) removed.
    pub fn per_op(&self, ops: u64, timer_ns: f64) -> f64 {
        if ops == 0 {
            return 0.0;
        }
        ((self.ns as f64 - self.timed as f64 * timer_ns) / ops as f64).max(0.0)
    }

    /// [`Cost::per_op`] where each timed section is one operation.
    pub fn ns_per_call(&self, timer_ns: f64) -> f64 {
        self.per_op(self.timed, timer_ns)
    }
}

/// The cost of one `Instant::now()` + `elapsed()` pair, which every
/// timed call also pays; subtracted from per-call costs.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..2_000)
        .map(|_| {
            let t = Instant::now();
            black_box(t.elapsed().as_nanos()) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// What the replays measured.
#[derive(Debug, Default)]
pub struct Replay {
    pub split: Cost,
    pub extents: u64,
    /// Controller calls: `on_request` plus, for a miss, its
    /// `on_media_complete`.
    pub ctl: Cost,
    /// Extents presented to the controllers.
    pub ctl_extents: u64,
    pub sched: Cost,
    pub mechanics: Cost,
    pub calendar: Cost,
    pub calendar_events: u64,
    pub bus: Cost,
    pub bitmap: Cost,
    /// The whole stream-driver replay, one section.
    pub host: Cost,
    pub host_reqs: u64,
    /// The controllers' merged cache counters after the replay.
    pub cache: CacheStats,
    /// Probe outcomes the replayed controller decided differently.
    pub decision_mismatches: u64,
    /// Scheduler pops that picked another op than the run did.
    pub sched_mismatches: u64,
    /// Mechanics services whose timing differed from the run's.
    pub mechanics_mismatches: u64,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: ReadWrite,
    start: PhysBlock,
    total: u32,
    requested: u32,
}

/// Replays the traced run's inputs through each layer's public type.
/// The controller replay is exact only for a configuration without an
/// HDC (no pins or flushes to reproduce), so callers pass the `segm`
/// run.
pub fn replay(cfg: &SystemConfig, wl: &Workload, tr: &LayerTracer) -> Replay {
    let mut out = Replay::default();
    let striping = StripingMap::new(cfg.array.virtual_disks(), cfg.array.striping_unit_blocks());
    let mirrored = cfg.array.mirrored;
    let disks = cfg.array.disks as usize;

    // Striping: split every issued request.
    let mut extents: HashMap<u64, Vec<(DiskExtent, bool)>> =
        HashMap::with_capacity(tr.issues.len());
    let mut buf = Vec::new();
    let mut write_of: HashMap<u64, bool> = HashMap::with_capacity(tr.issues.len());
    for i in &tr.issues {
        let t = Instant::now();
        striping.split_into(LogicalBlock::new(i.start), i.nblocks, &mut buf);
        out.split.add(t);
        out.extents += buf.len() as u64;
        extents.insert(i.req, buf.iter().map(|&e| (e, false)).collect());
        write_of.insert(i.req, i.write);
    }

    // Controller, scheduler and mechanics, per disk, in the run's order.
    let mut ctls: Vec<DiskController> = (0..disks)
        .map(|_| {
            DiskController::new(&cfg.array.disk, cfg.read_ahead, 0, None)
                .with_replacement(cfg.block_replacement, cfg.segment_replacement)
        })
        .collect();
    let mut scheds: Vec<Scheduler> = (0..disks)
        .map(|_| Scheduler::new(cfg.array.scheduler))
        .collect();
    let mut mechs: Vec<DiskMechanics> = (0..disks)
        .map(|_| DiskMechanics::new(&cfg.array.disk))
        .collect();
    let mut inflight: Vec<Option<(u64, Op)>> = vec![None; disks];
    let mut rebuild_start: HashMap<u64, PhysBlock> = HashMap::new();
    let mut rebuild_cursor = 0u64;
    let mut miss_tails: Vec<(usize, PhysBlock)> = Vec::new();
    let complete = |ctl: &mut DiskController, op: &Op, cost: &mut Cost| {
        let t = Instant::now();
        ctl.on_media_complete(op.kind, op.start, op.total, op.requested);
        cost.add(t);
    };
    for ev in &tr.events {
        match *ev {
            DiskEv::Probe {
                t,
                req,
                disk,
                nblocks,
                result,
            } => {
                let d = disk as usize;
                if let Some((done, op)) = inflight[d] {
                    if done <= t {
                        complete(&mut ctls[d], &op, &mut out.ctl);
                        inflight[d] = None;
                    }
                }
                let vd = if mirrored { d / 2 } else { d };
                let Some(slot) = extents.get_mut(&req).and_then(|v| {
                    v.iter_mut()
                        .find(|(e, used)| !used && e.disk.as_usize() == vd && e.nblocks == nblocks)
                }) else {
                    out.decision_mismatches += 1;
                    continue;
                };
                // A mirrored write probes both members with one extent.
                if !(mirrored && write_of[&req] && d.is_multiple_of(2)) {
                    slot.1 = true;
                }
                let start = slot.0.start;
                let kind = if write_of[&req] {
                    ReadWrite::Write
                } else {
                    ReadWrite::Read
                };
                let t0 = Instant::now();
                let decision = ctls[d].on_request(kind, start, nblocks);
                out.ctl.add(t0);
                out.ctl_extents += 1;
                let matches = matches!(
                    (decision, result),
                    (ControllerDecision::CacheHit, ProbeResult::Hit)
                        | (
                            ControllerDecision::HdcWriteAbsorbed,
                            ProbeResult::HdcAbsorbed
                        )
                        | (ControllerDecision::Media { .. }, ProbeResult::Miss)
                );
                if !matches {
                    out.decision_mismatches += 1;
                }
                if let ControllerDecision::Media {
                    start,
                    nblocks: total,
                    ..
                } = decision
                {
                    if kind.is_read() {
                        miss_tails.push((vd, start.offset(nblocks as u64 - 1)));
                    }
                    let op = QueuedOp {
                        token: req,
                        start,
                        nblocks: total,
                        requested: nblocks,
                        kind,
                        cylinder: mechs[d].geometry().cylinder_of(start),
                        queued_at: SimTime::from_nanos(t),
                        attempt: 0,
                    };
                    let t0 = Instant::now();
                    scheds[d].push(op);
                    out.sched.add(t0);
                }
            }
            DiskEv::Media {
                t,
                req,
                disk,
                nblocks,
                write,
                timing,
                done,
            } => {
                let d = disk as usize;
                if let Some((_, op)) = inflight[d].take() {
                    complete(&mut ctls[d], &op, &mut out.ctl);
                }
                let kind = if write {
                    ReadWrite::Write
                } else {
                    ReadWrite::Read
                };
                if req >= REBUILD_TOKEN_BASE {
                    // Rebuild legs enter the queue untraced; copy them
                    // in just before the run started them.
                    let start = *rebuild_start.entry(req).or_insert_with(|| {
                        let s = PhysBlock::new(rebuild_cursor);
                        rebuild_cursor += nblocks as u64;
                        s
                    });
                    scheds[d].push(QueuedOp {
                        token: req,
                        start,
                        nblocks,
                        requested: nblocks,
                        kind,
                        cylinder: mechs[d].geometry().cylinder_of(start),
                        queued_at: SimTime::from_nanos(t),
                        attempt: 0,
                    });
                }
                let t0 = Instant::now();
                let popped = scheds[d].pop_next(mechs[d].head_cylinder());
                out.sched.add(t0);
                let Some(op) = popped else {
                    out.sched_mismatches += 1;
                    continue;
                };
                if op.token != req || op.nblocks != nblocks {
                    out.sched_mismatches += 1;
                }
                let t0 = Instant::now();
                let st = mechs[d].service(op.kind, op.start, op.nblocks, SimTime::from_nanos(t));
                out.mechanics.add(t0);
                if [st.seek, st.rotation, st.transfer].map(|x| x.as_nanos()) != timing {
                    out.mechanics_mismatches += 1;
                }
                inflight[d] = Some((
                    done,
                    Op {
                        kind: op.kind,
                        start: op.start,
                        total: op.nblocks,
                        requested: op.requested,
                    },
                ));
            }
            DiskEv::Bus { .. } => {}
        }
    }
    for (d, slot) in inflight.iter_mut().enumerate() {
        if let Some((_, op)) = slot.take() {
            complete(&mut ctls[d], &op, &mut out.ctl);
        }
    }
    for c in &ctls {
        out.cache.merge(c.cache_stats());
    }

    // Calendar and bus: the completions the run's media and bus
    // transfers scheduled, popped in time order.
    let mut cal: LaneCalendar<u32> = LaneCalendar::with_lanes(disks + 1);
    let mut bus = BusModel::new(cfg.array.bus_rate, cfg.array.bus_overhead);
    for ev in &tr.events {
        let (t, lane, at) = match *ev {
            DiskEv::Media { t, disk, done, .. } => (t, disk as usize, done),
            DiskEv::Bus { t, end, bytes } => {
                let t0 = Instant::now();
                black_box(bus.reserve(SimTime::from_nanos(t), bytes));
                out.bus.add(t0);
                (t, disks, end)
            }
            DiskEv::Probe { .. } => continue,
        };
        while cal.peek_time().is_some_and(|p| p.as_nanos() <= t) {
            let t0 = Instant::now();
            black_box(cal.pop());
            out.calendar.add(t0);
        }
        let at = SimTime::from_nanos(at).max(cal.now());
        let t0 = Instant::now();
        cal.schedule_lane(lane, at, lane as u32);
        out.calendar.add(t0);
        out.calendar_events += 1;
    }
    while !cal.is_empty() {
        let t0 = Instant::now();
        black_box(cal.pop());
        out.calendar.add(t0);
    }

    // FOR bitmap: the continuation scan each read miss would run.
    let capacity = cfg.array.disk.geometry.capacity_blocks();
    let bitmaps = build_disk_bitmaps(&wl.layout, &striping, capacity);
    let max_ra = cfg.array.disk.segment_blocks();
    for (vd, last) in miss_tails {
        let t0 = Instant::now();
        black_box(bitmaps[vd].run_ahead(last, max_ra));
        out.bitmap.add(t0);
    }

    // Host: the stream driver's issue/complete bookkeeping.
    let stream_of: HashMap<u64, u32> = tr.issues.iter().map(|i| (i.req, i.stream)).collect();
    let t0 = Instant::now();
    let mut driver = StreamDriver::new(&wl.trace, wl.streams);
    black_box(driver.start());
    for req in &tr.completes {
        black_box(driver.complete(StreamId::new(stream_of[req])));
    }
    out.host.add(t0);
    out.host_reqs = tr.completes.len() as u64;
    out
}

/// Exact counts the traced run produced.
pub struct Counts {
    pub queue_depth_mean: f64,
    pub wait_ms_per_op: f64,
    pub rebuild_busy_share: f64,
}

pub fn counts(tr: &LayerTracer) -> Counts {
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    Counts {
        queue_depth_mean: per(tr.queue_depth_sum, tr.queue_events),
        wait_ms_per_op: per(tr.media_wait_ns, tr.media_ops) / 1e6,
        rebuild_busy_share: per(tr.rebuild_busy_ns, tr.media_busy_ns),
    }
}

/// The controller replay is faithful when it reproduces the run's
/// cache counters exactly.
pub fn check_replay(r: &Replay, report: &Report) -> Vec<String> {
    let (a, b) = (&r.cache, &report.cache);
    let mut bad = Vec::new();
    if (
        a.extent_lookups,
        a.extent_hits,
        a.block_lookups,
        a.block_hits,
    ) != (
        b.extent_lookups,
        b.extent_hits,
        b.block_lookups,
        b.block_hits,
    ) {
        bad.push(format!(
            "controller replay: extent hits/lookups {}/{} and block {}/{} differ from the run's {}/{} and {}/{}",
            a.extent_hits,
            a.extent_lookups,
            a.block_hits,
            a.block_lookups,
            b.extent_hits,
            b.extent_lookups,
            b.block_hits,
            b.block_lookups
        ));
    }
    if r.decision_mismatches != 0 {
        bad.push(format!(
            "controller replay: {} decisions differ from the run's",
            r.decision_mismatches
        ));
    }
    bad
}
