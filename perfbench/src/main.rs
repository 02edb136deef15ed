//! `perfbench` — one command that runs a workload through both planes
//! of the FOR/HDC system and prints every metric by name and unit.
//!
//! ```text
//! perfbench --workload web-hot|file-cold|mirror-rebuild
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the root of a checkout. `--trace 0` prints the end-to-end
//! metrics, timed with tracing off; `--trace 1` runs once traced and
//! prints the per-layer metrics and two layer budget tables. The last
//! line of stdout is the JSON result; everything else goes before it or
//! to stderr. Exit code 0 only with a complete result; the outputs'
//! correctness is the result's `correct` field.

mod budget;
mod emit;
mod host;
mod layers;
mod live;
mod live_layers;
mod sim;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use emit::{MetricSet, Metrics};
use live::{Outcome, Schedule, Server};
use stats::{calmest, count_above, median, nearest_rank};
use workloads::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Shares of `--seconds`: repeated simulation, live warm-up, live
/// measurement; the simulation and the measurement are cut into
/// `SLICES` interleaved parts.
const SIM_SHARE: f64 = 0.5;
const WARM_SHARE: f64 = 0.1;
const LIVE_SHARE: f64 = 0.4;
const SLICES: usize = 24;
/// Client threads and connections (one per vCPU of the reference host).
const CLIENT_THREADS: usize = 2;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload web-hot|file-cold|mirror-rebuild [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("--seconds {value}: want a positive number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    if !root.join("Cargo.toml").is_file() || !root.join("crates/serve").is_dir() {
        eprintln!("perfbench: run from the root of a forhdc checkout (no crates/serve here)");
        return ExitCode::from(2);
    }
    let work = root.join(".perfbench").join(args.workload.name);
    let result = run(&args, &root, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Everything one run checked; empty when every output was correct.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn extend(&mut self, more: Vec<String>) {
        self.0.extend(more);
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// Live READ tallies over the whole run, for the result's counts and
/// the conservation check against the server's own counter.
#[derive(Default)]
struct Reads {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    /// READs the last (measured) server answered OK.
    kept_ok: u64,
}

fn run(args: &Args, root: &Path, work: &Path) -> Result<String, String> {
    let w = args.workload;
    let cpu0 = host::cpu_times();
    let serve = live::build_serve(root)?;
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let image = work.join("image");
    let sched = Schedule::new(&w.live, args.seed);
    let mut checks = Checks::default();
    let mut reads = Reads::default();
    let mut m = Metrics::default();

    // Set-up: clone generation + image creation + server start, until
    // the first READ is answered. Repeated; the last server stays up.
    let setups = if args.trace { 1 } else { SETUPS };
    let (mut setup_s, mut gen_s) = (Vec::new(), Vec::new());
    let mut kept = None;
    for k in 0..setups {
        let t0 = Instant::now();
        let wl = sim::generate(&w.sim, args.seed);
        gen_s.push(t0.elapsed().as_secs_f64());
        live::mkdisk(&serve, &image, &w.live, args.seed)?;
        let server = Server::start(&serve, &image, &w.live)?;
        let outcome = live::read_once(&mut connect(server.port)?, sched.hottest())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        reads.attempted += 1;
        if outcome != Outcome::Verified {
            reads.failed += 1;
            reads.mismatches += u64::from(outcome == Outcome::WrongPayload);
        }
        reads.kept_ok = u64::from(outcome == Outcome::Verified);
        if k + 1 < setups {
            server.shutdown()?;
        } else {
            kept = Some((wl, server));
        }
    }
    let (wl, server) = kept.expect("at least one set-up");
    m.put("setup_s", median(&setup_s).expect("set-ups ran"));
    m.put("workload.gen_s", median(&gen_s).expect("set-ups ran"));

    let sim_table = if args.trace {
        Some(sim_layers(args, &wl, &mut m, &mut checks))
    } else {
        None
    };

    // Live slices, interleaved with chunks of repeated simulation while
    // the connections idle: a burst of host noise then lands in a few
    // slices and repetitions, which the medians discard.
    if w.live.mirror {
        live::hold_offline(server.port, 600_000)?;
    }
    let mut timing = sim::Timing::default();
    let chunk = secs(args.seconds * SIM_SHARE / SLICES as f64);
    let drive = live::drive(
        server.port,
        &sched,
        args.seed,
        CLIENT_THREADS,
        secs(args.seconds * WARM_SHARE),
        SLICES,
        secs(args.seconds * LIVE_SHARE / SLICES as f64),
        w.live.mirror,
        |_| {
            if !args.trace {
                sim::measure(&mut timing, &w.sim, &wl, args.seed, chunk, 1);
            }
        },
    );
    m.put("peak_rss_mb.sim", host::peak_rss_mb("self").unwrap_or(0.0));
    if !args.trace {
        sim_end_to_end(args, &wl, &timing, &mut m, &mut checks);
    }
    drop(wl);

    let (mut p50s, mut p99s, mut rps) = (Vec::new(), Vec::new(), Vec::new());
    let mut all = drive.warm.clone();
    for sl in &drive.slices {
        let (t, secs) = (&sl.tally, sl.secs);
        let mut lat = t.samples.clone();
        lat.sort_unstable();
        let p99 = nearest_rank(&lat, 0.99).unwrap_or(0);
        p50s.push(nearest_rank(&lat, 0.5).unwrap_or(0) as f64 / 1e6);
        p99s.push(p99 as f64 / 1e6);
        rps.push(lat.len() as f64 / secs);
        eprintln!(
            "live slice: {} READs in {secs:.2} s, p50 {:.4} ms, p99 {:.4} ms ({} beyond), steal {:.3}",
            lat.len(),
            p50s.last().expect("pushed"),
            p99 as f64 / 1e6,
            count_above(&lat, &p99),
            sl.steal
        );
        all.merge(t.clone());
    }
    // The hypervisor steals CPU in bursts, and a slice's tail and
    // throughput follow its steal (p99 0.5 ms at 1 % steal, 2 ms at
    // 20 %). The live figures are medians over the calmest third of the
    // slices, so they measure the server rather than its neighbours.
    let steals: Vec<f64> = drive.slices.iter().map(|s| s.steal).collect();
    let calm = calmest(&steals, SLICES.div_ceil(3));
    let over_calm =
        |v: &[f64]| median(&calm.iter().map(|&i| v[i]).collect::<Vec<_>>()).unwrap_or(0.0);
    let p50 = over_calm(&p50s);
    m.put("read_p50_ms", p50);
    m.put("read_p99_ms", over_calm(&p99s));
    m.put("read_rps", over_calm(&rps));
    reads.attempted += all.attempted;
    reads.failed += all.failed;
    reads.mismatches += all.mismatches;
    reads.kept_ok += all.attempted - all.failed;
    let scrape = live::scrape(server.port)?;
    m.put(
        "peak_rss_mb.serve",
        host::peak_rss_mb(&server.pid().to_string()).unwrap_or(0.0),
    );
    server.shutdown()?;

    // Conservation: the server answered OK exactly the READs the
    // client saw succeed, and nothing failed.
    let served = scrape.counter("forhdc_requests_total", &[("op", "read")]);
    checks.require(served == Some(reads.kept_ok), || {
        format!(
            "server counted {served:?} OK READs, the client {}",
            reads.kept_ok
        )
    });
    checks.require(reads.failed == 0 && reads.mismatches == 0, || {
        format!(
            "{} of {} READs failed ({} wrong payloads)",
            reads.failed, reads.attempted, reads.mismatches
        )
    });
    if w.live.mirror {
        let failovers: u64 = (0..w.live.disks)
            .filter_map(|d| {
                scrape.counter("forhdc_failover_reads_total", &[("disk", &d.to_string())])
            })
            .sum();
        let copied = scrape
            .counter("forhdc_rebuild_blocks_total", &[])
            .unwrap_or(0);
        checks.require(failovers > 0 && copied > 0, || {
            format!("live mirror: {failovers} failover reads, {copied} blocks rebuilt")
        });
    }

    if let Some(sim_table) = sim_table {
        let live_table = live_layers(args, &image, &sched, p50, &mut m, &mut checks)?;
        println!("{sim_table}");
        println!("{live_table}");
    }

    let steal = match (cpu0, host::cpu_times()) {
        (Some(a), Some(b)) => format!("{:.4}", host::steal_fraction(a, b)),
        _ => "unknown".to_string(),
    };
    println!(
        "host: nproc={} cpu=\"{}\" steal={steal} workload={} seed={} trace={}",
        host::nproc(),
        host::cpu_model(),
        w.name,
        args.seed,
        u8::from(args.trace)
    );
    for c in &checks.0 {
        eprintln!("perfbench: CHECK FAILED: {c}");
    }
    let set = if args.trace {
        MetricSet::PerLayer
    } else {
        MetricSet::EndToEnd
    };
    emit::result_json(checks.0.is_empty(), reads.attempted, reads.failed, set, &m)
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.05))
}

/// Connects to a freshly started server (its port is bound, but the
/// first accept may lag).
fn connect(port: u16) -> Result<live::Conn, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match live::Conn::connect(port) {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() > deadline => return Err(format!("connect: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Checks every report of a run, and at seed 0 the paper's cells.
fn check_sim(
    args: &Args,
    wl: &forhdc_workload::Workload,
    reports: &[forhdc_core::Report],
    checks: &mut Checks,
) {
    for (name, r) in sim::CONFIGS.iter().zip(reports) {
        checks.extend(sim::check_report(&args.workload.sim, name, r, wl));
    }
    if args.seed == 0 {
        checks.extend(sim::check_oracle(&args.workload.sim, reports));
    }
}

/// The simulator's end-to-end metrics, tracing off, from the
/// repetitions `t` ran.
fn sim_end_to_end(
    args: &Args,
    wl: &forhdc_workload::Workload,
    t: &sim::Timing,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let spec = &args.workload.sim;
    eprintln!(
        "sim: {} repetitions, ns/req min {:.1} median {:.1} max {:.1}",
        t.ns_per_req.len(),
        t.ns_per_req.iter().copied().fold(f64::INFINITY, f64::min),
        t.median_ns_per_req(),
        t.ns_per_req.iter().copied().fold(0.0, f64::max)
    );
    check_sim(args, wl, &t.reports, checks);
    checks.require(t.nondeterministic == 0, || {
        format!(
            "{} repetitions gave another report than the first",
            t.nondeterministic
        )
    });
    m.put("sim_ns_per_req", t.median_ns_per_req());
    m.put(
        "io_time_s.segm",
        t.reports[0].io_time.as_nanos() as f64 / 1e9,
    );
    m.put(
        "io_time_s.for_hdc",
        t.reports[1].io_time.as_nanos() as f64 / 1e9,
    );
    // Simulated time does not depend on tracing, so one traced run
    // (untimed) yields every response time for an exact p99.
    let cfg = sim::config(spec, "for_hdc");
    let (r, tr, _) = sim::run_traced(spec, &cfg, wl, args.seed, sim::ResponseTracer::default());
    checks.require(r.io_time == t.reports[1].io_time, || {
        "the traced run's I/O time differs from the untraced run's".to_string()
    });
    let mut resp = tr.responses_ns;
    checks.require(resp.len() as u64 == r.requests, || {
        format!(
            "{} completions traced for {} requests",
            resp.len(),
            r.requests
        )
    });
    resp.sort_unstable();
    m.put(
        "sim_resp_p99_ms",
        nearest_rank(&resp, 0.99).unwrap_or(0) as f64 / 1e6,
    );
}

/// The simulator's per-layer metrics: one traced run of each
/// configuration, replays of the `segm` run's inputs, and the budget.
/// Returns the budget table.
fn sim_layers(
    args: &Args,
    wl: &forhdc_workload::Workload,
    m: &mut Metrics,
    checks: &mut Checks,
) -> String {
    let spec = &args.workload.sim;
    // Untraced reference for the overhead ratio and the budget total.
    let mut untraced = sim::Timing::default();
    sim::measure(&mut untraced, spec, wl, args.seed, Duration::ZERO, 3);
    let segm_cfg = sim::config(spec, "segm");
    let segm_ns: Vec<f64> = (0..3)
        .map(|_| {
            let (r, b, run) = sim::run_timed(spec, &segm_cfg, wl, args.seed);
            (b + run) as f64 / r.requests as f64
        })
        .collect();
    let segm_ns_per_req = median(&segm_ns).expect("three runs");
    m.put("core.build_ms", median(&untraced.build_ms).expect("runs"));

    let mut reports = Vec::new();
    let mut tracers = Vec::new();
    let (mut traced_ns, mut requests) = (0u64, 0u64);
    for name in sim::CONFIGS {
        let (r, t, ns) = sim::run_traced(
            spec,
            &sim::config(spec, name),
            wl,
            args.seed,
            layers::LayerTracer::default(),
        );
        traced_ns += ns;
        requests += r.requests;
        reports.push(r);
        tracers.push(t);
    }
    check_sim(args, wl, &reports, checks);
    for ((name, traced), plain) in sim::CONFIGS.iter().zip(&reports).zip(&untraced.reports) {
        checks.require(traced.io_time == plain.io_time, || {
            format!("{name}: the traced run's I/O time differs from the untraced run's")
        });
    }
    m.put(
        "sim.trace_overhead",
        traced_ns as f64 / requests as f64 / untraced.median_ns_per_req(),
    );
    let (segm, fh) = (&reports[0], &reports[1]);
    let reqs = segm.requests as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.put(
        "cache.extent_hit_ratio.segm",
        ratio(segm.cache.extent_hits, segm.cache.extent_lookups),
    );
    m.put(
        "cache.extent_hit_ratio.for_hdc",
        ratio(fh.cache.extent_hits, fh.cache.extent_lookups),
    );
    m.put(
        "cache.ra_used_ratio.segm",
        ratio(segm.cache.ra_used, segm.cache.ra_inserted),
    );
    m.put(
        "cache.ra_used_ratio.for_hdc",
        ratio(fh.cache.ra_used, fh.cache.ra_inserted),
    );
    m.put(
        "cache.evictions_per_req",
        segm.cache.evictions as f64 / reqs,
    );
    m.put(
        "hdc.read_hit_ratio",
        ratio(fh.hdc.read_hits, fh.hdc.read_hits + fh.hdc.read_misses),
    );
    m.put(
        "hdc.flushed_per_kreq",
        fh.hdc.flushed as f64 * 1000.0 / fh.requests as f64,
    );
    m.put(
        "bitmap.bits_per_req",
        fh.bitmap_scans as f64 / fh.requests as f64,
    );
    let d = &fh.disk;
    let ops = d.media_ops.max(1) as f64;
    let io_ns = fh.io_time.as_nanos() as f64;
    m.put(
        "disk.media_ops_per_req",
        d.media_ops as f64 / fh.requests as f64,
    );
    m.put(
        "disk.blocks_per_op",
        (d.blocks_read + d.blocks_written) as f64 / ops,
    );
    m.put(
        "disk.seek_ms_per_op",
        d.seek_time.as_nanos() as f64 / 1e6 / ops,
    );
    m.put(
        "disk.rot_ms_per_op",
        d.rotation_time.as_nanos() as f64 / 1e6 / ops,
    );
    m.put(
        "disk.xfer_ms_per_op",
        d.transfer_time.as_nanos() as f64 / 1e6 / ops,
    );
    m.put(
        "disk.util",
        fh.per_disk_busy
            .iter()
            .map(|b| b.as_nanos() as f64)
            .sum::<f64>()
            / (io_ns * fh.per_disk_busy.len().max(1) as f64),
    );
    m.put(
        "bus.wait_ms_per_req",
        fh.bus_wait.as_nanos() as f64 / 1e6 / fh.requests as f64,
    );
    m.put("bus.util", fh.bus_busy.as_nanos() as f64 / io_ns);
    m.put("mirror.failover_reads", fh.faults.failover_reads as f64);
    m.put("mirror.rebuilt_blocks", fh.faults.rebuilt_blocks as f64);
    let c = layers::counts(&tracers[1]);
    m.put("sched.queue_depth_mean", c.queue_depth_mean);
    m.put("sched.wait_ms_per_op", c.wait_ms_per_op);
    m.put("mirror.rebuild_busy_share", c.rebuild_busy_share);

    // Wall cost per layer, from the segm run's inputs.
    let timer = layers::timer_overhead_ns();
    let rp = layers::replay(&segm_cfg, wl, &tracers[0]);
    checks.extend(layers::check_replay(&rp, segm));
    eprintln!(
        "replay: scheduler picked differently {} times, mechanics timed differently {} times",
        rp.sched_mismatches, rp.mechanics_mismatches
    );
    let per_req = |n: u64| n as f64 / reqs;
    let ctl = rp.ctl.per_op(rp.ctl_extents, timer);
    let split = rp.split.ns_per_call(timer);
    let sched_op = rp.sched.ns_per_call(timer);
    let mech = rp.mechanics.ns_per_call(timer);
    let cal = rp.calendar.ns_per_call(timer);
    let bitmap = rp.bitmap.ns_per_call(timer);
    let bus = rp.bus.ns_per_call(timer);
    let host_ns = rp.host.per_op(rp.host_reqs, timer);
    m.put("core.ctl_ns_per_extent", ctl);
    m.put("array.extents_per_req", per_req(rp.extents));
    m.put("array.ns_per_split", split);
    m.put("sched.ns_per_op", sched_op);
    m.put("calendar.events_per_req", per_req(rp.calendar_events));
    m.put("calendar.ns_per_event", cal);
    m.put("mechanics.ns_per_service", mech);
    m.put("bitmap.ns_per_scan", bitmap);
    m.put("host.ns_per_req", host_ns);
    let rows = [
        budget::Row::new("forhdc-host StreamDriver", host_ns, 1.0),
        budget::Row::new("forhdc-sim StripingMap", split, 1.0),
        budget::Row::new("forhdc-core DiskController", ctl, per_req(rp.ctl_extents)),
        budget::Row::new("forhdc-sim Scheduler", sched_op, per_req(rp.sched.timed)),
        budget::Row::new(
            "forhdc-sim DiskMechanics",
            mech,
            per_req(rp.mechanics.timed),
        ),
        budget::Row::new("forhdc-sim LaneCalendar", cal, per_req(rp.calendar.timed)),
        budget::Row::new("forhdc-sim BusModel", bus, per_req(rp.bus.timed)),
    ];
    m.put(
        "budget.residual_ns_per_req",
        budget::residual(segm_ns_per_req, &rows),
    );
    let mut table = budget::render(
        &format!(
            "simulator budget ({} segm, untraced {segm_ns_per_req:.1} ns/req)",
            args.workload.name,
        ),
        "ns",
        segm_ns_per_req,
        &rows,
    );
    table.push_str(&format!(
        "  timer overhead subtracted: {timer:.1} ns/call\n"
    ));
    table
}

/// The live plane's per-layer metrics and budget, after the server is
/// down. Returns the budget table.
fn live_layers(
    args: &Args,
    image: &Path,
    sched: &Schedule,
    read_p50_ms: f64,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<String, String> {
    let spec = &args.workload.live;
    let phase = secs(args.seconds * LIVE_SHARE / 2.0);
    let e = live_layers::engine_replay(image, spec, sched, args.seed, 20_000, phase)?;
    checks.require(e.mismatches == 0, || {
        format!("in-process replay returned {} wrong payloads", e.mismatches)
    });
    let nblocks = match spec.shape {
        workloads::ReadShape::WholeFile => spec.file_blocks,
        workloads::ReadShape::OneBlock => 1,
    };
    let proto = live_layers::protocol_ns_per_read(nblocks, 20_000);
    let record = live_layers::metrics_record_ns(spec.disks, 200_000);
    m.put("protocol.ns_per_read", proto);
    m.put("metrics.record_ns", record);
    m.put("engine.hit_us_p50", e.hit_us_p50);
    m.put("engine.miss_us_p50", e.miss_us_p50);
    m.put("engine.read_us_p99.c2", e.read_us_p99_c2);
    m.put("engine.extent_hit_ratio", e.extent_hit_ratio);
    m.put("engine.media_blocks_per_read", e.media_blocks_per_read);
    m.put("engine.store_resident_blocks", e.store_resident_blocks);
    m.put("engine.store_fallbacks", e.store_fallbacks);
    m.put("engine.failover_reads", e.failover_reads);
    m.put("engine.rebuild_mb_per_s", e.rebuild_mb_per_s);
    let rows = [
        budget::Row::new("forhdc-serve engine (1 thread)", e.read_us_p50, 1.0),
        budget::Row::new("forhdc-serve protocol codec", proto / 1e3, 1.0),
        budget::Row::new("forhdc-metrics recording", record / 1e3, 1.0),
    ];
    let total_us = read_p50_ms * 1e3;
    m.put("server.overhead_us", budget::residual(total_us, &rows));
    Ok(budget::render(
        &format!(
            "live budget ({}, read_p50 {total_us:.1} us; residual = server loop + loopback TCP + client)",
            args.workload.name
        ),
        "us",
        total_us,
        &rows,
    ))
}
