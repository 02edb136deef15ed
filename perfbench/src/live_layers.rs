//! The live plane's per-layer numbers, measured in-process.
//!
//! The image the server just served is opened again with
//! `Engine::open_with`, and the same request schedule is replayed
//! through `Engine::read`: first from one thread (hit and miss path
//! latency, told apart by whether the read reached the media), then
//! from two (tail latency under the per-disk mutexes). The frame codec
//! and the server's per-READ metrics recording are timed on their own.

use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use forhdc_core::ReadAheadKind;
use forhdc_serve::protocol::{read_request, read_response, write_request, write_response, ST_OK};
use forhdc_serve::{open_dir, Engine, LiveOpts, OpKind, Request, ServeMetrics};

use crate::live::{payload_ok, Rng, Schedule, BLOCK_BYTES};
use crate::stats::nearest_rank;
use crate::workloads::{LiveSpec, OFFLINE_MEMBER, REBUILD_MBPS, REBUILT_MEMBER};

#[derive(Debug, Default)]
pub struct EngineLayers {
    /// One thread, all reads: median latency, us.
    pub read_us_p50: f64,
    pub hit_us_p50: f64,
    pub miss_us_p50: f64,
    /// Two threads: p99 latency, us.
    pub read_us_p99_c2: f64,
    pub extent_hit_ratio: f64,
    pub media_blocks_per_read: f64,
    pub store_resident_blocks: f64,
    pub store_fallbacks: f64,
    pub failover_reads: f64,
    pub rebuild_mb_per_s: f64,
    /// Reads whose bytes were wrong.
    pub mismatches: u64,
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |v| v as f64 / 1e3)
}

fn media_reads(e: &Engine) -> u64 {
    e.metrics()
        .disk_media_reads_total
        .iter()
        .map(|c| c.get())
        .sum()
}

/// Replays `sched` through an in-process engine over `dir`: `warm`
/// untimed reads, then `phase` of timed reads from one thread and
/// `phase` from two.
pub fn engine_replay(
    dir: &Path,
    spec: &LiveSpec,
    sched: &Schedule,
    seed: u64,
    warm: usize,
    phase: Duration,
) -> Result<EngineLayers, String> {
    let meta = open_dir(dir)?;
    let hdc_blocks = (spec.hdc_kb * 1024 / BLOCK_BYTES as u64) as u32;
    let opts = LiveOpts {
        rebuild_mbps: if spec.mirror { REBUILD_MBPS } else { 0 },
        ..LiveOpts::default()
    };
    let engine = Arc::new(Engine::open_with(
        dir,
        meta,
        ReadAheadKind::For,
        hdc_blocks,
        opts,
    )?);
    let mut out = EngineLayers::default();
    let mut rng = Rng::new(seed ^ 0xE461_0E00);
    let mut buf = Vec::new();
    for _ in 0..warm {
        let (f, o, n) = sched.next(&mut rng);
        buf.clear();
        engine.read(f, o, n, &mut buf).map_err(|e| e.to_string())?;
    }

    // One thread.
    let before = engine.snapshot();
    let (mut all, mut hits, mut misses) = (Vec::new(), Vec::new(), Vec::new());
    let end = Instant::now() + phase;
    while Instant::now() < end {
        let (f, o, n) = sched.next(&mut rng);
        buf.clear();
        let media = media_reads(&engine);
        let t0 = Instant::now();
        let r = engine.read(f, o, n, &mut buf);
        let ns = t0.elapsed().as_nanos() as u64;
        r.map_err(|e| e.to_string())?;
        out.mismatches += u64::from(!payload_ok(f, o, n, &buf));
        all.push(ns);
        if media_reads(&engine) == media {
            hits.push(ns);
        } else {
            misses.push(ns);
        }
    }
    let after = engine.snapshot();
    for v in [&mut all, &mut hits, &mut misses] {
        v.sort_unstable();
    }
    out.read_us_p50 = us(nearest_rank(&all, 0.5));
    out.hit_us_p50 = us(nearest_rank(&hits, 0.5));
    out.miss_us_p50 = us(nearest_rank(&misses, 0.5));
    let lookups = after.extent_lookups() - before.extent_lookups();
    if lookups > 0 {
        out.extent_hit_ratio = (after.extent_hits() - before.extent_hits()) as f64 / lookups as f64;
    }
    let blocks =
        |s: &forhdc_serve::EngineSnapshot| s.disks.iter().map(|d| d.media_blocks).sum::<u64>();
    out.media_blocks_per_read = (blocks(&after) - blocks(&before)) as f64 / all.len().max(1) as f64;

    // Two threads; on the mirror, degraded and rebuilding.
    if spec.mirror {
        engine
            .set_offline_ms(OFFLINE_MEMBER, 600_000)
            .map_err(|e| e.to_string())?;
    }
    let failover0 = engine.snapshot().failover_reads();
    let copied0 = engine.metrics().rebuild_blocks_total.get();
    let t_start = Instant::now();
    let end = t_start + phase;
    let results: Vec<Result<(Vec<u64>, u64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|i| {
                let engine = &engine;
                s.spawn(move || {
                    let mut rng = Rng::new(seed ^ 0xE461_0E02 ^ i);
                    let mut buf = Vec::new();
                    let (mut lat, mut bad) = (Vec::new(), 0u64);
                    let mut next_rebuild = Instant::now();
                    while Instant::now() < end {
                        if spec.mirror && i == 0 && Instant::now() >= next_rebuild {
                            engine.rebuild(REBUILT_MEMBER).map_err(|e| e.to_string())?;
                            next_rebuild = Instant::now() + Duration::from_millis(100);
                        }
                        let (f, o, n) = sched.next(&mut rng);
                        buf.clear();
                        let t0 = Instant::now();
                        let r = engine.read(f, o, n, &mut buf);
                        lat.push(t0.elapsed().as_nanos() as u64);
                        r.map_err(|e| e.to_string())?;
                        bad += u64::from(!payload_ok(f, o, n, &buf));
                    }
                    Ok((lat, bad))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let elapsed = t_start.elapsed().as_secs_f64();
    let mut lat = Vec::new();
    for r in results {
        let (l, bad) = r?;
        lat.extend(l);
        out.mismatches += bad;
    }
    lat.sort_unstable();
    out.read_us_p99_c2 = us(nearest_rank(&lat, 0.99));
    let snap = engine.snapshot();
    out.failover_reads = (snap.failover_reads() - failover0) as f64;
    out.rebuild_mb_per_s = (engine.metrics().rebuild_blocks_total.get() - copied0) as f64
        * BLOCK_BYTES as f64
        / 1e6
        / elapsed;
    out.store_resident_blocks = snap.disks.iter().map(|d| d.store_resident).sum::<usize>() as f64;
    out.store_fallbacks = snap.disks.iter().map(|d| d.store_fallbacks).sum::<u64>() as f64;

    // A rebuild stream holds the engine: let it finish before the
    // images are removed.
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.rebuild_active(REBUILT_MEMBER) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok(out)
}

/// Wall ns of one READ through the frame codec: the client encodes the
/// request, the server decodes it and encodes an `nblocks` response,
/// the client decodes that.
pub fn protocol_ns_per_read(nblocks: u32, iters: u32) -> f64 {
    let payload = vec![0x5Au8; nblocks as usize * BLOCK_BYTES as usize];
    let req = Request::Read {
        file: 3,
        offset: 0,
        nblocks,
    };
    let (mut wire_req, mut wire_resp) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    for _ in 0..iters {
        wire_req.clear();
        wire_resp.clear();
        write_request(&mut wire_req, black_box(&req)).expect("in-memory write");
        let got = read_request(&mut Cursor::new(&wire_req)).expect("own frame parses");
        debug_assert_eq!(got, Some(req));
        write_response(&mut wire_resp, ST_OK, black_box(&payload)).expect("in-memory write");
        let (status, body) = read_response(&mut Cursor::new(&wire_resp)).expect("own frame parses");
        black_box((status, body));
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Wall ns of the server's own per-READ metrics recording: the READ
/// counter and the latency histogram (the engine records the rest, and
/// is timed with it).
pub fn metrics_record_ns(disks: u16, iters: u32) -> f64 {
    let m = ServeMetrics::new(disks);
    let idx = OpKind::Read.index();
    let t0 = Instant::now();
    for i in 0..iters as u64 {
        m.requests_total[idx].inc();
        m.op_latency_ns[idx].record(black_box(40_000 + (i & 0xFFF)));
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}
