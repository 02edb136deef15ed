//! The live plane: `serve run` as its own process over images made by
//! `serve mkdisk`, driven by a closed-loop client from this process.
//!
//! Closed loop because a file server's callers (web or proxy workers)
//! each wait for their read before sending the next, as the paper's
//! streams do. Every READ payload is checked byte for byte against
//! `forhdc_serve::block_payload`.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use forhdc_serve::protocol::{read_response, write_request, ST_OK};
use forhdc_serve::{block_payload, rank_to_file, Request};

use crate::workloads::{LiveSpec, ReadShape, OFFLINE_MEMBER, REBUILD_MBPS, REBUILT_MEMBER};

/// Block size of every image (`serve mkdisk` writes 4 KB blocks).
pub const BLOCK_BYTES: u32 = 4096;

/// How long a server may take to bind and answer its first READ, or to
/// drain and exit after SHUTDOWN.
const START_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Builds the `serve` binary from the checkout at `root` (a no-op when
/// it is up to date) and returns its path. Cargo's output goes to
/// stderr so the result line stays last on stdout.
pub fn build_serve(root: &Path) -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "forhdc-serve",
            "--bin",
            "serve",
        ])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building serve failed ({status})"));
    }
    Ok(target.join("release").join("serve"))
}

/// Runs `serve mkdisk` for `spec` into `dir` (replacing what is there).
pub fn mkdisk(serve: &Path, dir: &Path, spec: &LiveSpec, seed: u64) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let out = Command::new(serve)
        .arg("mkdisk")
        .arg("--dir")
        .arg(dir)
        .args(["--disks", &spec.disks.to_string()])
        .args(["--unit", &spec.unit_blocks.to_string()])
        .args(["--files", &spec.files.to_string()])
        .args(["--file-blocks", &spec.file_blocks.to_string()])
        .args(["--seed", &seed.to_string()])
        .args(["--mirror", if spec.mirror { "1" } else { "0" }])
        .stdout(Stdio::null())
        .output()
        .map_err(|e| format!("running serve mkdisk: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "serve mkdisk failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(())
}

/// One request-response connection to the server.
pub struct Conn {
    stream: BufReader<TcpStream>,
    frame: Vec<u8>,
}

impl Conn {
    pub fn connect(port: u16) -> std::io::Result<Conn> {
        let s = TcpStream::connect(("127.0.0.1", port))?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream: BufReader::new(s),
            frame: Vec::with_capacity(32),
        })
    }

    /// Sends one request (as one write) and reads its response.
    pub fn call(&mut self, req: &Request) -> Result<(u8, Vec<u8>), String> {
        self.frame.clear();
        write_request(&mut self.frame, req).map_err(|e| e.to_string())?;
        self.stream
            .get_mut()
            .write_all(&self.frame)
            .map_err(|e| format!("send: {e}"))?;
        read_response(&mut self.stream).map_err(|e| format!("receive: {e}"))
    }
}

/// A running `serve run` process. Dropping it kills and reaps the
/// process; [`Server::shutdown`] drains it cleanly.
pub struct Server {
    child: Option<Child>,
    pub port: u16,
}

impl Server {
    /// Starts `serve run` over `dir` and waits until it has bound its
    /// port.
    pub fn start(serve: &Path, dir: &Path, spec: &LiveSpec) -> Result<Server, String> {
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(serve);
        cmd.arg("run")
            .arg("--dir")
            .arg(dir)
            .args(["--port", "0", "--threads", "2", "--policy", "for"])
            .args(["--hdc", &spec.hdc_kb.to_string()])
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if spec.mirror {
            cmd.args(["--rebuild-mbps", &REBUILD_MBPS.to_string()]);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("starting serve run: {e}"))?;
        let mut server = Server {
            child: Some(child),
            port: 0,
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if let Some(port) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                server.port = port;
                return Ok(server);
            }
            if let Some(Ok(Some(status))) = server.child.as_mut().map(Child::try_wait) {
                return Err(format!("serve run exited during start-up ({status})"));
            }
            if Instant::now() > deadline {
                return Err("serve run did not bind a port".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Sends SHUTDOWN and waits for the drained process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = Conn::connect(self.port).and_then(|mut c| {
            c.call(&Request::Shutdown)
                .map(|_| ())
                .map_err(std::io::Error::other)
        });
        let mut child = self.child.take().expect("server process");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve run exited with {status}")),
                Ok(None) if Instant::now() < deadline && sent.is_ok() => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("serve run did not drain after SHUTDOWN ({sent:?})"));
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// splitmix64: a small, seedable generator for the request schedule.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The read mix of one workload: Zipf over file popularity ranks, the
/// ranks mapped to files by the image's own popularity permutation (the
/// order `serve run --hdc` pins in).
#[derive(Debug, Clone)]
pub struct Schedule {
    cdf: Vec<f64>,
    rank_to_file: Vec<u32>,
    file_blocks: u32,
    shape: ReadShape,
}

impl Schedule {
    pub fn new(spec: &LiveSpec, image_seed: u64) -> Schedule {
        let mut cdf = Vec::with_capacity(spec.files as usize);
        let mut acc = 0.0;
        for r in 0..spec.files {
            acc += 1.0 / ((r + 1) as f64).powf(spec.zipf_alpha);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Schedule {
            cdf,
            rank_to_file: rank_to_file(spec.files, image_seed),
            file_blocks: spec.file_blocks,
            shape: spec.shape,
        }
    }

    /// The next `(file, offset, nblocks)` read.
    pub fn next(&self, rng: &mut Rng) -> (u32, u64, u32) {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        let file = self.rank_to_file[rank];
        match self.shape {
            ReadShape::WholeFile => (file, 0, self.file_blocks),
            ReadShape::OneBlock => (file, rng.next_u64() % self.file_blocks as u64, 1),
        }
    }

    /// The first block of the hottest file (the set-up probe).
    pub fn hottest(&self) -> (u32, u64, u32) {
        (self.rank_to_file[0], 0, 1)
    }
}

/// Whether `payload` is exactly the blocks `[offset, offset + n)` of
/// `file`.
pub fn payload_ok(file: u32, offset: u64, nblocks: u32, payload: &[u8]) -> bool {
    let bb = BLOCK_BYTES as usize;
    payload.len() == nblocks as usize * bb
        && payload
            .chunks_exact(bb)
            .enumerate()
            .all(|(i, b)| b == block_payload(file, offset + i as u64, BLOCK_BYTES).as_slice())
}

/// How the server answered one READ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// OK, with exactly the right bytes.
    Verified,
    /// An error status.
    Refused,
    /// OK, but with other bytes than the image holds.
    WrongPayload,
}

/// Sends one READ and checks the answer; `Err` when the connection
/// broke.
pub fn read_once(
    conn: &mut Conn,
    (file, offset, nblocks): (u32, u64, u32),
) -> Result<Outcome, String> {
    let (status, payload) = conn.call(&Request::Read {
        file,
        offset,
        nblocks,
    })?;
    Ok(if status != ST_OK {
        Outcome::Refused
    } else if payload_ok(file, offset, nblocks, &payload) {
        Outcome::Verified
    } else {
        Outcome::WrongPayload
    })
}

/// READ tallies of one phase: the warm-up, or one measured slice.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Latencies of READs that succeeded, ns.
    pub samples: Vec<u64>,
    pub attempted: u64,
    /// READs that failed: an error status, a wrong payload, or a broken
    /// connection.
    pub failed: u64,
    /// Of the failures, wrong payloads (a correctness failure, not load).
    pub mismatches: u64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }
}

/// One measured slice.
#[derive(Debug)]
pub struct Slice {
    pub tally: Tally,
    /// Wall-clock length, s.
    pub secs: f64,
    /// Share of CPU time the hypervisor stole during the slice.
    pub steal: f64,
}

/// What the client saw: the warm-up, then every measured slice.
#[derive(Debug)]
pub struct Drive {
    pub warm: Tally,
    pub slices: Vec<Slice>,
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    Run(Instant),
    Stop,
}

/// Drives `threads` closed-loop connections through a warm-up of
/// `warm`, then `slices` measured slices of `slice` each. Before each
/// slice the calling thread runs `between(i)` while the connections
/// idle, so other work can interleave with the slices; the connections
/// stay open throughout. Thread `i` draws from its own stream of the
/// schedule, seeded from `seed` and `i`. On the mirrored workload,
/// thread 0 also keeps the background rebuild going.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    port: u16,
    sched: &Schedule,
    seed: u64,
    threads: usize,
    warm: Duration,
    slices: usize,
    slice: Duration,
    mirror: bool,
    mut between: impl FnMut(usize),
) -> Drive {
    let phase = Mutex::new(Phase::Stop);
    let (go, done) = (Barrier::new(threads + 1), Barrier::new(threads + 1));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let (phase, go, done) = (&phase, &go, &done);
                s.spawn(move || {
                    let mut rng = Rng::new(seed ^ (0xC11E_u64 << 16) ^ i as u64);
                    let mut conn = Conn::connect(port).ok();
                    let mut tallies = Vec::new();
                    loop {
                        go.wait();
                        let Phase::Run(end) = *phase.lock().expect("phase lock poisoned") else {
                            break;
                        };
                        tallies.push(run_phase(
                            port,
                            sched,
                            &mut rng,
                            &mut conn,
                            end,
                            mirror && i == 0,
                        ));
                        done.wait();
                    }
                    tallies
                })
            })
            .collect();
        let run = |length: Duration| {
            let cpu0 = crate::host::cpu_times();
            let t0 = Instant::now();
            *phase.lock().expect("phase lock poisoned") = Phase::Run(t0 + length);
            go.wait();
            done.wait();
            let steal = match (cpu0, crate::host::cpu_times()) {
                (Some(a), Some(b)) => crate::host::steal_fraction(a, b),
                _ => 0.0,
            };
            (t0.elapsed().as_secs_f64(), steal)
        };
        run(warm);
        let mut timed = Vec::with_capacity(slices);
        for i in 0..slices {
            between(i);
            timed.push(run(slice));
        }
        *phase.lock().expect("phase lock poisoned") = Phase::Stop;
        go.wait();
        let mut phases = vec![Tally::default(); slices + 1];
        for h in handles {
            for (k, t) in h
                .join()
                .expect("client thread panicked")
                .into_iter()
                .enumerate()
            {
                phases[k].merge(t);
            }
        }
        let warm = phases.remove(0);
        Drive {
            warm,
            slices: phases
                .into_iter()
                .zip(timed)
                .map(|(tally, (secs, steal))| Slice { tally, secs, steal })
                .collect(),
        }
    })
}

/// One connection's closed loop until `end`. A broken connection counts
/// the read as failed and reconnects.
fn run_phase(
    port: u16,
    sched: &Schedule,
    rng: &mut Rng,
    conn: &mut Option<Conn>,
    end: Instant,
    rebuild_keeper: bool,
) -> Tally {
    let mut r = Tally::default();
    let mut next_rebuild = Instant::now();
    loop {
        let now = Instant::now();
        if now >= end {
            return r;
        }
        let read = sched.next(rng);
        r.attempted += 1;
        let Some(c) = conn.as_mut() else {
            r.failed += 1;
            *conn = Conn::connect(port).ok();
            if conn.is_none() {
                std::thread::sleep(Duration::from_millis(10));
            }
            continue;
        };
        if rebuild_keeper && now >= next_rebuild {
            // REBUILD is idempotent while a copy streams: this restarts
            // the copy whenever the previous one finished.
            let _ = c.call(&Request::Rebuild {
                disk: REBUILT_MEMBER,
            });
            next_rebuild = now + Duration::from_millis(100);
        }
        let t0 = Instant::now();
        let outcome = read_once(c, read);
        let ns = t0.elapsed().as_nanos() as u64;
        match outcome {
            Ok(Outcome::Verified) => r.samples.push(ns),
            Ok(Outcome::Refused) => r.failed += 1,
            Ok(Outcome::WrongPayload) => {
                r.failed += 1;
                r.mismatches += 1;
            }
            Err(_) => {
                r.failed += 1;
                *conn = None;
            }
        }
    }
}

/// Takes the mirrored workload's member offline for the rest of the
/// run (`ms` long) over an admin connection.
pub fn hold_offline(port: u16, ms: u64) -> Result<(), String> {
    let mut c = Conn::connect(port).map_err(|e| format!("connect: {e}"))?;
    let (status, body) = c.call(&Request::FaultOffline {
        disk: OFFLINE_MEMBER,
        ms,
    })?;
    if status != ST_OK {
        return Err(format!(
            "FAULT OFFLINE refused: {}",
            String::from_utf8_lossy(&body)
        ));
    }
    Ok(())
}

/// The server's Prometheus exposition, fetched over the wire.
pub fn scrape(port: u16) -> Result<forhdc_metrics::Scrape, String> {
    let mut c = Conn::connect(port).map_err(|e| format!("connect: {e}"))?;
    let (status, body) = c.call(&Request::Metrics)?;
    if status != ST_OK {
        return Err("METRICS refused".to_string());
    }
    forhdc_metrics::Scrape::parse(&String::from_utf8_lossy(&body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(shape: ReadShape) -> LiveSpec {
        LiveSpec {
            disks: 4,
            unit_blocks: 4,
            files: 64,
            file_blocks: 8,
            zipf_alpha: 0.6,
            shape,
            hdc_kb: 0,
            mirror: false,
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let s = Schedule::new(&spec(ReadShape::OneBlock), 7);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..100).map(|_| s.next(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        for (file, offset, n) in draw(3) {
            assert!(file < 64 && offset < 8 && n == 1);
        }
    }

    #[test]
    fn schedule_favours_the_hottest_ranks() {
        let s = Schedule::new(&spec(ReadShape::WholeFile), 7);
        let mut rng = Rng::new(9);
        let hottest = s.hottest().0;
        let hits = (0..10_000)
            .filter(|_| s.next(&mut rng).0 == hottest)
            .count();
        // Zipf(0.6) over 64 ranks gives rank 0 about 7 % of draws,
        // against 1.6 % for a uniform choice.
        assert!(hits > 400, "{hits}");
    }

    #[test]
    fn payload_check_accepts_only_the_exact_blocks() {
        let mut p = block_payload(5, 2, BLOCK_BYTES);
        p.extend(block_payload(5, 3, BLOCK_BYTES));
        assert!(payload_ok(5, 2, 2, &p));
        assert!(!payload_ok(5, 3, 2, &p));
        assert!(!payload_ok(5, 2, 1, &p));
        p[5000] ^= 1;
        assert!(!payload_ok(5, 2, 2, &p));
    }
}
