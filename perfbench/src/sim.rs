//! The simulator plane: `forhdc-core`'s `System` over a
//! `forhdc-workload` server clone, in-process, serially, on one thread.

use std::hint::black_box;
use std::time::{Duration, Instant};

use forhdc_core::{
    FaultConfig, OfflineWindow, RebuildConfig, RecoveryPolicy, Report, SeededFaults, System,
    SystemConfig,
};
use forhdc_sim::{ReadSplit, SimDuration};
use forhdc_trace::{TraceEvent, Tracer};
use forhdc_workload::{ServerKind, ServerWorkloadSpec, Workload};

use crate::stats::{calmest, median};
use crate::workloads::SimSpec;

/// The paper's HDC size per disk.
const HDC_BYTES: u64 = 2 * 1024 * 1024;

/// The simulated replica outage and rebuild of the mirrored workload:
/// the `fig-mirror` shape (member 1 drops out, its reconstruction
/// starts when it returns, paced well below the contention limit)
/// stretched over the Web clone's ~2 simulated minutes. The outage
/// stays shorter than the request timeout, so writes queued behind the
/// offline member wait it out instead of failing.
const OFFLINE_DISK: u16 = 1;
const OFFLINE_START_NS: u64 = 10_000_000_000;
const OFFLINE_END_NS: u64 = 16_000_000_000;
const REBUILD_RATE: u64 = 1 << 20;
const REBUILD_CHUNK: u32 = 32;
const REBUILD_BLOCKS: u64 = 16_384;

/// The two configurations every workload runs: the conventional
/// baseline and the paper's headline.
pub const CONFIGS: [&str; 2] = ["segm", "for_hdc"];

/// The server clone at `seed`. Seed 0 is the clone the paper's figures
/// use; other seeds shift the clone's own seed.
pub fn generate(spec: &SimSpec, seed: u64) -> Workload {
    let base = match spec.kind {
        ServerKind::Web => ServerWorkloadSpec::web(),
        ServerKind::Proxy => ServerWorkloadSpec::proxy(),
        ServerKind::File => ServerWorkloadSpec::file_server(),
    };
    let clone_seed = base.seed.wrapping_add(seed);
    base.with_seed(clone_seed).generate().workload
}

/// The `SystemConfig` of one of [`CONFIGS`].
pub fn config(spec: &SimSpec, name: &str) -> SystemConfig {
    let base = match name {
        "segm" => SystemConfig::segm(),
        "for_hdc" => SystemConfig::for_().with_hdc(HDC_BYTES),
        other => unreachable!("unknown config {other}"),
    };
    let cfg = base.with_striping_unit(spec.unit_kb * 1024);
    if !spec.mirror {
        return cfg;
    }
    cfg.with_mirroring()
        .with_read_split(ReadSplit::RoundRobin)
        .with_rebuild(RebuildConfig {
            disk: OFFLINE_DISK,
            start: SimDuration::from_nanos(OFFLINE_END_NS),
            rate_bytes_per_sec: REBUILD_RATE,
            chunk_blocks: REBUILD_CHUNK,
            total_blocks: REBUILD_BLOCKS,
        })
        // As in `fig-mirror`: a pathological schedule cannot wedge a run.
        .with_recovery(RecoveryPolicy {
            request_timeout: Some(SimDuration::from_secs(10)),
            ..RecoveryPolicy::default()
        })
}

fn faults(seed: u64) -> SeededFaults {
    SeededFaults::new(FaultConfig::new(seed).with_offline(OfflineWindow {
        disk: OFFLINE_DISK,
        start_ns: OFFLINE_START_NS,
        end_ns: OFFLINE_END_NS,
    }))
}

/// One untraced run, timed: `(report, System::new ns, run ns)`.
pub fn run_timed(
    spec: &SimSpec,
    cfg: &SystemConfig,
    wl: &Workload,
    seed: u64,
) -> (Report, u64, u64) {
    let t0 = Instant::now();
    if spec.mirror {
        let sys = System::new_faulted(cfg.clone(), black_box(wl), faults(seed));
        let t1 = Instant::now();
        let r = black_box(sys.run());
        (
            r,
            (t1 - t0).as_nanos() as u64,
            t1.elapsed().as_nanos() as u64,
        )
    } else {
        let sys = System::new(cfg.clone(), black_box(wl));
        let t1 = Instant::now();
        let r = black_box(sys.run());
        (
            r,
            (t1 - t0).as_nanos() as u64,
            t1.elapsed().as_nanos() as u64,
        )
    }
}

/// One traced run: `(report, tracer, wall ns of new + run)`.
pub fn run_traced<T: Tracer>(
    spec: &SimSpec,
    cfg: &SystemConfig,
    wl: &Workload,
    seed: u64,
    tracer: T,
) -> (Report, T, u64) {
    let t0 = Instant::now();
    let (r, t) = if spec.mirror {
        System::new_traced_faulted(cfg.clone(), wl, tracer, faults(seed)).run_traced()
    } else {
        System::new_traced(cfg.clone(), wl, tracer).run_traced()
    };
    (r, t, t0.elapsed().as_nanos() as u64)
}

/// Collects every request's simulated response time, so quantiles are
/// exact rather than read off the report's log-bucketed histogram.
#[derive(Debug, Default)]
pub struct ResponseTracer {
    pub responses_ns: Vec<u64>,
}

impl Tracer for ResponseTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, ev: TraceEvent) {
        if let TraceEvent::Complete { response, .. } = ev {
            self.responses_ns.push(response);
        }
    }
}

/// Repeated untraced runs of both configurations.
#[derive(Default)]
pub struct Timing {
    /// Per repetition: wall ns of `System::new` + `run` over both
    /// configurations, divided by the requests they simulated.
    pub ns_per_req: Vec<f64>,
    /// Per repetition: the share of CPU time the hypervisor stole.
    pub steal: Vec<f64>,
    /// Per run: `System::new` wall time, ms.
    pub build_ms: Vec<f64>,
    /// The first repetition's reports, in [`CONFIGS`] order.
    pub reports: Vec<Report>,
    /// Repetitions whose reports differed from the first's.
    pub nondeterministic: usize,
}

impl Timing {
    /// The median over the calmer half of the repetitions, ranked by
    /// stolen CPU time: a repetition the hypervisor stole from measures
    /// the host's neighbours, not the simulator.
    pub fn median_ns_per_req(&self) -> f64 {
        let calm = calmest(&self.steal, self.steal.len().div_ceil(2));
        median(&calm.iter().map(|&i| self.ns_per_req[i]).collect::<Vec<_>>()).unwrap_or(0.0)
    }
}

/// Repeats both configurations back to back until `budget` has passed
/// and at least `min_reps` repetitions ran, adding to `t`. One
/// simulation is too short to time on a shared host (single runs
/// ranged over +-25 % across processes); the median of many
/// repetitions is steady. Each repetition records the steal charged
/// during it.
pub fn measure(
    t: &mut Timing,
    spec: &SimSpec,
    wl: &Workload,
    seed: u64,
    budget: Duration,
    min_reps: usize,
) {
    let cfgs: Vec<SystemConfig> = CONFIGS.iter().map(|c| config(spec, c)).collect();
    let start = Instant::now();
    let mut reps = 0;
    while reps < min_reps || start.elapsed() < budget {
        let mut wall = 0u64;
        let mut requests = 0u64;
        let cpu0 = crate::host::cpu_times();
        for (i, cfg) in cfgs.iter().enumerate() {
            let (r, build, run) = run_timed(spec, cfg, wl, seed);
            wall += build + run;
            requests += r.requests;
            t.build_ms.push(build as f64 / 1e6);
            match t.reports.get(i) {
                None => t.reports.push(r),
                Some(first) => {
                    if first.io_time != r.io_time || first.cache.extent_hits != r.cache.extent_hits
                    {
                        t.nondeterministic += 1;
                    }
                }
            }
        }
        t.ns_per_req.push(wall as f64 / requests.max(1) as f64);
        t.steal.push(match (cpu0, crate::host::cpu_times()) {
            (Some(a), Some(b)) => crate::host::steal_fraction(a, b),
            _ => 0.0,
        });
        reps += 1;
    }
}

/// The I/O time as the results CSVs print it.
pub fn csv_cell(r: &Report) -> String {
    format!("{:.1}", r.io_time.as_nanos() as f64 / 1e9)
}

/// Output checks on one configuration's report. Returns the failures.
pub fn check_report(spec: &SimSpec, name: &str, r: &Report, wl: &Workload) -> Vec<String> {
    let mut bad = Vec::new();
    if r.requests != wl.trace.len() as u64 {
        bad.push(format!(
            "{name}: completed {} requests of the trace's {}",
            r.requests,
            wl.trace.len()
        ));
    }
    if r.faults.failed_requests != 0 || r.faults.timeouts != 0 {
        bad.push(format!(
            "{name}: {} failed and {} timed-out requests",
            r.faults.failed_requests, r.faults.timeouts
        ));
    }
    if spec.mirror {
        if r.mirror_reads != r.mirror_policy_reads + r.faults.failover_reads {
            bad.push(format!(
                "{name}: mirror reads {} != split {} + failover {}",
                r.mirror_reads, r.mirror_policy_reads, r.faults.failover_reads
            ));
        }
        if r.faults.failover_reads == 0 || r.faults.rebuilt_blocks == 0 {
            bad.push(format!(
                "{name}: the outage forced {} failovers and the rebuild copied {} blocks",
                r.faults.failover_reads, r.faults.rebuilt_blocks
            ));
        }
    }
    bad
}

/// The `segm` and `for_hdc` cells of a results CSV's row for
/// `unit_kb`.
pub fn oracle_cells(csv: &str, unit_kb: u32) -> Option<(String, String)> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next()?.split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name);
    let (unit, segm, for_hdc) = (col("unit_kb")?, col("segm")?, col("for_hdc")?);
    lines
        .map(|l| l.split(',').collect::<Vec<&str>>())
        .find(|cells| cells.get(unit) == Some(&unit_kb.to_string().as_str()))
        .and_then(|cells| {
            Some((
                cells.get(segm)?.to_string(),
                cells.get(for_hdc)?.to_string(),
            ))
        })
}

/// At the default seed, the I/O times must equal the committed results
/// CSV's cells. Returns the failures.
pub fn check_oracle(spec: &SimSpec, reports: &[Report]) -> Vec<String> {
    let Some(file) = spec.oracle else {
        return Vec::new();
    };
    let Some((segm, for_hdc)) = std::fs::read_to_string(file)
        .ok()
        .and_then(|csv| oracle_cells(&csv, spec.unit_kb))
    else {
        return vec![format!("{file} has no {}-KB row", spec.unit_kb)];
    };
    let mut bad = Vec::new();
    for (r, (name, want)) in reports.iter().zip([("segm", segm), ("for_hdc", for_hdc)]) {
        let got = csv_cell(r);
        if got != want {
            bad.push(format!(
                "{name} I/O time {got} s differs from {file}'s {}-KB cell {want} s",
                spec.unit_kb
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_cells_pick_the_unit_row() {
        let csv = "unit_kb,segm,segm_hdc,for,for_hdc,hdc_hit_%\n4,314.0,287.6,196.9,181.8,10.6\n16,198.3,180.0,125.7,115.4,10.6\n";
        assert_eq!(
            oracle_cells(csv, 16),
            Some(("198.3".to_string(), "115.4".to_string()))
        );
        assert_eq!(oracle_cells(csv, 32), None);
        assert_eq!(oracle_cells("a,b\n1,2\n", 16), None);
    }
}
