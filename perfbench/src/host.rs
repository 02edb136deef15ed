//! The host a run measured on: CPU count and model, the share of CPU
//! time the hypervisor stole during the run, and peak resident memory.
//!
//! These are diagnostics, not gated metrics: a set of runs with high
//! steal can be told apart from a regression by reading this line.

/// Aggregate CPU time counters from the first `cpu` line of
/// `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimes {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Time the hypervisor ran something else while this guest wanted
    /// the CPU.
    pub steal: u64,
}

/// Parses the aggregate `cpu ` line of `/proc/stat` text. `guest`
/// time is already counted inside `user`, so only the first eight
/// fields add up to the total. Kernels older than 2.6.11 have no
/// steal field; it then reads as zero.
pub fn parse_proc_stat(text: &str) -> Option<CpuTimes> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 4 {
        return None;
    }
    Some(CpuTimes {
        total: fields.iter().sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    })
}

/// The share of CPU time stolen between two readings (0 when no time
/// passed).
pub fn steal_fraction(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Reads the current aggregate CPU counters.
pub fn cpu_times() -> Option<CpuTimes> {
    parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// The first `model name` in `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Online CPUs as the process sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses `VmHWM` (peak resident set) out of `/proc/<pid>/status`
/// text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of process `pid` (`"self"` for this one), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(parse_vm_hwm_kb(&status)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  4705 150 1120 16250 520 0 25 300 0 0\n\
                        cpu0 2350 75 560 8125 260 0 12 150 0 0\n\
                        intr 1 2 3\n";

    #[test]
    fn parses_the_aggregate_line_with_steal() {
        let t = parse_proc_stat(STAT).expect("parses");
        assert_eq!(t.steal, 300);
        assert_eq!(t.total, 4705 + 150 + 1120 + 16250 + 520 + 25 + 300);
    }

    #[test]
    fn old_kernels_without_steal_read_zero() {
        let t = parse_proc_stat("cpu 10 0 5 85\n").expect("parses");
        assert_eq!(
            t,
            CpuTimes {
                total: 100,
                steal: 0
            }
        );
    }

    #[test]
    fn rejects_malformed_stat() {
        assert_eq!(parse_proc_stat("intr 1 2\n"), None);
        assert_eq!(parse_proc_stat("cpu 1 x 3 4\n"), None);
        assert_eq!(parse_proc_stat("cpu 1 2\n"), None);
    }

    #[test]
    fn steal_fraction_is_the_share_of_elapsed_ticks() {
        let a = CpuTimes {
            total: 1000,
            steal: 10,
        };
        let b = CpuTimes {
            total: 1200,
            steal: 40,
        };
        assert!((steal_fraction(a, b) - 0.15).abs() < 1e-12);
        assert_eq!(steal_fraction(a, a), 0.0);
    }

    #[test]
    fn parses_vm_hwm() {
        let s = "Name:\tserve\nVmPeak:\t  9000 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kb(s), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }
}
