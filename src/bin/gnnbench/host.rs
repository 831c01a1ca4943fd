//! What the run ran on: every thread-dependent number is printed beside
//! the core count and cache sizes it was taken with.

use std::fs;

/// Threads every measured workload compiles into its plan. One, because
/// the reference host's two vCPUs are at times two cores, at times two
/// hyper-threads of one core and at times one time-sliced core: with two
/// threads the same code reads 450 to 800 ms per step by the minute
/// (ten-seed spread 6 to 26 %), with one thread it repeats within 1 to
/// 3 %. The parallel path is measured beside it, ungated, as
/// `exec.thread_speedup` (see the README's noise section).
pub const MEASURED_THREADS: usize = 1;

/// Width of the parallel probe: `min(nproc, 4)`.
pub const MAX_PARALLEL_THREADS: usize = 4;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub parallel_threads: usize,
    pub cpu_model: String,
    /// Per-core L2 and shared L3 in bytes (0 when the kernel does not say).
    pub l2_bytes: usize,
    pub l3_bytes: usize,
    pub avx2: bool,
}

impl Host {
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Self {
            nproc,
            parallel_threads: nproc.min(MAX_PARALLEL_THREADS),
            cpu_model,
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
            avx2,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "host: {} | nproc {} | threads {MEASURED_THREADS} (parallel probe: {}) | L2 {} KiB | L3 {} KiB | avx2 {}",
            self.cpu_model,
            self.nproc,
            self.parallel_threads,
            self.l2_bytes / 1024,
            self.l3_bytes / 1024,
            if self.avx2 { "yes" } else { "no" }
        )
    }
}

/// Size of cpu0's cache at `level`, from sysfs (`"4096K"`, `"260M"`).
fn cache_bytes(level: u32) -> usize {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let lvl: u32 = fs::read_to_string(format!("{dir}/level"))
                .ok()?
                .trim()
                .parse()
                .ok()?;
            let kind = fs::read_to_string(format!("{dir}/type")).ok()?;
            (lvl == level && kind.trim() != "Instruction")
                .then(|| parse_size(fs::read_to_string(format!("{dir}/size")).ok()?.trim()))?
        })
        .next()
        .unwrap_or(0)
}

fn parse_size(s: &str) -> Option<usize> {
    let (digits, unit) = s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
    let n: usize = digits.parse().ok()?;
    match unit {
        "" => Some(n),
        "K" => Some(n << 10),
        "M" => Some(n << 20),
        "G" => Some(n << 30),
        _ => None,
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
pub fn rss_hwm_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_cache_sizes() {
        assert_eq!(parse_size("4096K"), Some(4 << 20));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("12Q"), None);
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn detected_host_is_usable() {
        let h = Host::detect();
        assert!(h.nproc >= 1 && (1..=MAX_PARALLEL_THREADS).contains(&h.parallel_threads));
        assert!(h.describe().contains("threads"));
    }
}
