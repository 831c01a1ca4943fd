use serde::{Deserialize, Serialize};

/// Aggregated execution statistics for one model pass (forward or
/// forward + backward) — the three axes of the paper's figures plus
/// supporting detail.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ExecStats {
    /// Number of kernels launched.
    pub kernels: u64,
    /// Total floating-point operations.
    pub flops: u64,
    /// DRAM bytes read.
    pub bytes_read: u64,
    /// DRAM bytes written.
    pub bytes_written: u64,
    /// Peak simulated memory residency in bytes.
    pub peak_memory: u64,
    /// Bytes stashed across the forward→backward boundary.
    pub stashed_bytes: u64,
    /// Modeled latency in seconds on the target device.
    pub latency: f64,
}

impl ExecStats {
    /// Total DRAM traffic (the paper's "IO" axis).
    pub fn total_io(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Accumulates another stats record (kernels, FLOPs, IO and latency
    /// add; peak memory takes the max).
    pub fn merge(&mut self, other: &ExecStats) {
        self.kernels += other.kernels;
        self.flops += other.flops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.peak_memory = self.peak_memory.max(other.peak_memory);
        self.stashed_bytes += other.stashed_bytes;
        self.latency += other.latency;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_semantics() {
        let mut a = ExecStats {
            kernels: 2,
            flops: 10,
            bytes_read: 100,
            bytes_written: 20,
            peak_memory: 500,
            stashed_bytes: 5,
            latency: 0.5,
        };
        let b = ExecStats {
            kernels: 1,
            flops: 5,
            bytes_read: 50,
            bytes_written: 10,
            peak_memory: 700,
            stashed_bytes: 2,
            latency: 0.25,
        };
        a.merge(&b);
        assert_eq!(a.kernels, 3);
        assert_eq!(a.total_io(), 180);
        assert_eq!(a.peak_memory, 700);
        assert!((a.latency - 0.75).abs() < 1e-12);
    }

    #[test]
    fn default_is_zero() {
        let s = ExecStats::default();
        assert_eq!(s.total_io(), 0);
        assert_eq!(s.kernels, 0);
    }
}
