//! Kernel execution timelines: an ordered trace of simulated kernel
//! launches with per-phase breakdowns and JSON export.
//!
//! The paper's figures report three scalars per run (latency, IO,
//! memory); a timeline preserves the *composition* of those scalars —
//! which kernels dominate, how the forward/backward split shifts under
//! each optimization (`gnnopt-inspect <model> <preset> timeline`).

use crate::KernelProfile;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which pass of training a kernel belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TracePhase {
    /// Forward (inference) kernels.
    Forward,
    /// Backward (gradient) kernels, including recompute work.
    Backward,
}

impl fmt::Display for TracePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TracePhase::Forward => f.write_str("forward"),
            TracePhase::Backward => f.write_str("backward"),
        }
    }
}

/// One simulated kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelEvent {
    /// Kernel label (typically the fused ops' names).
    pub name: String,
    /// Forward or backward.
    pub phase: TracePhase,
    /// Start time in seconds since the trace began.
    pub start: f64,
    /// Modeled duration in seconds.
    pub duration: f64,
    /// Resource profile the duration was derived from.
    pub profile: KernelProfile,
}

/// Aggregates of one phase of a [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Number of kernels.
    pub kernels: u64,
    /// Summed modeled latency in seconds.
    pub latency: f64,
    /// Summed FLOPs.
    pub flops: u64,
    /// Summed DRAM traffic (read + written bytes).
    pub io_bytes: u64,
}

/// An ordered trace of simulated kernel launches.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    events: Vec<KernelEvent>,
    cursor: f64,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a kernel at the current cursor and advances it.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        phase: TracePhase,
        profile: KernelProfile,
        duration: f64,
    ) {
        self.events.push(KernelEvent {
            name: name.into(),
            phase,
            start: self.cursor,
            duration,
            profile,
        });
        self.cursor += duration;
    }

    /// All recorded events in launch order.
    pub fn events(&self) -> &[KernelEvent] {
        &self.events
    }

    /// End-to-end modeled latency (the cursor position).
    pub fn total_latency(&self) -> f64 {
        self.cursor
    }

    /// Aggregates for one phase.
    pub fn breakdown(&self, phase: TracePhase) -> PhaseBreakdown {
        let mut b = PhaseBreakdown::default();
        for e in self.events.iter().filter(|e| e.phase == phase) {
            b.kernels += 1;
            b.latency += e.duration;
            b.flops += e.profile.flops;
            b.io_bytes += e.profile.bytes_total();
        }
        b
    }

    /// The `k` longest events, longest first (for "which kernel dominates"
    /// reporting).
    pub fn hotspots(&self, k: usize) -> Vec<&KernelEvent> {
        let mut sorted: Vec<&KernelEvent> = self.events.iter().collect();
        sorted.sort_by(|a, b| b.duration.total_cmp(&a.duration));
        sorted.truncate(k);
        sorted
    }

    /// Serializes the trace to JSON (one object with an `events` array).
    ///
    /// # Errors
    ///
    /// Returns a [`serde_json::Error`] if serialization fails (it cannot
    /// for this type in practice).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a trace previously produced by [`Timeline::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`serde_json::Error`] on malformed input.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<34} {:>8} {:>12} {:>12} {:>12}",
            "kernel", "phase", "start (µs)", "dur (µs)", "IO (KiB)"
        )?;
        for e in &self.events {
            writeln!(
                f,
                "{:<34} {:>8} {:>12.2} {:>12.2} {:>12.1}",
                truncate_label(&e.name, 34),
                e.phase.to_string(),
                e.start * 1e6,
                e.duration * 1e6,
                e.profile.bytes_total() as f64 / 1024.0
            )?;
        }
        write!(f, "total: {:.2} µs", self.total_latency() * 1e6)
    }
}

fn truncate_label(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_owned()
    } else {
        format!(
            "{}…",
            &s[..s
                .char_indices()
                .take(max - 1)
                .last()
                .map_or(0, |(i, c)| i + c.len_utf8())]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadMapping;

    fn profile(flops: u64) -> KernelProfile {
        KernelProfile {
            flops,
            bytes_read: 1024,
            bytes_written: 512,
            mapping: ThreadMapping::VertexBalanced,
            atomic_reduction: false,
        }
    }

    #[test]
    fn cursor_advances_and_totals() {
        let mut t = Timeline::new();
        t.record("scatter", TracePhase::Forward, profile(10), 1e-6);
        t.record("gather", TracePhase::Forward, profile(20), 2e-6);
        t.record("scatter_bwd", TracePhase::Backward, profile(30), 3e-6);
        assert_eq!(t.events().len(), 3);
        assert!((t.total_latency() - 6e-6).abs() < 1e-18);
        assert!((t.events()[1].start - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn breakdown_separates_phases() {
        let mut t = Timeline::new();
        t.record("a", TracePhase::Forward, profile(10), 1e-6);
        t.record("b", TracePhase::Backward, profile(20), 5e-6);
        let fwd = t.breakdown(TracePhase::Forward);
        let bwd = t.breakdown(TracePhase::Backward);
        assert_eq!(fwd.kernels, 1);
        assert_eq!(bwd.kernels, 1);
        assert_eq!(fwd.flops, 10);
        assert_eq!(bwd.flops, 20);
        assert!(bwd.latency > fwd.latency);
        assert_eq!(fwd.io_bytes, 1536);
    }

    #[test]
    fn hotspots_sorted_by_duration() {
        let mut t = Timeline::new();
        t.record("short", TracePhase::Forward, profile(1), 1e-6);
        t.record("long", TracePhase::Forward, profile(2), 9e-6);
        t.record("mid", TracePhase::Backward, profile(3), 4e-6);
        let hot = t.hotspots(2);
        assert_eq!(hot[0].name, "long");
        assert_eq!(hot[1].name, "mid");
    }

    #[test]
    fn json_roundtrip_is_bit_exact() {
        let mut t = Timeline::new();
        // Deliberately awkward f64s: exact round-tripping requires
        // serde_json's float_roundtrip feature.
        t.record("k", TracePhase::Backward, profile(7), 2.977258426966292e-5);
        t.record("l", TracePhase::Forward, profile(9), 5.715418803418803e-6);
        let s = t.to_json().unwrap();
        let back = Timeline::from_json(&s).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn display_renders_rows_and_total() {
        let mut t = Timeline::new();
        t.record(
            "very_long_kernel_name_that_overflows_the_column",
            TracePhase::Forward,
            profile(1),
            1e-6,
        );
        let s = t.to_string();
        assert!(s.contains("total:"));
        assert!(s.contains("forward"));
        assert!(s.lines().count() >= 3);
    }
}
