//! Out-of-memory reports.
//!
//! A plan's memory is the arena its static memory planner lays out
//! (`gnnopt_core::memplan`); an arena past a device's capacity is the
//! Figure 11 OOM, reported as a [`MemoryError`].

use std::error::Error;
use std::fmt;

/// Error returned when a plan's memory exceeds a device's capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryError {
    /// Bytes of the named allocation (a plan's largest region).
    pub requested: u64,
    /// Bytes live beside it.
    pub live: u64,
    /// Device capacity.
    pub capacity: u64,
    /// Label of the named allocation.
    pub label: String,
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory: {} B planned of {} B capacity; largest region {} ({} B)",
            self.requested + self.live,
            self.capacity,
            self.label,
            self.requested
        )
    }
}

impl Error for MemoryError {}
