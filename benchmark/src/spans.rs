//! Benchmark-side spans, kept in memory and written to `trace.json` when
//! the run ends. Chrome trace-event JSON (Perfetto opens it): a child span
//! is a slice nested inside its parent on the same track, and a layer's
//! self time is its slice minus the slices nested in it.

use rococo_telemetry::{Arg, TraceBuilder};
use std::time::Instant;

const PID: u32 = 1;
/// Track of the probe batches and replay blocks.
pub const PROBE_TRACK: u32 = 1;
/// Request `i` is drawn on track `REQUEST_TRACKS + i % WINDOW`: a window
/// slot holds one request at a time, so slices on a track never overlap.
pub const REQUEST_TRACKS: u32 = 100;

pub struct Spans {
    builder: TraceBuilder,
    epoch: Instant,
}

impl Spans {
    pub fn new() -> Self {
        let mut builder = TraceBuilder::new();
        builder.process_name(PID, "benchmark");
        builder.thread_name(PID, PROBE_TRACK, "probes");
        Self {
            builder,
            epoch: Instant::now(),
        }
    }

    /// Records `name` from `start` to `end` on `track`. `id` is shared by
    /// the spans of one request (or names the probe batch); `parent` names
    /// the span that caused this one, empty for a root.
    pub fn span(
        &mut self,
        track: u32,
        name: &str,
        parent: &str,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as f64 / 1e3;
        self.builder.complete(
            name,
            "benchmark",
            PID,
            track,
            us(start),
            us(end) - us(start),
            &[("id", Arg::from(id)), ("parent", Arg::from(parent))],
        );
    }

    pub fn len(&self) -> usize {
        self.builder.len()
    }

    pub fn render(&self) -> String {
        self.builder.render()
    }
}
