//! In-memory span recording for the traced run.
//!
//! Every span adds its duration to its layer's busy total; one root span
//! in [`SAMPLE_EVERY`] (and every child opened under it) is also kept
//! verbatim — name, start, end and parent — so the structure can be
//! inspected without the recorder allocating per access. Nothing is
//! written while the workload runs: [`Spans::write_jsonl`] dumps the kept
//! spans at the end.

use std::io::Write;
use std::path::Path;

use crate::clock;

/// Keep one root span in this many, with its children.
pub const SAMPLE_EVERY: u64 = 4096;

/// A layer boundary the traced drivers time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Consumer blocked in `TraceStream::next_msg`.
    TraceWait,
    /// One block access through the appliance's layers.
    CoreAccess,
    /// One day boundary (epoch install for discrete policies).
    CoreDayBoundary,
    /// `TwoTierSieve::on_miss`.
    SieveOnMiss,
    /// `EpochCounter::record`.
    ExtsortRecord,
    /// `EpochCounter::finish_selection`.
    ExtsortFinish,
    /// `OccupancyTracker` bookkeeping of one request.
    SsdRecord,
    /// One `PipelinedClient` call (submit, or the final drain).
    ClientCall,
}

const LAYERS: [Layer; 8] = [
    Layer::TraceWait,
    Layer::CoreAccess,
    Layer::CoreDayBoundary,
    Layer::SieveOnMiss,
    Layer::ExtsortRecord,
    Layer::ExtsortFinish,
    Layer::SsdRecord,
    Layer::ClientCall,
];

impl Layer {
    /// The span name written to the span log.
    pub fn name(self) -> &'static str {
        match self {
            Layer::TraceWait => "trace.wait",
            Layer::CoreAccess => "core.access",
            Layer::CoreDayBoundary => "core.day_boundary",
            Layer::SieveOnMiss => "sieve.on_miss",
            Layer::ExtsortRecord => "extsort.record",
            Layer::ExtsortFinish => "extsort.finish",
            Layer::SsdRecord => "ssd.record",
            Layer::ClientCall => "client.call",
        }
    }
}

/// Identifier of a kept span; [`SpanId::NONE`] when the span is only
/// aggregated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// A span that is aggregated but not kept (also "no parent").
    pub const NONE: SpanId = SpanId(0);
}

#[derive(Debug, Clone, Copy)]
struct Kept {
    id: u64,
    parent: u64,
    layer: Layer,
    start: u64,
    end: u64,
}

/// Per-layer busy time and call counts, plus the kept span sample.
/// Times are [`clock::ticks`] readings.
#[derive(Debug)]
pub struct Spans {
    origin: u64,
    busy_ticks: [u64; LAYERS.len()],
    calls: [u64; LAYERS.len()],
    roots: u64,
    next_id: u64,
    kept: Vec<Kept>,
}

impl Spans {
    /// A recorder whose span timestamps count from `origin` (ticks).
    pub fn new(origin: u64) -> Self {
        Spans {
            origin,
            busy_ticks: [0; LAYERS.len()],
            calls: [0; LAYERS.len()],
            roots: 0,
            next_id: 1,
            kept: Vec::new(),
        }
    }

    /// Opens a root span: returns a fresh id when this root is sampled.
    pub fn root(&mut self) -> SpanId {
        self.roots += 1;
        if self.roots % SAMPLE_EVERY == 1 {
            self.fresh()
        } else {
            SpanId::NONE
        }
    }

    /// Opens a child span under `parent`: kept exactly when the parent is.
    pub fn child(&mut self, parent: SpanId) -> SpanId {
        if parent == SpanId::NONE {
            SpanId::NONE
        } else {
            self.fresh()
        }
    }

    fn fresh(&mut self) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        SpanId(id)
    }

    /// Closes a span of `layer` that ran from `start` to `end`.
    #[inline]
    pub fn record(&mut self, layer: Layer, id: SpanId, parent: SpanId, start: u64, end: u64) {
        self.busy_ticks[layer as usize] += end.saturating_sub(start);
        self.calls[layer as usize] += 1;
        if id != SpanId::NONE {
            self.kept.push(Kept {
                id: id.0,
                parent: parent.0,
                layer,
                start: start.saturating_sub(self.origin),
                end: end.saturating_sub(self.origin),
            });
        }
    }

    /// Total seconds spent in `layer`'s spans.
    pub fn busy_s(&self, layer: Layer) -> f64 {
        clock::ns_between(0, self.busy_ticks[layer as usize]) as f64 / 1e9
    }

    /// Spans closed for `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Writes the kept spans (one JSON object per line) followed by one
    /// per-layer summary line each.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.layer.name(),
                clock::ns_between(0, s.start),
                clock::ns_between(0, s.end)
            )?;
        }
        for layer in LAYERS {
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"busy_ns\":{},\"calls\":{}}}",
                layer.name(),
                clock::ns_between(0, self.busy_ticks[layer as usize]),
                self.calls[layer as usize]
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_kept_only_under_sampled_roots() {
        let (t0, t1) = (1_000, 1_050);
        let mut spans = Spans::new(t0);
        let first = spans.root();
        assert_ne!(first, SpanId::NONE);
        let child = spans.child(first);
        spans.record(Layer::SieveOnMiss, child, first, t0, t1);
        spans.record(Layer::CoreAccess, first, SpanId::NONE, t0, t1);
        let second = spans.root();
        assert_eq!(second, SpanId::NONE);
        assert_eq!(spans.child(second), SpanId::NONE);
        spans.record(Layer::CoreAccess, second, SpanId::NONE, t0, t1);
        assert_eq!(spans.kept.len(), 2);
        assert_eq!(spans.kept[0].parent, first.0);
        assert_eq!(spans.calls(Layer::CoreAccess), 2);
        assert_eq!(spans.busy_ticks[Layer::CoreAccess as usize], 100);
    }
}
