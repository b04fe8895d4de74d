//! In-memory spans for the traced run: name, start, end, parent span and
//! request id, written out once the run ends. A layer's self time is its
//! span minus the part its child spans cover.

use rmdp_observe::{Clock, MonotonicClock};
use std::io::Write;

/// Opens and closes spans around calls into one layer. The untraced
/// implementation compiles to nothing, so the same replica code gives the
/// traced and the untraced timing.
pub trait Tracer {
    /// Opens span `name`; returns the handle [`Tracer::exit`] closes.
    fn enter(&mut self, name: &'static str) -> usize;
    /// Closes the span `enter` returned.
    fn exit(&mut self, id: usize);
    /// Starts request `id`: later spans carry it.
    fn request(&mut self, id: u64);
}

/// The untraced tracer.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn enter(&mut self, _: &'static str) -> usize {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _: usize) {}
    #[inline(always)]
    fn request(&mut self, _: u64) {}
}

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The recording tracer.
pub struct Spans {
    clock: MonotonicClock,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            clock: MonotonicClock::new(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

impl Tracer for Spans {
    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.clock.now_nanos(),
            end: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        self.spans[id].end = self.clock.now_nanos();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    fn request(&mut self, id: u64) {
        // A request that failed mid-way left its spans open; the next one
        // starts a fresh tree.
        self.open.clear();
        self.request = id;
    }
}
