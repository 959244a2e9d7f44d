//! Bridging a recorded event stream onto the DPSV wire: batches
//! consecutive events — accesses and control events alike — into
//! `Chunk` frames, in stream order.
//!
//! This is what lets `depprof push` replay any recorded `.dptr` file
//! over the network: the trace reader yields [`TraceEvent`]s one at a
//! time, and the chunker turns them into the protocol's frame stream.
//! A chunk fills to `chunk_events` events whatever their kind, so the
//! 6-byte frame overhead amortizes over hundreds of events and the
//! server feeds its engine in exactly the recorded order.
//!
//! Every emitted frame is *positional*: a `Chunk` carries the absolute
//! stream index of its first event, counted from the chunker's base,
//! and its `i`-th event sits at `base + i`. A resuming client
//! constructs the chunker [`with_base`](FrameChunker::with_base) at the
//! server's `resume_from` watermark and the positions line up exactly.

use dp_types::protocol::Frame;
use dp_types::TraceEvent;

/// Batches [`TraceEvent`]s into DPSV `Chunk` frames, preserving event
/// order.
#[derive(Debug)]
pub struct FrameChunker {
    pending: Vec<TraceEvent>,
    capacity: usize,
    /// Absolute index of the next event pushed.
    pos: u64,
}

impl FrameChunker {
    /// A chunker emitting `Chunk` frames of at most `chunk_events`
    /// events (minimum 1), positions counted from 0.
    pub fn new(chunk_events: usize) -> Self {
        Self::with_base(chunk_events, 0)
    }

    /// A chunker whose first event has absolute stream index `base` —
    /// what a resumed push uses so its frames carry the positions the
    /// server expects after `HelloAck.resume_from`.
    pub fn with_base(chunk_events: usize, base: u64) -> Self {
        let capacity = chunk_events.max(1);
        FrameChunker { pending: Vec::with_capacity(capacity), capacity, pos: base }
    }

    /// Accepts one event. Returns the `Chunk` it completed, once
    /// `chunk_events` events are pending.
    pub fn push(&mut self, ev: TraceEvent) -> Option<Frame> {
        self.pending.push(ev);
        self.pos += 1;
        (self.pending.len() >= self.capacity).then(|| self.take_chunk())
    }

    /// Flushes any buffered events (call at end of stream, or before a
    /// `Sync`/`Query`/`Finish`).
    pub fn flush(&mut self) -> Option<Frame> {
        (!self.pending.is_empty()).then(|| self.take_chunk())
    }

    fn take_chunk(&mut self) -> Frame {
        let events = std::mem::replace(&mut self.pending, Vec::with_capacity(self.capacity));
        Frame::Chunk { base: self.pos - events.len() as u64, events }
    }
}

/// Unpacks one incoming frame back into the events it carries (the
/// server-side inverse of [`FrameChunker`]), dropping the position.
/// Non-event frames yield an empty vector.
pub fn frame_events(frame: Frame) -> Vec<TraceEvent> {
    match frame {
        Frame::Chunk { events, .. } => events,
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::loc::loc;
    use dp_types::MemAccess;

    #[test]
    fn chunks_fill_across_event_kinds_with_contiguous_positions() {
        let acc =
            |i: u64| TraceEvent::Access(MemAccess::read(0x100 + i * 8, i + 1, loc(1, 1), 0, 0));
        let evs = vec![
            acc(0),
            acc(1),
            TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 5), thread: 0, ts: 10 },
            acc(2),
            acc(3),
            acc(4),
            TraceEvent::LoopEnd { loop_id: 1, loc: loc(1, 9), iters: 1, thread: 0, ts: 20 },
            acc(5),
        ];
        for base in [0u64, 17] {
            let mut chunker = FrameChunker::with_base(3, base);
            assert!(chunker.flush().is_none());
            let mut frames: Vec<Frame> = evs.iter().flat_map(|ev| chunker.push(*ev)).collect();
            frames.extend(chunker.flush());
            assert!(chunker.flush().is_none());
            // Control events ride inside chunks, so only the last one is
            // short, and every base equals the running event count.
            let mut next = base;
            let mut sizes = Vec::new();
            for f in &frames {
                let Frame::Chunk { base: b, events } = f else { panic!("unexpected {f:?}") };
                assert_eq!(*b, next, "chunk base");
                next += events.len() as u64;
                sizes.push(events.len());
            }
            assert_eq!(sizes, [3, 3, 2]);
            assert_eq!(next, base + evs.len() as u64);
            let roundtrip: Vec<TraceEvent> = frames.into_iter().flat_map(frame_events).collect();
            assert_eq!(roundtrip, evs, "order preserved exactly");
        }
    }
}
