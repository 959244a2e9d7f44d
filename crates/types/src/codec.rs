//! The one event codec: how a [`TraceEvent`] and a variable-name table
//! become bytes, for trace files and DPSV frames alike.
//!
//! An event *record* is a tag byte — 0/1 read/write access, 2–7 loop
//! begin/iter/end, call begin/end, dealloc — followed by that kind's
//! fixed-width little-endian fields ([`encode`]); an access takes 27
//! bytes. Trace files (format v2) store each record followed by its
//! [`xor_fold`](crate::wire::xor_fold) checksum byte; DPSV `Chunk`
//! frames store records back to back under the frame's own checksum.
//!
//! A name table is a `u32` count followed by one `u32`-length-prefixed
//! UTF-8 name per variable, in id order. The trace header and the DPSV
//! `Hello` frame both carry one.

use crate::access::{AccessKind, MemAccess};
use crate::event::TraceEvent;
use crate::interner::Interner;
use crate::loc::SourceLoc;
use crate::wire::{ByteReader, ByteWriter, WireError};
use std::io::{self, Read};

const TAG_READ: u8 = 0;
const TAG_WRITE: u8 = 1;
const TAG_LOOP_BEGIN: u8 = 2;
const TAG_LOOP_ITER: u8 = 3;
const TAG_LOOP_END: u8 = 4;
const TAG_CALL_BEGIN: u8 = 5;
const TAG_CALL_END: u8 = 6;
const TAG_DEALLOC: u8 = 7;

/// Record length (tag byte included), indexed by tag.
const RECORD_LEN: [usize; 8] = [
    1 + 8 + 8 + 4 + 4 + 2, // read
    1 + 8 + 8 + 4 + 4 + 2, // write
    1 + 4 + 4 + 2 + 8,     // loop begin
    1 + 4 + 8 + 2 + 8,     // loop iter
    1 + 4 + 4 + 8 + 2 + 8, // loop end
    1 + 4 + 2 + 8,         // call begin
    1 + 4 + 2 + 8,         // call end
    1 + 8 + 8 + 2 + 8,     // dealloc
];

/// The longest record any event encodes to.
pub const MAX_RECORD_LEN: usize = 27;

/// The shortest record any event encodes to (a call event): bounds how
/// many records a payload of a given size can hold.
pub const MIN_RECORD_LEN: usize = 15;

/// Record length (tag byte included) for `tag`, or `None` for a tag the
/// codec does not define.
pub fn record_len(tag: u8) -> Option<usize> {
    RECORD_LEN.get(tag as usize).copied()
}

/// Bytes [`encode`] appends for `ev`.
pub fn encoded_len(ev: &TraceEvent) -> usize {
    RECORD_LEN[tag(ev) as usize]
}

fn tag(ev: &TraceEvent) -> u8 {
    match ev {
        TraceEvent::Access(a) if a.kind.is_write() => TAG_WRITE,
        TraceEvent::Access(_) => TAG_READ,
        TraceEvent::LoopBegin { .. } => TAG_LOOP_BEGIN,
        TraceEvent::LoopIter { .. } => TAG_LOOP_ITER,
        TraceEvent::LoopEnd { .. } => TAG_LOOP_END,
        TraceEvent::CallBegin { .. } => TAG_CALL_BEGIN,
        TraceEvent::CallEnd { .. } => TAG_CALL_END,
        TraceEvent::Dealloc { .. } => TAG_DEALLOC,
    }
}

/// Appends the record of `ev`.
pub fn encode(ev: &TraceEvent, w: &mut ByteWriter) {
    w.u8(tag(ev));
    match *ev {
        TraceEvent::Access(a) => {
            w.u64(a.addr);
            w.u64(a.ts);
            w.u32(a.loc.pack());
            w.u32(a.var);
            w.u16(a.thread);
        }
        TraceEvent::LoopBegin { loop_id, loc, thread, ts } => {
            w.u32(loop_id);
            w.u32(loc.pack());
            w.u16(thread);
            w.u64(ts);
        }
        TraceEvent::LoopIter { loop_id, iter, thread, ts } => {
            w.u32(loop_id);
            w.u64(iter);
            w.u16(thread);
            w.u64(ts);
        }
        TraceEvent::LoopEnd { loop_id, loc, iters, thread, ts } => {
            w.u32(loop_id);
            w.u32(loc.pack());
            w.u64(iters);
            w.u16(thread);
            w.u64(ts);
        }
        TraceEvent::CallBegin { func, thread, ts } | TraceEvent::CallEnd { func, thread, ts } => {
            w.u32(func);
            w.u16(thread);
            w.u64(ts);
        }
        TraceEvent::Dealloc { base, len, thread, ts } => {
            w.u64(base);
            w.u64(len);
            w.u16(thread);
            w.u64(ts);
        }
    }
}

/// Reads one record written by [`encode`].
pub fn decode(r: &mut ByteReader<'_>) -> Result<TraceEvent, WireError> {
    // Struct fields evaluate in source order, which is the field order.
    Ok(match r.u8()? {
        t @ (TAG_READ | TAG_WRITE) => TraceEvent::Access(MemAccess {
            addr: r.u64()?,
            ts: r.u64()?,
            loc: SourceLoc::unpack(r.u32()?),
            var: r.u32()?,
            thread: r.u16()?,
            kind: if t == TAG_WRITE { AccessKind::Write } else { AccessKind::Read },
        }),
        TAG_LOOP_BEGIN => TraceEvent::LoopBegin {
            loop_id: r.u32()?,
            loc: SourceLoc::unpack(r.u32()?),
            thread: r.u16()?,
            ts: r.u64()?,
        },
        TAG_LOOP_ITER => TraceEvent::LoopIter {
            loop_id: r.u32()?,
            iter: r.u64()?,
            thread: r.u16()?,
            ts: r.u64()?,
        },
        TAG_LOOP_END => TraceEvent::LoopEnd {
            loop_id: r.u32()?,
            loc: SourceLoc::unpack(r.u32()?),
            iters: r.u64()?,
            thread: r.u16()?,
            ts: r.u64()?,
        },
        TAG_CALL_BEGIN => TraceEvent::CallBegin { func: r.u32()?, thread: r.u16()?, ts: r.u64()? },
        TAG_CALL_END => TraceEvent::CallEnd { func: r.u32()?, thread: r.u16()?, ts: r.u64()? },
        TAG_DEALLOC => {
            TraceEvent::Dealloc { base: r.u64()?, len: r.u64()?, thread: r.u16()?, ts: r.u64()? }
        }
        _ => return Err(WireError::Invalid("unknown event tag")),
    })
}

/// Longest name a table may hold: bounds what a corrupt length prefix
/// can make the reader allocate.
const MAX_NAME_LEN: usize = 1 << 20;

/// Why a name table did not decode.
#[derive(Debug)]
pub enum NameTableError {
    /// The source failed for a reason other than ending early.
    Io(io::Error),
    /// The source ended inside the table.
    Truncated,
    /// The table holds an oversized, non-UTF-8 or repeated name.
    Invalid(&'static str),
}

/// Appends the name table listing `names` in id order.
pub fn write_name_table(w: &mut ByteWriter, names: &[String]) {
    w.u32(names.len() as u32);
    for n in names {
        w.blob(n.as_bytes());
    }
}

/// Reads a name table written by [`write_name_table`] into the
/// interner it describes (see [`Interner::from_names`]): a table whose
/// i-th name does not intern to id i is rejected, never shifted.
pub fn read_name_table(r: &mut impl Read) -> Result<Interner, NameTableError> {
    let mut names = Vec::new();
    for _ in 0..read_u32(r)? {
        let len = read_u32(r)? as usize;
        if len > MAX_NAME_LEN {
            return Err(NameTableError::Invalid("name longer than 1 MiB"));
        }
        let mut buf = vec![0u8; len];
        read_exact(r, &mut buf)?;
        names.push(
            String::from_utf8(buf)
                .map_err(|_| NameTableError::Invalid("name is not valid UTF-8"))?,
        );
    }
    Interner::from_names(&names)
        .map_err(|_| NameTableError::Invalid("repeated name would shift every later id"))
}

fn read_u32(r: &mut impl Read) -> Result<u32, NameTableError> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_exact(r: &mut impl Read, buf: &mut [u8]) -> Result<(), NameTableError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            NameTableError::Truncated
        } else {
            NameTableError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Round trips, truncation and the name-table rules are exercised
    // through both users: the DPSV frame tests and the trace-file tests.
    #[test]
    fn length_bounds_match_the_table() {
        assert_eq!(RECORD_LEN.iter().max(), Some(&MAX_RECORD_LEN));
        assert_eq!(RECORD_LEN.iter().min(), Some(&MIN_RECORD_LEN));
        assert_eq!(record_len(RECORD_LEN.len() as u8), None);
    }
}
