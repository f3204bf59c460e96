//! The length-prefixed binary wire protocol.
//!
//! Every frame is `u32 length (LE) · u8 tag · body`, where `length`
//! counts the tag byte plus the body. All integers are little-endian.
//! Ingest frames (client → server) map 1:1 onto pool operations —
//! [`Frame::Batch`] *is* a [`StreamHandle::send_batch_exact`] call.
//!
//! Egress comes in two generations. The **v1** frames carry the
//! `serde`-encoded reports as JSON payloads; they remain the default,
//! so a legacy client needs no changes. A client that sets the
//! [`cap::BINARY_EGRESS`] capability bit on its first [`tag::OPEN`]
//! instead receives **v2** binary egress: fixed-layout little-endian
//! [`tag::REPORT2`]/[`tag::METRICS_SNAP2`] records encoded
//! allocation-free by [`ReportBuilder`] (the egress sibling of
//! [`BatchBuilder`]), with condition/action names sent once per
//! connection through an interned string table ([`tag::NAMES`]) and
//! referenced by `u32` id thereafter — a violation report is a handful
//! of integers instead of a JSON `Value` tree.
//!
//! The batch body is a packed array of 24-byte event records
//! (`u32 action · u32 state · i64 time numerator · u64 time
//! denominator`), decoded **zero-copy**: [`EventBatch::events`] is an
//! [`ExactSizeIterator`] reading events straight out of the receive
//! buffer into the pool's `Event<u32, u32>` layout, so the ingest path
//! performs no per-event allocation between the socket and the SPSC
//! ring.
//!
//! [`StreamHandle::send_batch_exact`]:
//! tempo_monitor::StreamHandle::send_batch_exact

use std::fmt;
use std::sync::Arc;

use tempo_core::{Violation, ViolationKind};
use tempo_math::Rat;
use tempo_monitor::{
    Event, Forced, MetricsSnapshot, StreamLagSnapshot, StreamReport, Warning, SLACK_BUCKETS,
};

/// Frame tags (the `u8` after the length prefix). Ingest tags have the
/// high bit clear, egress tags have it set.
pub mod tag {
    /// Client → server: open a stream (`u64 stream · u32 start state`,
    /// optionally `· u32 capability flags` — see [`cap`](super::cap)).
    pub const OPEN: u8 = 0x01;
    /// Client → server: event batch (`u64 stream · u32 count · count ×
    /// 24-byte events`).
    pub const BATCH: u8 = 0x02;
    /// Client → server: finish a stream (`u64 stream`).
    pub const FINISH: u8 = 0x03;
    /// Client → server: hot-swap the spec (UTF-8 `.tspec` source).
    pub const RELOAD: u8 = 0x04;
    /// Client → server: subscribe to metrics snapshots
    /// (`u32 interval in ms`, `0` unsubscribes).
    pub const METRICS: u8 = 0x05;
    /// Server → client: a finished stream's report (`u64 client stream
    /// id · JSON StreamReport`).
    pub const REPORT: u8 = 0x81;
    /// Server → client: a metrics snapshot (JSON MetricsSnapshot).
    pub const METRICS_SNAP: u8 = 0x82;
    /// Server → client: a reload was applied (JSON ReloadSummary).
    pub const RELOADED: u8 = 0x83;
    /// Server → client: an error (`u8 code · UTF-8 message`).
    pub const ERROR: u8 = 0x84;
    /// Server → client (v2): a finished stream's report as fixed-layout
    /// binary records (`u64 client stream id · u64 events · u8 failed ·
    /// u32×3 counts · records`). Sent only after the client requested
    /// [`cap::BINARY_EGRESS`](super::cap::BINARY_EGRESS).
    pub const REPORT2: u8 = 0x85;
    /// Server → client (v2): a metrics snapshot as fixed-layout binary
    /// counters. Sent only on binary-egress connections.
    pub const METRICS_SNAP2: u8 = 0x86;
    /// Server → client (v2): an interned-name-table delta (`u32 first
    /// id · u32 count · count × (u32 len · UTF-8 bytes)`). Always
    /// precedes the first [`REPORT2`] referencing the new ids.
    pub const NAMES: u8 = 0x87;
}

/// Capability flags carried by the optional fourth [`tag::OPEN`] field.
///
/// A capability is negotiated **at most once per connection**: the
/// first `OPEN` carrying a set bit enables it for the whole connection,
/// and any later `OPEN` requesting a bit again is answered with a
/// [`Malformed`](ErrorCode::Malformed) error (the open is rejected, the
/// connection survives). Unknown bits are malformed outright, so a
/// future server can add capabilities without ambiguity.
pub mod cap {
    /// Receive v2 binary egress ([`REPORT2`](super::tag::REPORT2) /
    /// [`METRICS_SNAP2`](super::tag::METRICS_SNAP2) with a
    /// [`NAMES`](super::tag::NAMES) string table) instead of the
    /// default JSON frames.
    pub const BINARY_EGRESS: u32 = 1 << 0;
    /// Every capability bit this protocol revision understands.
    pub const ALL: u32 = BINARY_EGRESS;
}

/// Bytes of one packed event record in a batch body.
pub const EVENT_WIRE_BYTES: usize = 24;

/// Bytes of a batch body header (`u64 stream · u32 count`).
pub const BATCH_HEADER_BYTES: usize = 12;

/// Bytes of one rational on the egress wire (`i128 num · i128 den`).
pub const RAT_WIRE_BYTES: usize = 32;

/// Bytes of one fixed-layout violation record in a [`tag::REPORT2`]
/// body (`u32 name id · u8 kind · u64 trigger · u64 event · rat`).
pub const VIOLATION_WIRE_BYTES: usize = 4 + 1 + 8 + 8 + RAT_WIRE_BYTES;

/// Bytes of one warning record (`u32 name id · u64 condition index ·
/// u64 trigger · 4 × rat`).
pub const WARNING_WIRE_BYTES: usize = 4 + 8 + 8 + 4 * RAT_WIRE_BYTES;

/// Bytes of one forced-window record (`u32 name id · u32 action id ·
/// u64 condition index · u64 trigger · 4 × rat`).
pub const FORCED_WIRE_BYTES: usize = 4 + 4 + 8 + 8 + 4 * RAT_WIRE_BYTES;

/// Bytes of a [`tag::REPORT2`] body header (`u64 stream · u64 events ·
/// u8 failed · u32 violations · u32 warnings · u32 forced`).
pub const REPORT2_HEADER_BYTES: usize = 8 + 8 + 1 + 4 + 4 + 4;

/// Stable error codes carried by [`tag::ERROR`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame body did not parse (short body, bad UTF-8, zero time
    /// denominator, count mismatch).
    Malformed = 1,
    /// The frame tag is not one the server understands.
    UnknownTag = 2,
    /// The declared frame length exceeds the configured maximum.
    Oversized = 3,
    /// A batch or finish referenced a stream id never opened (or
    /// already finished) on this connection.
    UnknownStream = 4,
    /// An open reused a stream id already live on this connection.
    DuplicateStream = 5,
    /// A reload's `.tspec` source failed to compile; the message
    /// carries the diagnostics.
    SpecError = 6,
    /// The stream's queue refused the events (fail-stream policy, or a
    /// blocked send cut off by shutdown). The stream is closed; its
    /// report covers the delivered prefix.
    Overload = 7,
    /// The server is shutting down and accepts no new work.
    ShuttingDown = 8,
}

impl ErrorCode {
    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownTag,
            3 => ErrorCode::Oversized,
            4 => ErrorCode::UnknownStream,
            5 => ErrorCode::DuplicateStream,
            6 => ErrorCode::SpecError,
            7 => ErrorCode::Overload,
            8 => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

/// A wire-level decode failure.
///
/// [`Fatal`](WireError::is_fatal) errors poison the byte stream (frame
/// boundaries can no longer be trusted) and close the connection after
/// the error response; non-fatal errors skip the offending frame and
/// keep the connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// A tag outside the protocol. Non-fatal: the frame is delimited,
    /// so it is skipped.
    UnknownTag(u8),
    /// A declared length above the maximum. Fatal: the decoder cannot
    /// skip what it will not buffer.
    Oversized {
        /// Declared payload length.
        len: u32,
        /// Configured cap.
        max: u32,
    },
    /// A body that does not parse under its tag. Non-fatal.
    Malformed(&'static str),
}

impl WireError {
    /// The stable code to answer with.
    pub fn code(&self) -> ErrorCode {
        match self {
            WireError::UnknownTag(_) => ErrorCode::UnknownTag,
            WireError::Oversized { .. } => ErrorCode::Oversized,
            WireError::Malformed(_) => ErrorCode::Malformed,
        }
    }

    /// Whether the connection's byte stream is unrecoverable.
    pub fn is_fatal(&self) -> bool {
        matches!(self, WireError::Oversized { .. })
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnknownTag(t) => write!(f, "unknown frame tag 0x{t:02x}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A zero-copy view of a [`tag::BATCH`] body: the event records stay in
/// the receive buffer until the iterator lifts them into the ring.
#[derive(Clone, Copy, Debug)]
pub struct EventBatch<'a> {
    /// Client-chosen stream id.
    pub stream: u64,
    bytes: &'a [u8],
}

impl<'a> EventBatch<'a> {
    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.bytes.len() / EVENT_WIRE_BYTES
    }

    /// Whether the batch carries no events.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Iterates the events, decoding each record on the fly. The
    /// iterator is exact-size, so
    /// [`send_batch_exact`](tempo_monitor::StreamHandle::send_batch_exact)
    /// can reserve ring space without collecting.
    pub fn events(&self) -> EventIter<'a> {
        EventIter { bytes: self.bytes }
    }
}

/// Iterator over a batch's packed event records. Denominators were
/// validated non-zero at frame decode, so iteration is infallible.
#[derive(Clone, Debug)]
pub struct EventIter<'a> {
    bytes: &'a [u8],
}

impl Iterator for EventIter<'_> {
    type Item = Event<u32, u32>;

    fn next(&mut self) -> Option<Event<u32, u32>> {
        if self.bytes.len() < EVENT_WIRE_BYTES {
            return None;
        }
        let (rec, rest) = self.bytes.split_at(EVENT_WIRE_BYTES);
        self.bytes = rest;
        let action = u32::from_le_bytes(rec[0..4].try_into().unwrap());
        let state = u32::from_le_bytes(rec[4..8].try_into().unwrap());
        let num = i64::from_le_bytes(rec[8..16].try_into().unwrap());
        let den = u64::from_le_bytes(rec[16..24].try_into().unwrap());
        Some(Event::new(
            action,
            Rat::new(num as i128, den as i128),
            state,
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.bytes.len() / EVENT_WIRE_BYTES;
        (n, Some(n))
    }
}

impl ExactSizeIterator for EventIter<'_> {}

/// One decoded frame, borrowing string/batch payloads from the receive
/// buffer.
#[derive(Clone, Debug)]
pub enum Frame<'a> {
    /// Open a stream with a start state.
    Open {
        /// Client-chosen stream id (unique per connection).
        stream: u64,
        /// Start state handed to the stream's monitor.
        start: u32,
        /// Capability flags ([`cap`]); `0` for the legacy 12-byte body.
        caps: u32,
    },
    /// An event batch.
    Batch(EventBatch<'a>),
    /// Finish a stream and request its report.
    Finish {
        /// Client-chosen stream id.
        stream: u64,
    },
    /// Hot-swap the server's spec.
    Reload {
        /// `.tspec` source text.
        src: &'a str,
    },
    /// (Un)subscribe to periodic metrics snapshots.
    Metrics {
        /// Snapshot interval in milliseconds; `0` unsubscribes.
        interval_ms: u32,
    },
    /// Egress: a finished stream's report.
    Report {
        /// Client stream id (translated back from the pool id).
        stream: u64,
        /// JSON-encoded `StreamReport`.
        json: &'a str,
    },
    /// Egress: a metrics snapshot.
    MetricsSnap {
        /// JSON-encoded `MetricsSnapshot`.
        json: &'a str,
    },
    /// Egress: a reload was applied.
    Reloaded {
        /// JSON-encoded [`ReloadSummary`](crate::ReloadSummary).
        json: &'a str,
    },
    /// Egress: an error response.
    Error {
        /// Stable error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: &'a str,
    },
    /// Egress (v2): a finished stream's report as binary records. The
    /// body was structurally validated at parse; decode it with
    /// [`decode_report2`] once the connection's name table is current.
    Report2 {
        /// Client stream id (translated back from the pool id).
        stream: u64,
        /// The report body after the stream id (header + records).
        body: &'a [u8],
    },
    /// Egress (v2): a metrics snapshot as binary counters; decode with
    /// [`decode_metrics_snap2`].
    MetricsSnap2 {
        /// The snapshot body (structurally validated at parse).
        body: &'a [u8],
    },
    /// Egress (v2): an interned-name-table delta; apply with
    /// [`apply_names`].
    Names(NamesFrame<'a>),
}

/// A validated view of a [`tag::NAMES`] body: `count` UTF-8 entries
/// assigning ids `first_id .. first_id + count` in order.
#[derive(Clone, Copy, Debug)]
pub struct NamesFrame<'a> {
    /// Id assigned to the first entry.
    pub first_id: u32,
    /// Number of entries.
    pub count: u32,
    bytes: &'a [u8],
}

impl<'a> NamesFrame<'a> {
    /// Iterates the entries in id order. UTF-8 was validated at parse,
    /// so iteration is infallible.
    pub fn entries(&self) -> NamesIter<'a> {
        NamesIter { bytes: self.bytes }
    }
}

/// Iterator over a [`NamesFrame`]'s entries.
#[derive(Clone, Debug)]
pub struct NamesIter<'a> {
    bytes: &'a [u8],
}

impl<'a> Iterator for NamesIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.bytes.len() < 4 {
            return None;
        }
        let len = le_u32(self.bytes) as usize;
        let (entry, rest) = self.bytes[4..].split_at(len);
        self.bytes = rest;
        // Validated UTF-8 at parse time.
        Some(std::str::from_utf8(entry).expect("NAMES entries are validated UTF-8"))
    }
}

/// Extends a client-side name table with a [`tag::NAMES`] delta.
///
/// Deltas are contiguous: the frame's `first_id` must equal the current
/// table length, otherwise the server and client have lost sync and the
/// frame is rejected as malformed.
///
/// # Errors
///
/// [`WireError::Malformed`] when the delta does not start exactly at
/// the end of `table`.
pub fn apply_names(table: &mut Vec<Arc<str>>, frame: &NamesFrame<'_>) -> Result<(), WireError> {
    if frame.first_id as usize != table.len() {
        return Err(WireError::Malformed(
            "names frame does not extend the table contiguously",
        ));
    }
    table.reserve(frame.count as usize);
    for entry in frame.entries() {
        table.push(Arc::from(entry));
    }
    Ok(())
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[0..4].try_into().unwrap())
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[0..8].try_into().unwrap())
}

/// Parses one complete frame payload (tag + body, the length prefix
/// already stripped).
pub fn parse_frame(payload: &[u8]) -> Result<Frame<'_>, WireError> {
    let (&t, body) = payload
        .split_first()
        .ok_or(WireError::Malformed("empty frame payload"))?;
    match t {
        tag::OPEN => {
            let caps = match body.len() {
                12 => 0,
                16 => le_u32(&body[12..]),
                _ => return Err(WireError::Malformed("open body must be 12 or 16 bytes")),
            };
            if caps & !cap::ALL != 0 {
                return Err(WireError::Malformed(
                    "open requests unknown capability bits",
                ));
            }
            Ok(Frame::Open {
                stream: le_u64(body),
                start: le_u32(&body[8..]),
                caps,
            })
        }
        tag::BATCH => {
            if body.len() < BATCH_HEADER_BYTES {
                return Err(WireError::Malformed("batch body shorter than its header"));
            }
            let stream = le_u64(body);
            let count = le_u32(&body[8..]) as usize;
            let bytes = &body[BATCH_HEADER_BYTES..];
            if bytes.len() != count * EVENT_WIRE_BYTES {
                return Err(WireError::Malformed("batch length disagrees with count"));
            }
            // Validate denominators up front so EventIter is infallible
            // on the hot path into the ring.
            for rec in bytes.chunks_exact(EVENT_WIRE_BYTES) {
                if le_u64(&rec[16..24]) == 0 {
                    return Err(WireError::Malformed("event time denominator is zero"));
                }
            }
            Ok(Frame::Batch(EventBatch { stream, bytes }))
        }
        tag::FINISH => {
            if body.len() != 8 {
                return Err(WireError::Malformed("finish body must be 8 bytes"));
            }
            Ok(Frame::Finish {
                stream: le_u64(body),
            })
        }
        tag::RELOAD => {
            let src = std::str::from_utf8(body)
                .map_err(|_| WireError::Malformed("reload source is not UTF-8"))?;
            Ok(Frame::Reload { src })
        }
        tag::METRICS => {
            if body.len() != 4 {
                return Err(WireError::Malformed("metrics body must be 4 bytes"));
            }
            Ok(Frame::Metrics {
                interval_ms: le_u32(body),
            })
        }
        tag::REPORT => {
            if body.len() < 8 {
                return Err(WireError::Malformed("report body shorter than its header"));
            }
            let stream = le_u64(body);
            let json = std::str::from_utf8(&body[8..])
                .map_err(|_| WireError::Malformed("report payload is not UTF-8"))?;
            Ok(Frame::Report { stream, json })
        }
        tag::METRICS_SNAP => {
            let json = std::str::from_utf8(body)
                .map_err(|_| WireError::Malformed("metrics payload is not UTF-8"))?;
            Ok(Frame::MetricsSnap { json })
        }
        tag::RELOADED => {
            let json = std::str::from_utf8(body)
                .map_err(|_| WireError::Malformed("reload payload is not UTF-8"))?;
            Ok(Frame::Reloaded { json })
        }
        tag::ERROR => {
            let (&code, msg) = body
                .split_first()
                .ok_or(WireError::Malformed("error body missing its code"))?;
            let code =
                ErrorCode::from_u8(code).ok_or(WireError::Malformed("unknown error code"))?;
            let message = std::str::from_utf8(msg)
                .map_err(|_| WireError::Malformed("error message is not UTF-8"))?;
            Ok(Frame::Error { code, message })
        }
        tag::REPORT2 => {
            if body.len() < REPORT2_HEADER_BYTES {
                return Err(WireError::Malformed("report2 body shorter than its header"));
            }
            let stream = le_u64(body);
            let rest = &body[8..];
            let nv = le_u32(&rest[9..13]) as usize;
            let nw = le_u32(&rest[13..17]) as usize;
            let nf = le_u32(&rest[17..21]) as usize;
            let want = nv
                .checked_mul(VIOLATION_WIRE_BYTES)
                .and_then(|a| nw.checked_mul(WARNING_WIRE_BYTES).map(|b| (a, b)))
                .and_then(|(a, b)| nf.checked_mul(FORCED_WIRE_BYTES).map(|c| (a, b, c)))
                .and_then(|(a, b, c)| a.checked_add(b)?.checked_add(c))
                .and_then(|n| n.checked_add(REPORT2_HEADER_BYTES - 8));
            if want != Some(rest.len()) {
                return Err(WireError::Malformed(
                    "report2 length disagrees with its record counts",
                ));
            }
            Ok(Frame::Report2 { stream, body: rest })
        }
        tag::METRICS_SNAP2 => {
            validate_metrics_snap2(body)?;
            Ok(Frame::MetricsSnap2 { body })
        }
        tag::NAMES => {
            if body.len() < 8 {
                return Err(WireError::Malformed("names body shorter than its header"));
            }
            let first_id = le_u32(body);
            let count = le_u32(&body[4..]);
            if first_id.checked_add(count).is_none() {
                return Err(WireError::Malformed("names id out of range"));
            }
            let mut rest = &body[8..];
            for _ in 0..count {
                if rest.len() < 4 {
                    return Err(WireError::Malformed("names entry shorter than its header"));
                }
                let len = le_u32(rest) as usize;
                if rest.len() - 4 < len {
                    return Err(WireError::Malformed("names entry overruns the frame"));
                }
                std::str::from_utf8(&rest[4..4 + len])
                    .map_err(|_| WireError::Malformed("names entry is not UTF-8"))?;
                rest = &rest[4 + len..];
            }
            if !rest.is_empty() {
                return Err(WireError::Malformed("names body has trailing bytes"));
            }
            Ok(Frame::Names(NamesFrame {
                first_id,
                count,
                bytes: &body[8..],
            }))
        }
        other => Err(WireError::UnknownTag(other)),
    }
}

/// Structural check of a [`tag::METRICS_SNAP2`] body: every section's
/// declared count fits exactly, so [`decode_metrics_snap2`] can walk it
/// without re-validating lengths.
fn validate_metrics_snap2(body: &[u8]) -> Result<(), WireError> {
    let mut at = 0usize;
    let mut need = |n: usize| -> Result<usize, WireError> {
        let here = at;
        at = at
            .checked_add(n)
            .filter(|&hi| hi <= body.len())
            .ok_or(WireError::Malformed("metrics2 body truncated"))?;
        Ok(here)
    };
    need(8 * 8)?; // leading u64 counters
    let nb1 = le_u32(&body[need(4)?..]) as usize;
    need(nb1.checked_mul(8).ok_or(WireError::Malformed(
        "metrics2 histogram count out of range",
    ))?)?;
    need(8)?; // forced
    let nb2 = le_u32(&body[need(4)?..]) as usize;
    need(nb2.checked_mul(8).ok_or(WireError::Malformed(
        "metrics2 histogram count out of range",
    ))?)?;
    let has_slack = body[need(1)?];
    if has_slack > 1 {
        return Err(WireError::Malformed("metrics2 min-slack flag must be 0/1"));
    }
    if has_slack == 1 {
        need(RAT_WIRE_BYTES)?;
    }
    need(3 * 8)?; // batches, batched_events, max_batch
    let ns = le_u32(&body[need(4)?..]) as usize;
    need(
        ns.checked_mul(24)
            .ok_or(WireError::Malformed("metrics2 stream count out of range"))?,
    )?;
    if at != body.len() {
        return Err(WireError::Malformed("metrics2 body has trailing bytes"));
    }
    Ok(())
}

/// An accumulating receive buffer that yields complete frames.
///
/// Bytes arrive via [`ingest`](RecvBuf::ingest) (straight from a socket
/// read); [`next_frame`](RecvBuf::next_frame) yields a borrowed
/// [`Frame`] per complete frame without copying the payload. Consumed
/// bytes are compacted away on the next ingest, so a long-lived
/// connection reuses one allocation.
#[derive(Debug)]
pub struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
    max_frame: u32,
}

impl RecvBuf {
    /// An empty buffer enforcing `max_frame` as the largest acceptable
    /// declared payload length.
    pub fn new(max_frame: u32) -> RecvBuf {
        RecvBuf {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Appends freshly received bytes.
    pub fn ingest(&mut self, data: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Bytes received but not yet consumed as a complete frame —
    /// nonzero at EOF means the peer disconnected mid-frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Yields the next complete frame, or `None` when more bytes are
    /// needed. On a non-fatal error the offending frame is consumed
    /// (the stream stays aligned); on a fatal error the buffer is
    /// unusable and the connection should close.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'_>>, WireError> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let len = le_u32(&self.buf[self.start..]);
        if len > self.max_frame {
            return Err(WireError::Oversized {
                len,
                max: self.max_frame,
            });
        }
        if len == 0 {
            // Consume the prefix so the error is returned once and the
            // stream stays aligned — otherwise the caller's retry loop
            // would see the same four zero bytes forever.
            self.start += 4;
            return Err(WireError::Malformed("zero-length frame"));
        }
        let total = 4 + len as usize;
        if avail < total {
            return Ok(None);
        }
        let lo = self.start + 4;
        let hi = self.start + total;
        self.start = hi;
        parse_frame(&self.buf[lo..hi]).map(Some)
    }
}

fn begin_frame(out: &mut Vec<u8>, t: u8) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0, 0, 0, 0, t]);
    at
}

fn end_frame(out: &mut [u8], at: usize) {
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encodes an [`tag::OPEN`] frame (legacy 12-byte body, no
/// capabilities).
pub fn encode_open(out: &mut Vec<u8>, stream: u64, start: u32) {
    let at = begin_frame(out, tag::OPEN);
    out.extend_from_slice(&stream.to_le_bytes());
    out.extend_from_slice(&start.to_le_bytes());
    end_frame(out, at);
}

/// Encodes an [`tag::OPEN`] frame with capability flags (16-byte body).
pub fn encode_open_caps(out: &mut Vec<u8>, stream: u64, start: u32, caps: u32) {
    let at = begin_frame(out, tag::OPEN);
    out.extend_from_slice(&stream.to_le_bytes());
    out.extend_from_slice(&start.to_le_bytes());
    out.extend_from_slice(&caps.to_le_bytes());
    end_frame(out, at);
}

/// Encodes a [`tag::FINISH`] frame.
pub fn encode_finish(out: &mut Vec<u8>, stream: u64) {
    let at = begin_frame(out, tag::FINISH);
    out.extend_from_slice(&stream.to_le_bytes());
    end_frame(out, at);
}

/// Encodes a [`tag::RELOAD`] frame.
pub fn encode_reload(out: &mut Vec<u8>, src: &str) {
    let at = begin_frame(out, tag::RELOAD);
    out.extend_from_slice(src.as_bytes());
    end_frame(out, at);
}

/// Encodes a [`tag::METRICS`] subscription frame.
pub fn encode_metrics_sub(out: &mut Vec<u8>, interval_ms: u32) {
    let at = begin_frame(out, tag::METRICS);
    out.extend_from_slice(&interval_ms.to_le_bytes());
    end_frame(out, at);
}

/// Encodes a [`tag::REPORT`] egress frame.
pub fn encode_report(out: &mut Vec<u8>, stream: u64, json: &str) {
    let at = begin_frame(out, tag::REPORT);
    out.extend_from_slice(&stream.to_le_bytes());
    out.extend_from_slice(json.as_bytes());
    end_frame(out, at);
}

/// Encodes a [`tag::METRICS_SNAP`] egress frame.
pub fn encode_metrics_snap(out: &mut Vec<u8>, json: &str) {
    let at = begin_frame(out, tag::METRICS_SNAP);
    out.extend_from_slice(json.as_bytes());
    end_frame(out, at);
}

/// Encodes a [`tag::RELOADED`] egress frame.
pub fn encode_reloaded(out: &mut Vec<u8>, json: &str) {
    let at = begin_frame(out, tag::RELOADED);
    out.extend_from_slice(json.as_bytes());
    end_frame(out, at);
}

/// Encodes a [`tag::ERROR`] egress frame.
pub fn encode_error(out: &mut Vec<u8>, code: ErrorCode, message: &str) {
    let at = begin_frame(out, tag::ERROR);
    out.push(code as u8);
    out.extend_from_slice(message.as_bytes());
    end_frame(out, at);
}

/// One event as the client encodes it: action/state ids plus the time
/// as an explicit 64-bit rational.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireEvent {
    /// Action id (an index into the server's action table).
    pub action: u32,
    /// Post-state id.
    pub state: u32,
    /// Time numerator.
    pub num: i64,
    /// Time denominator (must be nonzero).
    pub den: u64,
}

impl WireEvent {
    /// An event at integer time `t` (denominator 1).
    pub fn at(action: u32, state: u32, t: i64) -> WireEvent {
        WireEvent {
            action,
            state,
            num: t,
            den: 1,
        }
    }
}

/// Incrementally encodes one [`tag::BATCH`] frame into `out`.
///
/// The loadgen hot path uses this to build batches without an
/// intermediate event vector: `begin`, then `push` per event, then
/// `finish` (which back-patches the length prefix and event count).
#[derive(Debug)]
pub struct BatchBuilder<'a> {
    out: &'a mut Vec<u8>,
    at: usize,
    count: u32,
}

impl<'a> BatchBuilder<'a> {
    /// Starts a batch frame for `stream`.
    pub fn begin(out: &'a mut Vec<u8>, stream: u64) -> BatchBuilder<'a> {
        let at = begin_frame(out, tag::BATCH);
        out.extend_from_slice(&stream.to_le_bytes());
        out.extend_from_slice(&[0, 0, 0, 0]);
        BatchBuilder { out, at, count: 0 }
    }

    /// Appends one event record.
    pub fn push(&mut self, ev: WireEvent) {
        self.out.extend_from_slice(&ev.action.to_le_bytes());
        self.out.extend_from_slice(&ev.state.to_le_bytes());
        self.out.extend_from_slice(&ev.num.to_le_bytes());
        self.out.extend_from_slice(&ev.den.to_le_bytes());
        self.count += 1;
    }

    /// Back-patches the length prefix and count.
    pub fn finish(self) {
        let count_at = self.at + 5 + 8;
        self.out[count_at..count_at + 4].copy_from_slice(&self.count.to_le_bytes());
        end_frame(self.out, self.at);
    }
}

/// Encodes a whole [`tag::BATCH`] frame from a slice.
pub fn encode_batch(out: &mut Vec<u8>, stream: u64, events: &[WireEvent]) {
    let mut b = BatchBuilder::begin(out, stream);
    for ev in events {
        b.push(*ev);
    }
    b.finish();
}

fn put_rat(out: &mut Vec<u8>, r: Rat) {
    out.extend_from_slice(&r.numer().to_le_bytes());
    out.extend_from_slice(&r.denom().to_le_bytes());
}

fn get_rat(b: &[u8]) -> Result<Rat, WireError> {
    let num = i128::from_le_bytes(b[0..16].try_into().unwrap());
    let den = i128::from_le_bytes(b[16..32].try_into().unwrap());
    if den <= 0 {
        return Err(WireError::Malformed(
            "rational denominator must be positive",
        ));
    }
    Ok(Rat::new(num, den))
}

/// Encodes a [`tag::NAMES`] delta assigning ids `first_id ..` to
/// `names` in order.
pub fn encode_names<'n>(
    out: &mut Vec<u8>,
    first_id: u32,
    names: impl IntoIterator<Item = &'n str>,
) {
    let at = begin_frame(out, tag::NAMES);
    out.extend_from_slice(&first_id.to_le_bytes());
    let count_at = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]);
    let mut count = 0u32;
    for name in names {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        count += 1;
    }
    let bytes = count.to_le_bytes();
    out[count_at..count_at + 4].copy_from_slice(&bytes);
    end_frame(out, at);
}

/// Incrementally encodes one [`tag::REPORT2`] frame into `out`,
/// allocation-free — the egress sibling of [`BatchBuilder`].
///
/// Records are sectioned (violations, then warnings, then forced
/// windows) with back-patched counts, so the section order is enforced:
/// pushing a violation after a warning, or a warning after a forced
/// window, panics. Names are *not* carried here — callers intern them
/// and pass `u32` ids, emitting a [`tag::NAMES`] delta beforehand for
/// any id the peer has not seen.
#[derive(Debug)]
pub struct ReportBuilder<'a> {
    out: &'a mut Vec<u8>,
    at: usize,
    violations: u32,
    warnings: u32,
    forced: u32,
}

impl<'a> ReportBuilder<'a> {
    /// Starts a report frame for the client's `stream`.
    pub fn begin(
        out: &'a mut Vec<u8>,
        stream: u64,
        events: u64,
        failed: bool,
    ) -> ReportBuilder<'a> {
        let at = begin_frame(out, tag::REPORT2);
        out.extend_from_slice(&stream.to_le_bytes());
        out.extend_from_slice(&events.to_le_bytes());
        out.push(u8::from(failed));
        out.extend_from_slice(&[0u8; 12]); // three back-patched counts
        ReportBuilder {
            out,
            at,
            violations: 0,
            warnings: 0,
            forced: 0,
        }
    }

    /// Appends one violation record. `name_id` is the interned id of
    /// `v.condition`.
    pub fn violation(&mut self, name_id: u32, v: &Violation) {
        assert!(
            self.warnings == 0 && self.forced == 0,
            "violations precede warnings and forced windows in a REPORT2 body"
        );
        self.out.extend_from_slice(&name_id.to_le_bytes());
        match &v.kind {
            ViolationKind::UpperBound {
                trigger_index,
                deadline,
            } => {
                self.out.push(0);
                self.out
                    .extend_from_slice(&(*trigger_index as u64).to_le_bytes());
                self.out.extend_from_slice(&0u64.to_le_bytes());
                put_rat(self.out, *deadline);
            }
            ViolationKind::LowerBound {
                trigger_index,
                event_index,
                earliest,
            } => {
                self.out.push(1);
                self.out
                    .extend_from_slice(&(*trigger_index as u64).to_le_bytes());
                self.out
                    .extend_from_slice(&(*event_index as u64).to_le_bytes());
                put_rat(self.out, *earliest);
            }
        }
        self.violations += 1;
    }

    /// Appends one warning record. `name_id` is the interned id of
    /// `w.condition`.
    pub fn warning(&mut self, name_id: u32, w: &Warning) {
        assert!(
            self.forced == 0,
            "warnings precede forced windows in a REPORT2 body"
        );
        self.out.extend_from_slice(&name_id.to_le_bytes());
        self.out
            .extend_from_slice(&(w.condition_index as u64).to_le_bytes());
        self.out
            .extend_from_slice(&(w.trigger_index as u64).to_le_bytes());
        put_rat(self.out, w.deadline);
        put_rat(self.out, w.at);
        put_rat(self.out, w.slack);
        put_rat(self.out, w.horizon);
        self.warnings += 1;
    }

    /// Appends one forced-window record. `name_id`/`action_id` are the
    /// interned ids of `f.condition`/`f.action`.
    pub fn forced(&mut self, name_id: u32, action_id: u32, f: &Forced) {
        self.out.extend_from_slice(&name_id.to_le_bytes());
        self.out.extend_from_slice(&action_id.to_le_bytes());
        self.out
            .extend_from_slice(&(f.condition_index as u64).to_le_bytes());
        self.out
            .extend_from_slice(&(f.trigger_index as u64).to_le_bytes());
        put_rat(self.out, f.earliest);
        put_rat(self.out, f.at);
        put_rat(self.out, f.margin);
        put_rat(self.out, f.horizon);
        self.forced += 1;
    }

    /// Back-patches the record counts and the length prefix.
    pub fn finish(self) {
        let counts_at = self.at + 5 + 8 + 8 + 1;
        self.out[counts_at..counts_at + 4].copy_from_slice(&self.violations.to_le_bytes());
        self.out[counts_at + 4..counts_at + 8].copy_from_slice(&self.warnings.to_le_bytes());
        self.out[counts_at + 8..counts_at + 12].copy_from_slice(&self.forced.to_le_bytes());
        end_frame(self.out, self.at);
    }
}

/// Encodes a whole [`tag::REPORT2`] frame from a [`StreamReport`],
/// interning every condition/action name through `intern` (which
/// returns the name's stable `u32` id, assigning one on first sight).
///
/// The report's own `stream` field is ignored in favour of `stream` —
/// the server translates pool ids back to client ids, exactly like the
/// JSON [`tag::REPORT`] path.
pub fn encode_report2(
    out: &mut Vec<u8>,
    stream: u64,
    report: &StreamReport,
    mut intern: impl FnMut(&str) -> u32,
) {
    let mut b = ReportBuilder::begin(out, stream, report.events as u64, report.failed);
    for v in &report.violations {
        let id = intern(&v.condition);
        b.violation(id, v);
    }
    for w in &report.warnings {
        let id = intern(&w.condition);
        b.warning(id, w);
    }
    for f in &report.forced {
        let id = intern(&f.condition);
        let action = intern(&f.action);
        b.forced(id, action, f);
    }
    b.finish();
}

fn resolve_name(names: &[Arc<str>], id: u32) -> Result<Arc<str>, WireError> {
    names
        .get(id as usize)
        .cloned()
        .ok_or(WireError::Malformed("report2 name id out of range"))
}

/// Decodes a [`Frame::Report2`] body into a [`StreamReport`], resolving
/// interned name ids against the connection's accumulated `names`
/// table.
///
/// # Errors
///
/// [`WireError::Malformed`] on a name id the table does not cover or a
/// non-positive rational denominator. Record-count/length mismatches
/// were already rejected at [`parse_frame`].
pub fn decode_report2(
    stream: u64,
    body: &[u8],
    names: &[Arc<str>],
) -> Result<StreamReport, WireError> {
    let events = le_u64(body) as usize;
    let failed = body[8] != 0;
    let nv = le_u32(&body[9..]) as usize;
    let nw = le_u32(&body[13..]) as usize;
    let nf = le_u32(&body[17..]) as usize;
    let mut at = REPORT2_HEADER_BYTES - 8;

    let mut violations = Vec::with_capacity(nv);
    for _ in 0..nv {
        let rec = &body[at..at + VIOLATION_WIRE_BYTES];
        at += VIOLATION_WIRE_BYTES;
        let condition = resolve_name(names, le_u32(rec))?;
        let trigger_index = le_u64(&rec[5..]) as usize;
        let event_index = le_u64(&rec[13..]) as usize;
        let bound = get_rat(&rec[21..])?;
        let kind = match rec[4] {
            0 => ViolationKind::UpperBound {
                trigger_index,
                deadline: bound,
            },
            1 => ViolationKind::LowerBound {
                trigger_index,
                event_index,
                earliest: bound,
            },
            _ => return Err(WireError::Malformed("unknown violation kind")),
        };
        violations.push(Violation {
            condition: condition.to_string(),
            kind,
        });
    }

    let mut warnings = Vec::with_capacity(nw);
    for _ in 0..nw {
        let rec = &body[at..at + WARNING_WIRE_BYTES];
        at += WARNING_WIRE_BYTES;
        warnings.push(Warning {
            condition: resolve_name(names, le_u32(rec))?,
            condition_index: le_u64(&rec[4..]) as usize,
            trigger_index: le_u64(&rec[12..]) as usize,
            deadline: get_rat(&rec[20..])?,
            at: get_rat(&rec[52..])?,
            slack: get_rat(&rec[84..])?,
            horizon: get_rat(&rec[116..])?,
        });
    }

    let mut forced = Vec::with_capacity(nf);
    for _ in 0..nf {
        let rec = &body[at..at + FORCED_WIRE_BYTES];
        at += FORCED_WIRE_BYTES;
        forced.push(Forced {
            condition: resolve_name(names, le_u32(rec))?,
            action: resolve_name(names, le_u32(&rec[4..]))?,
            condition_index: le_u64(&rec[8..]) as usize,
            trigger_index: le_u64(&rec[16..]) as usize,
            earliest: get_rat(&rec[24..])?,
            at: get_rat(&rec[56..])?,
            margin: get_rat(&rec[88..])?,
            horizon: get_rat(&rec[120..])?,
        });
    }

    Ok(StreamReport {
        stream,
        events,
        violations,
        warnings,
        forced,
        failed,
    })
}

/// Encodes a [`tag::METRICS_SNAP2`] frame, allocation-free given spare
/// capacity in `out`.
pub fn encode_metrics_snap2(out: &mut Vec<u8>, snap: &MetricsSnapshot) {
    let at = begin_frame(out, tag::METRICS_SNAP2);
    for v in [
        snap.events,
        snap.obligations_opened,
        snap.obligations_discharged,
        snap.obligations_violated,
        snap.max_queue_depth,
        snap.dropped_events,
        snap.failed_streams,
        snap.warnings,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(SLACK_BUCKETS as u32).to_le_bytes());
    for b in snap.warning_slack_hist {
        out.extend_from_slice(&b.to_le_bytes());
    }
    out.extend_from_slice(&snap.forced.to_le_bytes());
    out.extend_from_slice(&(SLACK_BUCKETS as u32).to_le_bytes());
    for b in snap.forced_margin_hist {
        out.extend_from_slice(&b.to_le_bytes());
    }
    match snap.min_slack {
        Some(s) => {
            out.push(1);
            put_rat(out, s);
        }
        None => out.push(0),
    }
    for v in [snap.batches, snap.batched_events, snap.max_batch] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(snap.streams.len() as u32).to_le_bytes());
    for s in &snap.streams {
        out.extend_from_slice(&s.stream.to_le_bytes());
        out.extend_from_slice(&s.enqueued.to_le_bytes());
        out.extend_from_slice(&s.lag.to_le_bytes());
    }
    end_frame(out, at);
}

/// Decodes a [`Frame::MetricsSnap2`] body into a [`MetricsSnapshot`].
///
/// # Errors
///
/// [`WireError::Malformed`] when a histogram does not have exactly
/// [`SLACK_BUCKETS`] buckets (mirroring the JSON decoder's length
/// check) or a rational denominator is non-positive.
pub fn decode_metrics_snap2(body: &[u8]) -> Result<MetricsSnapshot, WireError> {
    let mut snap = MetricsSnapshot::default();
    let mut at = 0usize;
    let take_u64 = |at: &mut usize| -> u64 {
        let v = le_u64(&body[*at..]);
        *at += 8;
        v
    };
    snap.events = take_u64(&mut at);
    snap.obligations_opened = take_u64(&mut at);
    snap.obligations_discharged = take_u64(&mut at);
    snap.obligations_violated = take_u64(&mut at);
    snap.max_queue_depth = take_u64(&mut at);
    snap.dropped_events = take_u64(&mut at);
    snap.failed_streams = take_u64(&mut at);
    snap.warnings = take_u64(&mut at);

    let take_hist = |at: &mut usize| -> Result<[u64; SLACK_BUCKETS], WireError> {
        let nb = le_u32(&body[*at..]) as usize;
        *at += 4;
        if nb != SLACK_BUCKETS {
            return Err(WireError::Malformed(
                "metrics2 histogram bucket count mismatch",
            ));
        }
        let mut hist = [0u64; SLACK_BUCKETS];
        for h in &mut hist {
            *h = le_u64(&body[*at..]);
            *at += 8;
        }
        Ok(hist)
    };
    snap.warning_slack_hist = take_hist(&mut at)?;
    snap.forced = take_u64(&mut at);
    snap.forced_margin_hist = take_hist(&mut at)?;

    if body[at] == 1 {
        snap.min_slack = Some(get_rat(&body[at + 1..])?);
        at += 1 + RAT_WIRE_BYTES;
    } else {
        at += 1;
    }
    snap.batches = take_u64(&mut at);
    snap.batched_events = take_u64(&mut at);
    snap.max_batch = take_u64(&mut at);

    let ns = le_u32(&body[at..]) as usize;
    at += 4;
    snap.streams = Vec::with_capacity(ns);
    for _ in 0..ns {
        snap.streams.push(StreamLagSnapshot {
            stream: take_u64(&mut at),
            enqueued: take_u64(&mut at),
            lag: take_u64(&mut at),
        });
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_ingest_frame() {
        let mut out = Vec::new();
        encode_open(&mut out, 7, 3);
        encode_batch(
            &mut out,
            7,
            &[WireEvent::at(0, 1, 10), WireEvent::at(1, 0, 12)],
        );
        encode_finish(&mut out, 7);
        encode_reload(&mut out, "spec s;\nactions a;\n");
        encode_metrics_sub(&mut out, 250);

        let mut rb = RecvBuf::new(1 << 20);
        rb.ingest(&out);
        assert!(matches!(
            rb.next_frame().unwrap().unwrap(),
            Frame::Open {
                stream: 7,
                start: 3,
                caps: 0
            }
        ));
        match rb.next_frame().unwrap().unwrap() {
            Frame::Batch(b) => {
                assert_eq!(b.stream, 7);
                let evs: Vec<_> = b.events().collect();
                assert_eq!(evs.len(), 2);
                assert_eq!(evs[0].action, 0);
                assert_eq!(evs[0].state, 1);
                assert_eq!(Rat::from(evs[0].time), Rat::from(10));
                assert_eq!(Rat::from(evs[1].time), Rat::from(12));
            }
            f => panic!("expected batch, got {f:?}"),
        }
        assert!(matches!(
            rb.next_frame().unwrap().unwrap(),
            Frame::Finish { stream: 7 }
        ));
        assert!(
            matches!(rb.next_frame().unwrap().unwrap(), Frame::Reload { src } if src.starts_with("spec s;"))
        );
        assert!(matches!(
            rb.next_frame().unwrap().unwrap(),
            Frame::Metrics { interval_ms: 250 }
        ));
        assert!(rb.next_frame().unwrap().is_none());
        assert_eq!(rb.pending(), 0);
    }

    #[test]
    fn round_trips_every_egress_frame() {
        let mut out = Vec::new();
        encode_report(&mut out, 9, "{\"stream\":9}");
        encode_metrics_snap(&mut out, "{}");
        encode_reloaded(&mut out, "{\"revision\":2}");
        encode_error(&mut out, ErrorCode::UnknownStream, "stream 4 not open");

        let mut rb = RecvBuf::new(1 << 20);
        rb.ingest(&out);
        assert!(matches!(
            rb.next_frame().unwrap().unwrap(),
            Frame::Report {
                stream: 9,
                json: "{\"stream\":9}"
            }
        ));
        assert!(matches!(
            rb.next_frame().unwrap().unwrap(),
            Frame::MetricsSnap { json: "{}" }
        ));
        assert!(matches!(
            rb.next_frame().unwrap().unwrap(),
            Frame::Reloaded { .. }
        ));
        match rb.next_frame().unwrap().unwrap() {
            Frame::Error { code, message } => {
                assert_eq!(code, ErrorCode::UnknownStream);
                assert_eq!(message, "stream 4 not open");
            }
            f => panic!("expected error, got {f:?}"),
        }
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut out = Vec::new();
        encode_open(&mut out, 1, 0);
        let mut rb = RecvBuf::new(1 << 20);
        // Feed one byte at a time; only the final byte completes it.
        for (i, b) in out.iter().enumerate() {
            rb.ingest(&[*b]);
            let got = rb.next_frame().unwrap();
            if i + 1 < out.len() {
                assert!(got.is_none(), "frame completed early at byte {i}");
            } else {
                assert!(matches!(
                    got,
                    Some(Frame::Open {
                        stream: 1,
                        start: 0,
                        caps: 0
                    })
                ));
            }
        }
    }

    #[test]
    fn batch_iterator_is_exact_size() {
        let mut out = Vec::new();
        let events: Vec<WireEvent> = (0..37).map(|i| WireEvent::at(0, 0, i)).collect();
        encode_batch(&mut out, 3, &events);
        let mut rb = RecvBuf::new(1 << 20);
        rb.ingest(&out);
        match rb.next_frame().unwrap().unwrap() {
            Frame::Batch(b) => {
                let it = b.events();
                assert_eq!(it.len(), 37);
                assert_eq!(it.count(), 37);
            }
            f => panic!("expected batch, got {f:?}"),
        }
    }

    #[test]
    fn oversized_length_is_fatal() {
        let mut rb = RecvBuf::new(1024);
        rb.ingest(&(4096u32).to_le_bytes());
        rb.ingest(&[tag::OPEN]);
        let err = rb.next_frame().unwrap_err();
        assert_eq!(err.code(), ErrorCode::Oversized);
        assert!(err.is_fatal());
    }

    #[test]
    fn zero_denominator_is_malformed_not_a_panic() {
        let mut out = Vec::new();
        encode_batch(
            &mut out,
            1,
            &[WireEvent {
                action: 0,
                state: 0,
                num: 5,
                den: 0,
            }],
        );
        let mut rb = RecvBuf::new(1 << 20);
        rb.ingest(&out);
        let err = rb.next_frame().unwrap_err();
        assert_eq!(err.code(), ErrorCode::Malformed);
        assert!(!err.is_fatal());
        // The malformed frame was consumed; the stream stays aligned.
        encode_finish(&mut out, 1);
        rb.ingest(&out[out.len() - 13..]);
        assert!(matches!(
            rb.next_frame().unwrap().unwrap(),
            Frame::Finish { stream: 1 }
        ));
    }

    #[test]
    fn unknown_tag_skips_one_frame() {
        let mut rb = RecvBuf::new(1 << 20);
        rb.ingest(&3u32.to_le_bytes());
        rb.ingest(&[0x7f, 0xaa, 0xbb]);
        let err = rb.next_frame().unwrap_err();
        assert_eq!(err.code(), ErrorCode::UnknownTag);
        assert!(!err.is_fatal());
        let mut out = Vec::new();
        encode_finish(&mut out, 2);
        rb.ingest(&out);
        assert!(matches!(
            rb.next_frame().unwrap().unwrap(),
            Frame::Finish { stream: 2 }
        ));
    }

    #[test]
    fn zero_length_frame_is_consumed_not_repeated() {
        let mut rb = RecvBuf::new(1 << 20);
        rb.ingest(&0u32.to_le_bytes());
        let err = rb.next_frame().unwrap_err();
        assert_eq!(err.code(), ErrorCode::Malformed);
        assert!(!err.is_fatal());
        // The prefix was consumed: the next call wants more bytes
        // instead of re-reporting the same error forever.
        assert!(rb.next_frame().unwrap().is_none());
        assert_eq!(rb.pending(), 0);
        // And the stream stays aligned for the next well-formed frame.
        let mut out = Vec::new();
        encode_finish(&mut out, 6);
        rb.ingest(&out);
        assert!(matches!(
            rb.next_frame().unwrap().unwrap(),
            Frame::Finish { stream: 6 }
        ));
    }

    #[test]
    fn open_capability_flags_round_trip_and_unknown_bits_are_malformed() {
        let mut out = Vec::new();
        encode_open_caps(&mut out, 5, 2, cap::BINARY_EGRESS);
        let mut rb = RecvBuf::new(1 << 20);
        rb.ingest(&out);
        assert!(matches!(
            rb.next_frame().unwrap().unwrap(),
            Frame::Open {
                stream: 5,
                start: 2,
                caps: cap::BINARY_EGRESS
            }
        ));

        let mut out = Vec::new();
        encode_open_caps(&mut out, 5, 2, 1 << 17);
        rb.ingest(&out);
        let err = rb.next_frame().unwrap_err();
        assert_eq!(err.code(), ErrorCode::Malformed);
        assert!(!err.is_fatal());
    }

    fn sample_report() -> StreamReport {
        StreamReport {
            stream: 0,
            events: 12,
            violations: vec![
                Violation {
                    condition: "deadline".to_string(),
                    kind: ViolationKind::UpperBound {
                        trigger_index: 3,
                        deadline: Rat::new(7, 2),
                    },
                },
                Violation {
                    condition: "window".to_string(),
                    kind: ViolationKind::LowerBound {
                        trigger_index: 1,
                        event_index: 4,
                        earliest: Rat::from(9),
                    },
                },
            ],
            warnings: vec![Warning {
                condition: "deadline".into(),
                condition_index: 0,
                trigger_index: 3,
                deadline: Rat::new(7, 2),
                at: Rat::new(5, 2),
                slack: Rat::from(1),
                horizon: Rat::from(1),
            }],
            forced: vec![Forced {
                condition: "window".into(),
                condition_index: 1,
                action: "SERVE".into(),
                trigger_index: 1,
                earliest: Rat::from(9),
                at: Rat::from(4),
                margin: Rat::from(5),
                horizon: Rat::from(2),
            }],
            failed: true,
        }
    }

    /// A minimal client-side interner for tests: ids in first-sight
    /// order, like the server's.
    fn intern_all(report: &StreamReport) -> Vec<Arc<str>> {
        let mut names: Vec<Arc<str>> = Vec::new();
        let mut intern = |s: &str| {
            if let Some(i) = names.iter().position(|n| &**n == s) {
                i as u32
            } else {
                names.push(Arc::from(s));
                (names.len() - 1) as u32
            }
        };
        let mut sink = Vec::new();
        encode_report2(&mut sink, 0, report, &mut intern);
        names
    }

    #[test]
    fn report2_round_trips_through_names_and_records() {
        let report = sample_report();
        let names = intern_all(&report);

        let mut out = Vec::new();
        encode_names(&mut out, 0, names.iter().map(|n| &**n));
        let mut next = |s: &str| names.iter().position(|n| &**n == s).unwrap() as u32;
        encode_report2(&mut out, 42, &report, &mut next);

        let mut rb = RecvBuf::new(1 << 20);
        rb.ingest(&out);
        let mut table: Vec<Arc<str>> = Vec::new();
        match rb.next_frame().unwrap().unwrap() {
            Frame::Names(nf) => apply_names(&mut table, &nf).unwrap(),
            f => panic!("expected names, got {f:?}"),
        }
        assert_eq!(table.len(), names.len());
        match rb.next_frame().unwrap().unwrap() {
            Frame::Report2 { stream, body } => {
                assert_eq!(stream, 42);
                let decoded = decode_report2(stream, body, &table).unwrap();
                let expected = StreamReport {
                    stream: 42,
                    ..report
                };
                assert_eq!(decoded, expected);
            }
            f => panic!("expected report2, got {f:?}"),
        }
    }

    #[test]
    fn truncated_report2_is_malformed() {
        let report = sample_report();
        let names = intern_all(&report);
        let mut out = Vec::new();
        let mut next = |s: &str| names.iter().position(|n| &**n == s).unwrap() as u32;
        encode_report2(&mut out, 42, &report, &mut next);
        // Chop one byte off the body and fix up the length prefix.
        out.truncate(out.len() - 1);
        let len = (out.len() - 4) as u32;
        out[0..4].copy_from_slice(&len.to_le_bytes());
        let mut rb = RecvBuf::new(1 << 20);
        rb.ingest(&out);
        let err = rb.next_frame().unwrap_err();
        assert_eq!(err.code(), ErrorCode::Malformed);
        assert!(!err.is_fatal());
    }

    #[test]
    fn report2_name_id_out_of_table_is_malformed() {
        let report = sample_report();
        let names = intern_all(&report);
        let mut out = Vec::new();
        let mut next = |s: &str| names.iter().position(|n| &**n == s).unwrap() as u32;
        encode_report2(&mut out, 42, &report, &mut next);
        let mut rb = RecvBuf::new(1 << 20);
        rb.ingest(&out);
        match rb.next_frame().unwrap().unwrap() {
            // Decode against an empty table: every id is out of range.
            Frame::Report2 { stream, body } => {
                let err = decode_report2(stream, body, &[]).unwrap_err();
                assert_eq!(err.code(), ErrorCode::Malformed);
            }
            f => panic!("expected report2, got {f:?}"),
        }
    }

    #[test]
    fn names_id_overflow_is_malformed() {
        let mut out = Vec::new();
        let at = out.len();
        out.extend_from_slice(&[0, 0, 0, 0, tag::NAMES]);
        out.extend_from_slice(&u32::MAX.to_le_bytes()); // first_id
        out.extend_from_slice(&2u32.to_le_bytes()); // count: overflows
        out.extend_from_slice(&1u32.to_le_bytes());
        out.push(b'a');
        out.extend_from_slice(&1u32.to_le_bytes());
        out.push(b'b');
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
        let mut rb = RecvBuf::new(1 << 20);
        rb.ingest(&out);
        let err = rb.next_frame().unwrap_err();
        assert_eq!(err.code(), ErrorCode::Malformed);
        assert!(!err.is_fatal());
    }

    #[test]
    fn names_must_extend_the_table_contiguously() {
        let mut out = Vec::new();
        encode_names(&mut out, 3, ["late"]);
        let mut rb = RecvBuf::new(1 << 20);
        rb.ingest(&out);
        match rb.next_frame().unwrap().unwrap() {
            Frame::Names(nf) => {
                let mut table: Vec<Arc<str>> = Vec::new();
                let err = apply_names(&mut table, &nf).unwrap_err();
                assert_eq!(err.code(), ErrorCode::Malformed);
                assert!(table.is_empty());
            }
            f => panic!("expected names, got {f:?}"),
        }
    }

    #[test]
    fn metrics_snap2_round_trips() {
        let mut snap = MetricsSnapshot {
            events: 1_000_000,
            obligations_opened: 500,
            obligations_discharged: 400,
            obligations_violated: 50,
            max_queue_depth: 64,
            dropped_events: 3,
            failed_streams: 1,
            warnings: 7,
            forced: 2,
            min_slack: Some(Rat::new(-3, 7)),
            batches: 99,
            batched_events: 990,
            max_batch: 16,
            streams: vec![
                StreamLagSnapshot {
                    stream: 0,
                    enqueued: 10,
                    lag: 2,
                },
                StreamLagSnapshot {
                    stream: 9,
                    enqueued: 5,
                    lag: 0,
                },
            ],
            ..MetricsSnapshot::default()
        };
        snap.warning_slack_hist[1] = 4;
        snap.forced_margin_hist[4] = 2;

        for min_slack in [Some(Rat::new(-3, 7)), None] {
            snap.min_slack = min_slack;
            let mut out = Vec::new();
            encode_metrics_snap2(&mut out, &snap);
            let mut rb = RecvBuf::new(1 << 20);
            rb.ingest(&out);
            match rb.next_frame().unwrap().unwrap() {
                Frame::MetricsSnap2 { body } => {
                    assert_eq!(decode_metrics_snap2(body).unwrap(), snap);
                }
                f => panic!("expected metrics2, got {f:?}"),
            }
        }
    }

    #[test]
    fn report_builder_enforces_section_order() {
        let report = sample_report();
        let mut out = Vec::new();
        let mut b = ReportBuilder::begin(&mut out, 1, 2, false);
        b.warning(0, &report.warnings[0]);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.violation(0, &report.violations[0]);
        }));
        assert!(panicked.is_err(), "violation after warning must panic");
    }

    #[test]
    fn count_mismatch_is_malformed() {
        let mut out = Vec::new();
        let at = out.len();
        // Hand-build a batch claiming 2 events but carrying 1.
        out.extend_from_slice(&[0, 0, 0, 0, tag::BATCH]);
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&2u32.to_le_bytes());
        out.extend_from_slice(&[0u8; EVENT_WIRE_BYTES]);
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
        let mut rb = RecvBuf::new(1 << 20);
        rb.ingest(&out);
        let err = rb.next_frame().unwrap_err();
        assert_eq!(err.code(), ErrorCode::Malformed);
    }
}
