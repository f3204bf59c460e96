//! Malformed-frame corpus against a live `tempo-serve` server.
//!
//! Every case drives raw bytes down a real loopback socket and asserts
//! the stable [`ErrorCode`] response, whether the connection survives
//! (non-fatal errors skip the delimited frame), and — the part that
//! matters for a shared service — that no case wedges the io threads:
//! after each poison connection, a fresh well-formed session still
//! completes a full open → batch → finish → report round trip.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use tempo_monitor::{PoolConfig, StreamReport};
use tempo_serve::wire::{
    apply_names, cap, decode_report2, encode_batch, encode_finish, encode_open, encode_open_caps,
    encode_reload, tag, ErrorCode, Frame, RecvBuf, WireEvent,
};
use tempo_serve::{ServeConfig, Server};
use tempo_sim::loadgen::ReqServe;

fn start_server() -> Server {
    let traffic = ReqServe::default().validated();
    let mut config = ServeConfig::new(traffic.tspec(), &ReqServe::ACTIONS);
    config.pool = PoolConfig {
        workers: 2,
        ..PoolConfig::default()
    };
    Server::start(config).expect("server starts")
}

/// An egress frame with owned payloads (the wire [`Frame`] borrows the
/// receive buffer).
#[derive(Debug)]
enum Egress {
    Report(u64, String),
    Report2(u64, StreamReport),
    Error(ErrorCode, String),
    Other,
}

/// A raw protocol connection: sends arbitrary bytes, decodes egress
/// (both the v1 JSON and v2 binary report frames, maintaining the
/// connection's `NAMES` table).
struct Raw {
    tcp: TcpStream,
    recv: RecvBuf,
    scratch: Vec<u8>,
    names: Vec<Arc<str>>,
}

impl Raw {
    fn connect(addr: SocketAddr) -> Raw {
        let tcp = TcpStream::connect(addr).expect("connect");
        tcp.set_nodelay(true).expect("nodelay");
        tcp.set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        Raw {
            tcp,
            recv: RecvBuf::new(16 << 20),
            scratch: vec![0u8; 64 * 1024],
            names: Vec::new(),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.tcp.write_all(bytes).expect("write");
    }

    /// Blocks for the next egress frame; `None` means the server closed
    /// the connection.
    fn recv_one(&mut self) -> Option<Egress> {
        loop {
            match self.recv.next_frame().expect("client-side decode") {
                Some(Frame::Report { stream, json }) => {
                    return Some(Egress::Report(stream, json.to_string()))
                }
                Some(Frame::Report2 { stream, body }) => {
                    let report =
                        decode_report2(stream, body, &self.names).expect("report2 decodes");
                    return Some(Egress::Report2(stream, report));
                }
                Some(Frame::Names(nf)) => {
                    apply_names(&mut self.names, &nf).expect("contiguous names delta");
                    continue;
                }
                Some(Frame::Error { code, message }) => {
                    return Some(Egress::Error(code, message.to_string()))
                }
                Some(_) => return Some(Egress::Other),
                None => {}
            }
            match self.tcp.read(&mut self.scratch) {
                Ok(0) => return None,
                Ok(n) => {
                    let chunk: Vec<u8> = self.scratch[..n].to_vec();
                    self.recv.ingest(&chunk);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }

    fn expect_error(&mut self, code: ErrorCode) -> String {
        match self.recv_one() {
            Some(Egress::Error(c, msg)) => {
                assert_eq!(c, code, "wrong error code ({msg})");
                msg
            }
            other => panic!("expected {code:?} error, got {other:?}"),
        }
    }
}

/// A full happy-path round trip on a fresh connection: the liveness
/// probe run after every poison case.
fn round_trip(addr: SocketAddr, stream: u64) {
    let mut conn = Raw::connect(addr);
    let mut out = Vec::new();
    encode_open(&mut out, stream, 0);
    encode_batch(
        &mut out,
        stream,
        &[
            WireEvent::at(0, 1, 0), // REQUEST at t=0
            WireEvent::at(1, 0, 3), // SERVE at t=3, inside the deadline
        ],
    );
    encode_finish(&mut out, stream);
    conn.send(&out);
    match conn.recv_one() {
        Some(Egress::Report(s, json)) => {
            assert_eq!(s, stream);
            let report: StreamReport = serde_json::from_str(&json).expect("report decodes");
            assert_eq!(report.events, 2);
            assert!(report.violations.is_empty());
            assert!(!report.failed);
        }
        other => panic!("expected a report, got {other:?}"),
    }
}

#[test]
fn unknown_tag_is_skipped_and_the_connection_survives() {
    let server = start_server();
    let mut conn = Raw::connect(server.local_addr());

    // A one-byte frame with an unassigned tag.
    conn.send(&[1, 0, 0, 0, 0x7f]);
    conn.expect_error(ErrorCode::UnknownTag);

    // Same connection keeps working: the bad frame was delimited.
    let mut out = Vec::new();
    encode_open(&mut out, 9, 0);
    encode_batch(
        &mut out,
        9,
        &[WireEvent::at(0, 1, 0), WireEvent::at(1, 0, 2)],
    );
    encode_finish(&mut out, 9);
    conn.send(&out);
    match conn.recv_one() {
        Some(Egress::Report(9, _)) => {}
        other => panic!("expected stream 9's report, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_fatal_but_only_for_that_connection() {
    let server = start_server();
    let mut conn = Raw::connect(server.local_addr());

    // Declare a frame bigger than the server's max_frame (1 MiB).
    let huge = (2u32 << 20).to_le_bytes();
    conn.send(&huge);
    conn.expect_error(ErrorCode::Oversized);
    assert!(
        conn.recv_one().is_none(),
        "oversized is fatal: the server must close the connection"
    );

    // The io thread itself is fine: a fresh connection round-trips.
    round_trip(server.local_addr(), 1);
    server.shutdown();
}

#[test]
fn zero_denominator_is_rejected_without_a_panic() {
    let server = start_server();
    let mut conn = Raw::connect(server.local_addr());

    let mut out = Vec::new();
    encode_open(&mut out, 3, 0);
    conn.send(&out);

    // A hand-built batch whose single event has denominator 0 — the
    // in-process Rat constructor would panic on it, so the decoder must
    // reject it at parse time.
    let mut bad = Vec::new();
    let body_len = 1 + 8 + 4 + 24;
    bad.extend_from_slice(&(body_len as u32).to_le_bytes());
    bad.push(tag::BATCH);
    bad.extend_from_slice(&3u64.to_le_bytes()); // stream
    bad.extend_from_slice(&1u32.to_le_bytes()); // count
    bad.extend_from_slice(&0u32.to_le_bytes()); // action
    bad.extend_from_slice(&1u32.to_le_bytes()); // state
    bad.extend_from_slice(&5i64.to_le_bytes()); // num
    bad.extend_from_slice(&0u64.to_le_bytes()); // den = 0
    conn.send(&bad);
    conn.expect_error(ErrorCode::Malformed);

    // The opened stream is untouched by the rejected frame.
    let mut out = Vec::new();
    encode_batch(
        &mut out,
        3,
        &[WireEvent::at(0, 1, 0), WireEvent::at(1, 0, 1)],
    );
    encode_finish(&mut out, 3);
    conn.send(&out);
    match conn.recv_one() {
        Some(Egress::Report(3, json)) => {
            let report: StreamReport = serde_json::from_str(&json).expect("report decodes");
            assert_eq!(report.events, 2, "only the well-formed batch counts");
        }
        other => panic!("expected stream 3's report, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn zero_length_frame_is_rejected_once_and_the_connection_survives() {
    let server = start_server();
    let mut conn = Raw::connect(server.local_addr());

    // Four zero bytes: a frame with length 0 (not even a tag). The
    // prefix must be consumed — a decoder that leaves it pending
    // re-reports the same error forever and wedges its I/O thread.
    conn.send(&0u32.to_le_bytes());
    conn.expect_error(ErrorCode::Malformed);

    // Exactly one error, and the connection keeps working.
    let mut out = Vec::new();
    encode_open(&mut out, 11, 0);
    encode_batch(
        &mut out,
        11,
        &[WireEvent::at(0, 1, 0), WireEvent::at(1, 0, 2)],
    );
    encode_finish(&mut out, 11);
    conn.send(&out);
    match conn.recv_one() {
        Some(Egress::Report(11, _)) => {}
        other => panic!("expected stream 11's report, got {other:?}"),
    }

    // And the io threads are not wedged: a fresh session round-trips.
    round_trip(server.local_addr(), 12);
    server.shutdown();
}

#[test]
fn slow_consumers_are_disconnected_at_the_egress_cap() {
    let traffic = ReqServe::default().validated();
    let mut config = ServeConfig::new(traffic.tspec(), &ReqServe::ACTIONS);
    config.pool = PoolConfig {
        workers: 2,
        ..PoolConfig::default()
    };
    // Tiny cap so the test converges fast: every unknown-tag frame
    // below provokes a ~35-byte error reply the client never reads.
    config.max_conn_egress = 16 << 10;
    let server = Server::start(config).expect("server starts");

    let mut conn = Raw::connect(server.local_addr());
    conn.tcp
        .set_write_timeout(Some(Duration::from_secs(20)))
        .expect("write timeout");
    // Firehose junk without ever reading the replies. Once kernel
    // buffers fill, the server's write_pending crosses the cap and the
    // connection is closed; the client's writes then fail. 8 MiB of
    // junk far exceeds cap + kernel buffering, so reaching the end of
    // the loop without a write error means the cap is not enforced.
    let junk = [1u8, 0, 0, 0, 0x7f].repeat(2048); // 10 KiB of bad frames
    let mut disconnected = false;
    for _ in 0..800 {
        if conn.tcp.write_all(&junk).is_err() {
            disconnected = true;
            break;
        }
    }
    assert!(
        disconnected,
        "server must disconnect a slow consumer instead of buffering forever"
    );

    // The io thread survived the kill: a fresh session round-trips.
    round_trip(server.local_addr(), 13);
    server.shutdown();
}

#[test]
fn batch_count_mismatch_is_malformed() {
    let server = start_server();
    let mut conn = Raw::connect(server.local_addr());

    let mut out = Vec::new();
    encode_open(&mut out, 4, 0);
    conn.send(&out);

    // Header claims 3 events, body carries 1.
    let mut bad = Vec::new();
    let body_len = 1 + 8 + 4 + 24;
    bad.extend_from_slice(&(body_len as u32).to_le_bytes());
    bad.push(tag::BATCH);
    bad.extend_from_slice(&4u64.to_le_bytes());
    bad.extend_from_slice(&3u32.to_le_bytes());
    bad.extend_from_slice(&[0u8; 24]);
    conn.send(&bad);
    conn.expect_error(ErrorCode::Malformed);
    server.shutdown();
}

#[test]
fn unknown_and_duplicate_streams_get_stable_errors() {
    let server = start_server();
    let mut conn = Raw::connect(server.local_addr());

    // Batch for a stream that was never opened.
    let mut out = Vec::new();
    encode_batch(&mut out, 77, &[WireEvent::at(0, 1, 0)]);
    conn.send(&out);
    conn.expect_error(ErrorCode::UnknownStream);

    // Open once: fine. Open again: duplicate.
    let mut out = Vec::new();
    encode_open(&mut out, 77, 0);
    encode_open(&mut out, 77, 0);
    conn.send(&out);
    conn.expect_error(ErrorCode::DuplicateStream);

    // Finishing a stream twice: second one is unknown again.
    let mut out = Vec::new();
    encode_finish(&mut out, 77);
    encode_finish(&mut out, 77);
    conn.send(&out);
    let first = conn.recv_one();
    let second = conn.recv_one();
    let mut saw_report = false;
    let mut saw_unknown = false;
    for e in [first, second] {
        match e {
            Some(Egress::Report(77, _)) => saw_report = true,
            Some(Egress::Error(ErrorCode::UnknownStream, _)) => saw_unknown = true,
            other => panic!("unexpected egress {other:?}"),
        }
    }
    assert!(saw_report && saw_unknown);
    server.shutdown();
}

#[test]
fn mid_frame_disconnects_do_not_wedge_the_server() {
    let server = start_server();

    // A length prefix promising 50 bytes, followed by 10 — then gone.
    let mut conn = Raw::connect(server.local_addr());
    conn.send(&50u32.to_le_bytes());
    conn.send(&[0u8; 10]);
    drop(conn);

    // A truncated length prefix itself (2 of 4 bytes) — then gone.
    let mut conn = Raw::connect(server.local_addr());
    conn.send(&[7, 0]);
    drop(conn);

    // An open with no finish — the dropped connection must finish the
    // stream server-side rather than leak it. Pipelining a complete
    // session for a second stream behind the open and waiting for that
    // report proves the open was dispatched before the drop (frames on
    // one connection are processed in order).
    let mut conn = Raw::connect(server.local_addr());
    let mut out = Vec::new();
    encode_open(&mut out, 5, 0);
    encode_open(&mut out, 6, 0);
    encode_batch(
        &mut out,
        6,
        &[WireEvent::at(0, 1, 0), WireEvent::at(1, 0, 2)],
    );
    encode_finish(&mut out, 6);
    conn.send(&out);
    match conn.recv_one() {
        Some(Egress::Report(6, _)) => {}
        other => panic!("expected stream 6's report, got {other:?}"),
    }
    drop(conn);

    // After all three, the io threads still serve.
    round_trip(server.local_addr(), 7);

    // The abandoned stream was finished server-side, not left open:
    // every delivered stream's report is gone, so at most its 0-event
    // report remains (the egress loop may already have drained it to
    // the closed connection, in which case nothing remains).
    let report = server.shutdown();
    assert!(report.streams.len() <= 1, "reports: {:?}", report.streams);
    assert!(
        report.streams.iter().all(|s| s.events == 0),
        "only the abandoned stream's empty report may remain: {:?}",
        report.streams
    );
}

/// A truncated `REPORT2` (length prefix shorter than its record counts
/// demand) is structurally malformed: a stable non-fatal error, and
/// the connection survives.
#[test]
fn truncated_report2_is_malformed_and_the_connection_survives() {
    let server = start_server();
    let mut conn = Raw::connect(server.local_addr());

    // Header claims 1 violation but the body ends after the counts.
    let mut bad = Vec::new();
    let body_len = 1 + 8 + 8 + 1 + 4 + 4 + 4; // tag + header, no records
    bad.extend_from_slice(&(body_len as u32).to_le_bytes());
    bad.push(tag::REPORT2);
    bad.extend_from_slice(&1u64.to_le_bytes()); // stream
    bad.extend_from_slice(&2u64.to_le_bytes()); // events
    bad.push(0); // failed
    bad.extend_from_slice(&1u32.to_le_bytes()); // violations: 1 (missing!)
    bad.extend_from_slice(&0u32.to_le_bytes()); // warnings
    bad.extend_from_slice(&0u32.to_le_bytes()); // forced
    conn.send(&bad);
    let msg = conn.expect_error(ErrorCode::Malformed);
    assert!(msg.contains("record counts"), "got: {msg}");

    // Non-fatal: the same connection still completes a session.
    let mut out = Vec::new();
    encode_open(&mut out, 21, 0);
    encode_batch(
        &mut out,
        21,
        &[WireEvent::at(0, 1, 0), WireEvent::at(1, 0, 2)],
    );
    encode_finish(&mut out, 21);
    conn.send(&out);
    match conn.recv_one() {
        Some(Egress::Report(21, _)) => {}
        other => panic!("expected stream 21's report, got {other:?}"),
    }
    server.shutdown();
}

/// A *well-formed* egress frame (v2 included) arriving on the ingest
/// path is a protocol violation answered with `UnknownTag`, exactly
/// like the v1 egress tags.
#[test]
fn well_formed_report2_on_ingest_is_an_unknown_tag() {
    let server = start_server();
    let mut conn = Raw::connect(server.local_addr());

    // An empty-but-valid REPORT2 (zero records, counts consistent).
    let mut frame = Vec::new();
    let body_len = 1 + 8 + 8 + 1 + 4 + 4 + 4;
    frame.extend_from_slice(&(body_len as u32).to_le_bytes());
    frame.push(tag::REPORT2);
    frame.extend_from_slice(&1u64.to_le_bytes());
    frame.extend_from_slice(&0u64.to_le_bytes());
    frame.push(0);
    frame.extend_from_slice(&0u32.to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    conn.send(&frame);
    let msg = conn.expect_error(ErrorCode::UnknownTag);
    assert!(msg.contains("egress frame"), "got: {msg}");

    round_trip(server.local_addr(), 22);
    server.shutdown();
}

/// A `NAMES` frame whose id range overflows `u32` is malformed — and,
/// like every egress tag, it does not belong on the ingest path, so
/// send it client→server only to pin the parse-level error code.
#[test]
fn names_id_out_of_range_is_malformed() {
    let server = start_server();
    let mut conn = Raw::connect(server.local_addr());

    let mut bad = Vec::new();
    let entry = 4 + 1; // u32 len + "a"
    let body_len = 1 + 4 + 4 + entry;
    bad.extend_from_slice(&(body_len as u32).to_le_bytes());
    bad.push(tag::NAMES);
    bad.extend_from_slice(&u32::MAX.to_le_bytes()); // first_id
    bad.extend_from_slice(&1u32.to_le_bytes()); // count → id range overflows
    bad.extend_from_slice(&1u32.to_le_bytes());
    bad.push(b'a');
    conn.send(&bad);
    let msg = conn.expect_error(ErrorCode::Malformed);
    assert!(msg.contains("id out of range"), "got: {msg}");

    round_trip(server.local_addr(), 23);
    server.shutdown();
}

/// The binary-egress capability is negotiable at most once per
/// connection: a second OPEN re-requesting the bit gets a stable
/// `Malformed` error and is rejected, while the connection — and the
/// already negotiated binary egress — keeps working.
#[test]
fn capability_requested_twice_is_malformed_but_binary_egress_works() {
    let server = start_server();
    let mut conn = Raw::connect(server.local_addr());

    // First open negotiates binary egress.
    let mut out = Vec::new();
    encode_open_caps(&mut out, 30, 0, cap::BINARY_EGRESS);
    // Second open re-requests the bit: rejected.
    encode_open_caps(&mut out, 31, 0, cap::BINARY_EGRESS);
    conn.send(&out);
    let msg = conn.expect_error(ErrorCode::Malformed);
    assert!(msg.contains("already negotiated"), "got: {msg}");

    // Stream 30 still runs — and its verdict arrives as REPORT2 with a
    // violation whose condition name resolved through the NAMES table.
    let traffic = ReqServe::default().validated();
    let late = i64::from(traffic.deadline_ms) + 2;
    let mut out = Vec::new();
    encode_batch(
        &mut out,
        30,
        &[WireEvent::at(0, 1, 0), WireEvent::at(1, 0, late)],
    );
    encode_finish(&mut out, 30);
    conn.send(&out);
    match conn.recv_one() {
        Some(Egress::Report2(30, report)) => {
            assert_eq!(report.events, 2);
            assert_eq!(report.violations.len(), 1, "the late serve violates");
            assert!(
                !report.violations[0].condition.is_empty(),
                "the name id resolved through the NAMES table"
            );
        }
        other => panic!("expected stream 30's binary report, got {other:?}"),
    }

    // The rejected open took no effect: stream 31 is unknown.
    let mut out = Vec::new();
    encode_finish(&mut out, 31);
    conn.send(&out);
    conn.expect_error(ErrorCode::UnknownStream);

    round_trip(server.local_addr(), 24);
    server.shutdown();
}

#[test]
fn bad_reload_source_reports_diagnostics_and_changes_nothing() {
    let server = start_server();
    let mut conn = Raw::connect(server.local_addr());

    let mut out = Vec::new();
    encode_reload(&mut out, "this is not a spec");
    conn.send(&out);
    let msg = conn.expect_error(ErrorCode::SpecError);
    assert!(!msg.is_empty(), "diagnostics must ride along");

    // The original spec still governs: a late serve violates.
    let traffic = ReqServe::default().validated();
    let late = i64::from(traffic.deadline_ms) + 2;
    let mut out = Vec::new();
    encode_open(&mut out, 8, 0);
    encode_batch(
        &mut out,
        8,
        &[WireEvent::at(0, 1, 0), WireEvent::at(1, 0, late)],
    );
    encode_finish(&mut out, 8);
    conn.send(&out);
    match conn.recv_one() {
        Some(Egress::Report(8, json)) => {
            let report: StreamReport = serde_json::from_str(&json).expect("report decodes");
            assert_eq!(report.violations.len(), 1, "old deadline still enforced");
        }
        other => panic!("expected stream 8's report, got {other:?}"),
    }
    server.shutdown();
}

/// Every server thread carries its role's name, as `top -H` and
/// `/proc/<pid>/task/*/comm` show it.
#[cfg(target_os = "linux")]
#[test]
fn server_threads_are_named_by_role() {
    fn thread_names() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .expect("list /proc/self/task")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|comm| comm.trim_end().to_string())
            .collect()
    }
    let server = start_server();
    let wanted = [
        "tempo-worker-0",
        "tempo-worker-1",
        "tempo-io-0",
        "tempo-io-1",
        "tempo-accept",
        "tempo-egress",
    ];
    // A new thread starts under its creator's name and renames itself
    // once it runs, so poll. Other tests' servers share this process:
    // look for names, not counts.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let names = thread_names();
        let missing: Vec<_> = wanted
            .iter()
            .filter(|w| !names.iter().any(|n| n == *w))
            .collect();
        if missing.is_empty() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no thread named {missing:?} in {names:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}
