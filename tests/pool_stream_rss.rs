//! What an open stream costs in resident memory, pinned.
//!
//! Opens 10,000 streams at queue capacity 64 on a one-worker pool, sends
//! each one event so that the worker has adopted it and built its
//! `Monitor`, and reads the growth of the process's `VmRSS` from
//! `/proc/self/status`. Most of an open stream is its ring: 64 slots of
//! `Mutex<Option<Event<u32, u32>>>`, 32 bytes each since event times are
//! stored as a `PackedRat` (80 bytes each with a `Rat` time, which came
//! to ≈ 7.3 KB per stream). The rest is the stream's `Monitor`, control
//! block, lag entry and handle.
//!
//! This file holds a single test so that it runs in its own binary: no
//! other test's allocations can land between the two readings. CI loops
//! it under `--release` next to `pool_ready_stress`.

use std::time::{Duration, Instant};

use tempo_core::TimingCondition;
use tempo_math::{Interval, Rat};
use tempo_monitor::{MonitorPool, PoolConfig};

const STREAMS: usize = 10_000;
const QUEUE_CAPACITY: usize = 64;
/// The pinned bound, in bytes of resident memory per open stream.
const MAX_BYTES_PER_STREAM: u64 = 4_600;

/// The process's resident set size, in KiB.
fn vm_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("a VmRSS line in /proc/self/status")
}

#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "reads /proc/self/status")]
fn an_open_stream_at_64_slots_stays_within_its_memory_bound() {
    // One condition over wire-style ids: every 1 is answered by a 2
    // within [0, 5].
    let cond: TimingCondition<u32, u32> =
        TimingCondition::new("ANSWER", Interval::closed(Rat::ZERO, Rat::from(5)).unwrap())
            .triggered_by_step(|_, a, _| *a == 1)
            .on_actions(|a| *a == 2);
    let mut pool = MonitorPool::new(
        &[cond],
        PoolConfig {
            workers: 1,
            queue_capacity: QUEUE_CAPACITY,
            ..PoolConfig::default()
        },
    );
    let metrics = pool.metrics();
    let mut handles = Vec::with_capacity(STREAMS);

    let before = vm_rss_kib();
    for _ in 0..STREAMS {
        let mut h = pool.open_stream(0u32);
        h.send(1, Rat::ZERO, 0).unwrap();
        handles.push(h);
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while metrics.snapshot().events < STREAMS as u64 {
        assert!(
            Instant::now() < deadline,
            "the worker did not adopt every stream"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let after = vm_rss_kib();

    let per_stream = after.saturating_sub(before) * 1024 / STREAMS as u64;
    eprintln!(
        "{STREAMS} open streams at {QUEUE_CAPACITY} slots: {per_stream} B of VmRSS per stream"
    );
    assert!(
        per_stream <= MAX_BYTES_PER_STREAM,
        "an open stream costs {per_stream} B of VmRSS, over the {MAX_BYTES_PER_STREAM} B bound"
    );

    drop(handles);
    let report = pool.shutdown();
    assert_eq!(report.streams.len(), STREAMS);
    assert!(report.passed());
}
