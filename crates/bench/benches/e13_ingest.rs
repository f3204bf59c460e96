//! E13 — lock-free ingestion pipeline throughput.
//!
//! Measures the `MonitorPool` handoff itself: a fixed budget of 16k
//! pulse events pushed from 1 / 4 / 16 producer threads (one stream
//! each) into pools of 1 / 4 / 8 workers, end to end including pool
//! spawn and shutdown. Two feeding modes bracket the transport cost:
//!
//! * `send` — one ring publish per event (the per-event release store).
//! * `batch` — `send_batch` in runs of 64, one release store per run.
//!
//! Unlike E8's pool rows (a single caller fanning out to all handles),
//! every producer here runs on its own thread, so the benchmark
//! exercises the concurrent spin-then-park paths of the SPSC rings
//! rather than a polite round-robin.
//!
//! The `e13_idle_streams` group measures what idle streams cost the
//! worker: a 1-worker pool holds N ∈ {0, 1k, 10k, 100k} adopted streams
//! that never publish, and each iteration `send_batch`es 400k events on
//! one more stream and waits for its report. Pool construction and the
//! idle streams stay outside the timed region, so per-iteration time ÷
//! 400k is the worker's ns/event in the presence of N idle streams. The
//! 100k case is skipped under `--test`.

use std::thread;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tempo_core::{TimedSequence, TimingCondition};
use tempo_math::{Interval, Rat};
use tempo_monitor::{MonitorPool, PoolConfig};

/// Request/response bound over the synthetic pulse stream below: every
/// `go` step must be answered by a `done` within `[1, 3]` time units.
fn pulse_condition() -> TimingCondition<u32, &'static str> {
    TimingCondition::new("PULSE", Interval::closed(Rat::ONE, Rat::from(3)).unwrap())
        .triggered_by_step(|_, a, _| *a == "go")
        .on_actions(|a| *a == "done")
}

/// A satisfying `go`/`done` pulse train: `n` events, one per time unit.
fn pulse_stream(n: usize) -> TimedSequence<u32, &'static str> {
    let mut seq = TimedSequence::new(0u32);
    for i in 0..n {
        let a = if i % 2 == 0 { "go" } else { "done" };
        seq.push(a, Rat::from(i as i64), (i + 1) as u32);
    }
    seq
}

const TOTAL: usize = 16_000;
const BATCH: usize = 64;

/// One full pool run: spawn, feed from `producers` threads, shut down.
fn run_pool(producers: usize, workers: usize, batched: bool) {
    let conds = [pulse_condition()];
    let seq = pulse_stream(TOTAL / producers);
    let events: Vec<(&'static str, Rat, u32)> = seq
        .step_triples()
        .map(|(_, a, t, post)| (*a, t, *post))
        .collect();
    let mut pool = MonitorPool::new(
        &conds,
        PoolConfig {
            workers,
            ..PoolConfig::default()
        },
    );
    let handles: Vec<_> = (0..producers)
        .map(|_| pool.open_stream(*seq.first_state()))
        .collect();
    thread::scope(|scope| {
        for mut h in handles {
            let events = &events;
            scope.spawn(move || {
                if batched {
                    for chunk in events.chunks(BATCH) {
                        h.send_batch(chunk.iter().copied())
                            .expect("block policy never fails");
                    }
                } else {
                    for &(a, t, post) in events {
                        h.send(a, t, post).expect("block policy never fails");
                    }
                }
                h.finish();
            });
        }
    });
    let report = pool.shutdown();
    assert!(report.passed());
    assert_eq!(report.streams.len(), producers);
}

/// The 1/4/16 producers × 1/4/8 workers matrix, per-event sends.
fn bench_ingest_send(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_ingest_send");
    group.sample_size(10);
    for producers in [1usize, 4, 16] {
        for workers in [1usize, 4, 8] {
            let id = BenchmarkId::from_parameter(format!("p{producers}_w{workers}"));
            group.bench_function(id, |b| b.iter(|| run_pool(producers, workers, false)));
        }
    }
    group.finish();
}

/// The same matrix with `send_batch` in runs of 64 — one release store
/// per run instead of per event.
fn bench_ingest_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_ingest_batch");
    group.sample_size(10);
    for producers in [1usize, 4, 16] {
        for workers in [1usize, 4, 8] {
            let id = BenchmarkId::from_parameter(format!("p{producers}_w{workers}"));
            group.bench_function(id, |b| b.iter(|| run_pool(producers, workers, true)));
        }
    }
    group.finish();
}

/// Events per `e13_idle_streams` iteration, all on one stream.
const HOT_EVENTS: usize = 400_000;

/// One `send_batch`ed stream of [`HOT_EVENTS`] events next to `idle`
/// adopted idle streams, 1 worker; only the hot stream is timed.
fn bench_idle_streams(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let mut group = c.benchmark_group("e13_idle_streams");
    group.sample_size(10);
    let conds = [pulse_condition()];
    let seq = pulse_stream(HOT_EVENTS);
    let events: Vec<(&'static str, Rat, u32)> = seq
        .step_triples()
        .map(|(_, a, t, post)| (*a, t, *post))
        .collect();
    for idle in [0usize, 1_000, 10_000, 100_000] {
        if test_mode && idle > 10_000 {
            continue;
        }
        let mut pool = MonitorPool::new(
            &conds,
            PoolConfig {
                workers: 1,
                // Small rings keep 100k idle streams' memory modest.
                queue_capacity: 2,
                ..PoolConfig::default()
            },
        );
        let idle_handles: Vec<_> = (0..idle).map(|_| pool.open_stream(0u32)).collect();
        let id = BenchmarkId::from_parameter(format!("idle{idle}_events{HOT_EVENTS}"));
        group.bench_function(id, |b| {
            b.iter(|| {
                let mut h = pool.open_stream(*seq.first_state());
                for chunk in events.chunks(BATCH) {
                    h.send_batch(chunk.iter().copied())
                        .expect("block policy never fails");
                }
                h.finish();
                let report = loop {
                    if let Some(r) = pool.drain_finished().pop() {
                        break r;
                    }
                    thread::yield_now();
                };
                assert_eq!(report.events, HOT_EVENTS);
            })
        });
        drop(idle_handles);
        assert_eq!(pool.shutdown().streams.len(), idle);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest_send,
    bench_ingest_batch,
    bench_idle_streams
);
criterion_main!(benches);
