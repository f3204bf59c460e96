//! The pool's ready list under fire.
//!
//! A worker visits only streams that published events or finished, so
//! a lost hand-off between a producer and its worker would strand events
//! in a ring nobody looks at again. These runs put 10,000 idle streams
//! next to a few hundred sporadic publishers (random `send`/`send_batch`
//! sizes and sleeps) on 1- and 2-worker pools, under every
//! [`OverloadPolicy`]. Publishers finish streams right after publishing,
//! while the worker may still be draining them, and fresh streams are
//! opened mid-run so freed slab slots are reused. One run per policy
//! also pulls [`MonitorPool::begin_shutdown`] mid-run.
//!
//! Checked on every run:
//! - every opened stream files exactly one report;
//! - `Block`/`FailStream`: a stream's report counts exactly the events
//!   its sends accepted (the `accepted` prefix of a failed call
//!   included), and its violations equal the offline fold of exactly
//!   those events — each event observed once, in order;
//! - `DropOldest`: no stream reports more than it accepted, and the pool
//!   observed exactly the accepted events minus the dropped ones;
//! - a mid-run `reload` counts every live stream;
//! - with a shutdown mid-run, streams filed before the signal are exact
//!   and the rest report no more than they accepted.
//!
//! CI loops this file under `--release` next to `ring_stress`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tempo_core::engine::CompiledConditionSet;
use tempo_core::{SatisfactionMode, TimedSequence, TimingCondition};
use tempo_math::{Interval, Rat};
use tempo_monitor::{MonitorPool, OverloadPolicy, PoolConfig, StreamHandle, StreamReport};

type Handle = StreamHandle<u32, &'static str>;

const IDLE_STREAMS: usize = 10_000;
const THREADS: usize = 8;
/// Publishing streams handed to each thread at the start.
const INITIAL_PER_THREAD: usize = 32;
/// Waves of fresh streams opened while the publishers run.
const WAVES: usize = 4;
const WAVE: usize = 64;
const ROUNDS: usize = 2_500;

/// Every `go` must be answered by a `done` within 3 time units. Random
/// traffic violates it often, so the verdicts depend on exactly which
/// events the worker observed.
fn conds() -> Vec<TimingCondition<u32, &'static str>> {
    vec![
        TimingCondition::new("ANSWER", Interval::closed(Rat::ZERO, Rat::from(3)).unwrap())
            .triggered_by_step(|_, a, _| *a == "go")
            .on_actions(|a| *a == "done"),
    ]
}

/// What one stream's producer handed over.
#[derive(Default)]
struct StreamLog {
    /// Every event a send accepted, in order.
    accepted: Vec<(&'static str, Rat, u32)>,
    /// Whether a send returned `StreamOverflow`.
    errored: bool,
    next_time: i64,
}

/// One publisher thread: drives the streams it is handed, in random
/// order, until its rounds are spent or `stop` is raised, then finishes
/// everything it holds.
fn publish(
    seed: u64,
    rx: mpsc::Receiver<Handle>,
    stop: Arc<AtomicBool>,
    finishing: Arc<AtomicU64>,
) -> HashMap<u64, StreamLog> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<(Handle, StreamLog)> = Vec::new();
    let mut done: HashMap<u64, StreamLog> = HashMap::new();
    let finish = |h: Handle, log: StreamLog, done: &mut HashMap<u64, StreamLog>| {
        finishing.fetch_add(1, Ordering::SeqCst);
        done.insert(h.id(), log);
        h.finish();
    };
    for _ in 0..ROUNDS {
        while let Ok(h) = rx.try_recv() {
            live.push((h, StreamLog::default()));
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if live.is_empty() {
            thread::yield_now();
            continue;
        }
        let i = rng.gen_range(0..live.len());
        let (h, log) = &mut live[i];
        let n = if rng.gen_range(0..8u32) == 0 {
            rng.gen_range(13..=40usize)
        } else {
            rng.gen_range(1..=12usize)
        };
        let batch: Vec<(&'static str, Rat, u32)> = (0..n)
            .map(|k| {
                log.next_time += rng.gen_range(0..=2i64);
                let a = if rng.gen_bool(0.5) { "go" } else { "done" };
                (a, Rat::from(log.next_time), (log.accepted.len() + k) as u32)
            })
            .collect();
        let result = if n == 1 && rng.gen_bool(0.5) {
            let (a, t, s) = batch[0];
            h.send(a, t, s).map_err(|e| e.accepted)
        } else {
            h.send_batch(batch.iter().copied()).map_err(|e| e.accepted)
        };
        match result {
            Ok(()) => log.accepted.extend_from_slice(&batch),
            Err(accepted) => {
                log.accepted.extend_from_slice(&batch[..accepted as usize]);
                log.errored = true;
            }
        }
        // Finish right after publishing, racing the worker's drain; a
        // failed stream is finished at once.
        if log.errored || rng.gen_range(0..40u32) == 0 {
            let (h, log) = live.swap_remove(i);
            finish(h, log, &mut done);
        }
        if rng.gen_range(0..8u32) == 0 {
            thread::sleep(Duration::from_micros(rng.gen_range(0..300)));
        }
    }
    for (h, log) in live.drain(..) {
        finish(h, log, &mut done);
    }
    // Streams handed over after the rounds ran out are finished unused.
    for h in rx.iter() {
        finish(h, StreamLog::default(), &mut done);
    }
    done
}

fn run(workers: usize, policy: OverloadPolicy, shutdown_mid_run: bool, seed: u64) {
    let conds = conds();
    let set = Arc::new(CompiledConditionSet::new(&conds));
    let mut pool: MonitorPool<u32, &'static str> = MonitorPool::from_compiled(
        Arc::clone(&set),
        PoolConfig {
            workers,
            queue_capacity: 16,
            policy,
            drain_batch: 8,
            ..PoolConfig::default()
        },
    );
    let ctx = format!("{workers} worker(s), {policy:?}, shutdown mid-run: {shutdown_mid_run}");
    let idle: Vec<Handle> = (0..IDLE_STREAMS).map(|_| pool.open_stream(0)).collect();
    let mut opened = IDLE_STREAMS;

    let stop = Arc::new(AtomicBool::new(false));
    let finishing = Arc::new(AtomicU64::new(0));
    let mut senders = Vec::new();
    let (done_tx, done_rx) = mpsc::channel::<HashMap<u64, StreamLog>>();
    for t in 0..THREADS {
        let (tx, rx) = mpsc::channel::<Handle>();
        for _ in 0..INITIAL_PER_THREAD {
            tx.send(pool.open_stream(0)).unwrap();
            opened += 1;
        }
        senders.push(tx);
        let (stop, finishing) = (Arc::clone(&stop), Arc::clone(&finishing));
        let done_tx = done_tx.clone();
        thread::spawn(move || {
            let logs = publish(seed * 1_000 + t as u64, rx, stop, finishing);
            done_tx.send(logs).expect("collector alive");
        });
    }

    let mut early: Vec<StreamReport> = Vec::new();
    for wave in 0..WAVES {
        thread::sleep(Duration::from_millis(5));
        early.extend(pool.drain_finished());
        for k in 0..WAVE {
            senders[k % THREADS].send(pool.open_stream(0)).unwrap();
            opened += 1;
        }
        if wave == WAVES / 2 {
            // Every stream not filed before the reload is swapped and
            // counted: at least those not yet being finished, at most
            // those whose report was not yet collected.
            early.extend(pool.drain_finished());
            let filed_before = early.len();
            let rep = pool.reload(&conds);
            let finished_by = finishing.load(Ordering::SeqCst) as usize;
            assert!(
                rep.streams >= opened - finished_by && rep.streams <= opened - filed_before,
                "{ctx}: reload counted {} streams; {opened} opened, \
                 {finished_by} finishing, {filed_before} filed",
                rep.streams
            );
            assert_eq!(rep.workers, workers, "{ctx}");
        }
    }

    if shutdown_mid_run {
        early.extend(pool.drain_finished());
        pool.begin_shutdown();
        stop.store(true, Ordering::SeqCst);
    }
    let exact_ids: Vec<u64> = early.iter().map(|r| r.stream).collect();
    drop(senders);
    // A `Block` producer whose full ring the worker never revisits
    // waits forever: fail instead of hanging.
    drop(done_tx);
    let mut logs: HashMap<u64, StreamLog> = HashMap::new();
    for _ in 0..THREADS {
        let got = done_rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("{ctx}: a publisher stalled or panicked ({e})"));
        logs.extend(got);
    }
    drop(idle);
    if !shutdown_mid_run {
        // Liveness of the ready list: with every stream finished, every
        // report arrives through the live egress path. The final
        // shutdown sweeps every stream, so it would hide a stream whose
        // events or finish the worker never got to see.
        let deadline = Instant::now() + Duration::from_secs(60);
        while early.len() < opened && Instant::now() < deadline {
            let got = pool.drain_finished();
            if got.is_empty() {
                thread::sleep(Duration::from_millis(1));
            }
            early.extend(got);
        }
        assert_eq!(early.len(), opened, "{ctx}: streams left unfiled");
    }
    let report = pool.shutdown();

    // Every opened stream files exactly one report.
    let mut reports: Vec<StreamReport> = early;
    reports.extend(report.streams);
    reports.sort_by_key(|r| r.stream);
    let ids: Vec<u64> = reports.iter().map(|r| r.stream).collect();
    assert_eq!(ids, (0..opened as u64).collect::<Vec<_>>(), "{ctx}");

    let exact = |id: u64| !shutdown_mid_run || exact_ids.contains(&id);
    let empty = StreamLog::default();
    let mut accepted_total = 0u64;
    let mut observed_total = 0u64;
    for r in &reports {
        let log = logs.get(&r.stream).unwrap_or(&empty);
        let accepted = log.accepted.len();
        accepted_total += accepted as u64;
        observed_total += r.events as u64;
        assert!(
            r.events <= accepted,
            "{ctx}: stream {} observed {} events, {accepted} accepted",
            r.stream,
            r.events
        );
        if policy == OverloadPolicy::DropOldest || !exact(r.stream) {
            continue;
        }
        assert_eq!(r.events, accepted, "{ctx}: stream {}", r.stream);
        assert_eq!(r.failed, log.errored, "{ctx}: stream {}", r.stream);
        let mut seq = TimedSequence::new(0u32);
        for &(a, t, s) in &log.accepted {
            seq.push(a, t, s);
        }
        assert_eq!(
            r.violations,
            set.fold_sequence(&seq, SatisfactionMode::Prefix),
            "{ctx}: stream {} verdicts differ from the offline fold",
            r.stream
        );
    }
    assert_eq!(report.metrics.events, observed_total, "{ctx}");
    if !shutdown_mid_run {
        let expected = match policy {
            OverloadPolicy::DropOldest => accepted_total - report.metrics.dropped_events,
            _ => accepted_total,
        };
        assert_eq!(observed_total, expected, "{ctx}");
    }
    if policy == OverloadPolicy::Block && !shutdown_mid_run {
        assert!(reports.iter().all(|r| !r.failed), "{ctx}");
    }
}

#[test]
fn block_policy_observes_every_accepted_event_once() {
    run(1, OverloadPolicy::Block, false, 1);
    run(2, OverloadPolicy::Block, false, 2);
}

#[test]
fn drop_oldest_policy_observes_accepted_minus_dropped() {
    run(1, OverloadPolicy::DropOldest, false, 3);
    run(2, OverloadPolicy::DropOldest, false, 4);
}

#[test]
fn fail_stream_policy_observes_every_accepted_prefix_once() {
    run(1, OverloadPolicy::FailStream, false, 5);
    run(2, OverloadPolicy::FailStream, false, 6);
}

#[test]
fn shutdown_mid_run_files_every_stream_once() {
    run(2, OverloadPolicy::Block, true, 7);
    run(1, OverloadPolicy::DropOldest, true, 8);
    run(2, OverloadPolicy::FailStream, true, 9);
}
