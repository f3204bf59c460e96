//! The per-stream lag list stays bounded over a pool's lifetime.
//!
//! Every opened stream registers lag counters with the pool's metrics.
//! Finished streams are pruned on an amortized schedule, so a long-lived
//! pool that has opened hundreds of thousands of streams still snapshots
//! (and ships as one `METRICS_SNAP2` frame) only about its live ones.

use std::sync::Arc;

use tempo_math::Rat;
use tempo_monitor::{MonitorPool, PoolConfig, STREAM_PRUNE_FLOOR};
use tempo_serve::{wire, ServeConfig};
use tempo_spec::{MapBinder, SpecRevision};

const STREAMS: usize = 200_000;
/// Streams open at once: each wave is opened, fed, finished, and its
/// reports collected before the next wave opens.
const WAVE: usize = 64;

#[test]
fn lag_list_stays_bounded_over_200k_streams() {
    let rev = SpecRevision::compile(
        "spec live; actions GO, DONE;\n\
         cond C { trigger on GO; pi DONE; bounds [0, 10]; }",
        &MapBinder::new(|n: &str| Some(n.to_string())),
    )
    .expect("fixture spec compiles");
    let mut pool: MonitorPool<u8, String> = MonitorPool::from_compiled(
        Arc::clone(rev.compiled()),
        PoolConfig {
            workers: 1,
            queue_capacity: 4,
            ..PoolConfig::default()
        },
    );
    let metrics = pool.metrics();
    let mut reported = 0;
    for _ in 0..STREAMS / WAVE {
        let mut wave: Vec<_> = (0..WAVE).map(|_| pool.open_stream(0u8)).collect();
        for h in &mut wave {
            h.send("GO".to_string(), Rat::from(1), 0).unwrap();
            h.send("DONE".to_string(), Rat::from(2), 0).unwrap();
        }
        let listed = metrics.snapshot().streams.len();
        assert!(
            listed <= 2 * WAVE + STREAM_PRUNE_FLOOR,
            "{listed} streams listed with {WAVE} live"
        );
        drop(wave);
        let target = reported + WAVE;
        while reported < target {
            let reports = pool.drain_finished();
            assert!(reports
                .iter()
                .all(|r| r.events == 2 && r.violations.is_empty()));
            reported += reports.len();
            if reports.is_empty() {
                std::thread::yield_now();
            }
        }
    }
    assert_eq!(reported, STREAMS / WAVE * WAVE);

    let snap = metrics.snapshot();
    let mut frame = Vec::new();
    wire::encode_metrics_snap2(&mut frame, &snap);
    let cap = ServeConfig::new("", &[]).max_conn_egress;
    assert!(
        frame.len() * 64 < cap,
        "METRICS_SNAP2 of {} bytes vs a {cap}-byte egress cap",
        frame.len()
    );
    pool.shutdown();
}
