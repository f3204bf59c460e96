//! Unit tests, and a smoke test that runs every workload at 1/100 size
//! through the same code path as a real run (child server included).

use std::time::Duration;

use tempo_core::SatisfactionMode;
use tempo_math::Rat;
use tempo_spec::SpecRevision;

use super::*;
use crate::child::{serve_config, Launch, SPEC_ENV};
use crate::loopback::sequence;
use crate::report::{result_json, Metric, Percentiles};
use crate::workload::{stream_base, Model, Rolling, Scale, Step, Traffic, Workload, ALL};

/// The `serve` role when the smoke test re-executes this test binary as
/// its server (see [`test_binary_launch`]); a no-op in a normal test run.
#[test]
fn serve_child() {
    if let Ok(spec) = std::env::var(SPEC_ENV) {
        child::serve(&spec).expect("serve role");
    }
}

/// Starts servers by re-running this test binary, filtered down to
/// [`serve_child`]. libtest adds a thread of its own for the test.
fn test_binary_launch() -> Launch {
    let exe = std::env::current_exe().expect("test binary path");
    let args = ["tests::serve_child", "--exact", "--nocapture", "--quiet"];
    Launch {
        command: std::iter::once(exe.to_string_lossy().into_owned())
            .chain(args.map(String::from))
            .collect(),
        base_threads: 2,
    }
}

/// Events in a stream of `w` once its slot is past the staggered first
/// generation.
fn full_len(w: Workload) -> u32 {
    match w.traffic(1) {
        Traffic::Rolling { stream_len, .. } => stream_len,
        Traffic::Open { .. } => workload::SESSION_EVENTS,
    }
}

fn time(model: &Model, stream: u64, i: u64) -> Rat {
    let ev = model.event(stream, i);
    Rat::new(i128::from(ev.num), i128::from(ev.den))
}

#[test]
fn generators_are_deterministic_per_seed() {
    for w in ALL {
        for seed in [1u64, 2] {
            let (a, b) = (w.model(seed), w.model(seed));
            let base = stream_base(seed);
            for i in 0..u64::from(full_len(w)) {
                assert_eq!(a.event(base + 7, i), b.event(base + 7, i), "{}", w.name());
            }
            if let Traffic::Rolling {
                slots, stream_len, ..
            } = w.traffic(1)
            {
                let mut x = Rolling::new(base, slots, stream_len);
                let mut y = Rolling::new(base, slots, stream_len);
                for _ in 0..3 * slots {
                    assert_eq!(x.step(), y.step());
                }
            }
        }
        assert_ne!(stream_base(1), stream_base(2));
    }
    // The seed moves backlog-exact's sub-ms shift, not only its ids.
    let (m1, m2) = (
        Workload::BacklogExact.model(1),
        Workload::BacklogExact.model(2),
    );
    assert_ne!(m1.event(0, 0), m2.event(0, 0));
}

#[test]
fn any_seed_leaves_room_for_2_pow_40_stream_ids() {
    for seed in [0, 1, (1 << 23) - 1, 1 << 23, u64::from(u32::MAX), u64::MAX] {
        assert!(stream_base(seed).checked_add((1 << 40) - 1).is_some());
    }
    assert_eq!(
        parse(&[
            "--workload".into(),
            "flood-clean".into(),
            "--seed".into(),
            u64::MAX.to_string()
        ])
        .map(|o| o.seed),
        Ok(u64::MAX)
    );
}

#[test]
fn event_times_are_nondecreasing_including_the_sub_ms_shift() {
    for w in ALL {
        for seed in [1u64, 5, 9] {
            let model = w.model(seed);
            for stream in stream_base(seed)..stream_base(seed) + 5 {
                let mut last = Rat::from(0);
                for i in 0..u64::from(full_len(w)) {
                    let t = time(&model, stream, i);
                    assert!(
                        t >= last,
                        "{} stream {stream} event {i}: {t} < {last}",
                        w.name()
                    );
                    last = t;
                }
            }
        }
    }
    // Every backlog-exact event is off the integer-ms grid.
    let model = Workload::BacklogExact.model(3);
    assert!((0..2000).all(|i| model.event(11, i).num % 1000 != 0));
}

#[test]
fn expected_violation_counts_do_not_change_across_seeds() {
    for seed in 1..=5u64 {
        let base = stream_base(seed);
        let late = Workload::FloodLate.model(seed);
        let clean = Workload::FloodClean.model(seed);
        for stream in base..base + 8 {
            assert_eq!(late.expected_violations(stream, 2000), 250);
            assert_eq!(clean.expected_violations(stream, 2000), 0);
        }
        // Sessions are late on `(stream + request) % 17 == 0`: any 17
        // consecutive 10-request sessions hold exactly 10 late serves.
        let sessions = Workload::SessionsOpen.model(seed);
        let total: u64 = (base + 100..base + 117)
            .map(|s| sessions.expected_violations(s, 20))
            .sum();
        assert_eq!(total, 10);
    }
}

#[test]
fn backlog_streams_fold_clean_on_the_exact_engine() {
    for seed in 1..=3u64 {
        let model = Workload::BacklogExact.model(seed);
        let config = serve_config(&model.spec());
        let rev = SpecRevision::compile(&config.spec_src, &*config.binder).expect("spec compiles");
        let stream = stream_base(seed) + 3;
        let seq = sequence(&model, stream, full_len(Workload::BacklogExact));
        assert!(rev
            .compiled()
            .fold_sequence(&seq, SatisfactionMode::Prefix)
            .is_empty());
        assert_eq!(model.expected_violations(stream, 2056), 0);
    }
}

#[test]
fn rolling_staggers_the_first_generation_and_reopens_fresh_ids() {
    let mut roll = Rolling::new(100, 4, 20);
    assert_eq!(roll.open_ids().collect::<Vec<_>>(), [100, 101, 102, 103]);
    let mut finished = Vec::new();
    let mut opened = Vec::new();
    for _ in 0..40 {
        if let Step::Rollover {
            finished: f,
            events,
            opened: o,
        } = roll.step()
        {
            finished.push((f, events));
            opened.push(o);
        }
    }
    // Lengths 5, 10, 15, 20: one finish per slot, in slot order.
    assert_eq!(finished[..4], [(100, 5), (101, 10), (102, 15), (103, 20)]);
    assert_eq!(opened[..4], [104, 105, 106, 107]);
}

#[test]
fn percentiles_report_the_sample_count() {
    let p = Percentiles::of((1..=200).rev().map(f64::from).collect());
    assert_eq!((p.n, p.p50, p.p90, p.p99), (200, 100.0, 180.0, 198.0));
    let empty = Percentiles::of(Vec::new());
    assert_eq!(empty.n, 0);
    assert!(empty.p50.is_nan() && empty.p90.is_nan() && empty.p99.is_nan());
}

#[test]
fn the_window_is_cut_into_whole_slices() {
    let secs = Duration::from_secs_f64;
    assert_eq!(Scale::FULL.slices(secs(16.0)), 16);
    assert_eq!(Scale::FULL.slices(secs(2.4)), 2);
    assert_eq!(Scale::FULL.slices(secs(0.2)), 1);
}

#[test]
fn result_line_leaves_out_unmeasured_metrics() {
    let line = result_json(
        true,
        3,
        0,
        &[
            Metric::new("a_ms", 1.25, "ms"),
            Metric::new("b", f64::NAN, "count"),
        ],
    );
    assert_eq!(
        line,
        r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a_ms": {"value": 1.25, "unit": "ms"}}}"#
    );
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let json = include_str!("../../../../../BENCHMARK.json");
    let names: Vec<&str> = ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0))
        .collect();
    for name in &names {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    assert_eq!(json.matches("\"name\":").count(), names.len());
}

#[test]
fn every_workload_runs_at_one_hundredth_size() {
    let scale = Scale {
        div: 100,
        warmup: Duration::from_millis(20),
        setups: 1,
        reload_every: Duration::from_millis(25),
        slice: Duration::from_millis(20),
    };
    assert_eq!(scale.slices(Duration::from_millis(60)), 3);
    for w in ALL {
        let outcome = run(&Options {
            workload: w,
            seed: 3,
            window: Duration::from_millis(60),
            trace: true,
            scale,
            launch: test_binary_launch(),
            spans: None,
        })
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(
            outcome.failures.is_empty(),
            "{}: {:?}",
            w.name(),
            outcome.failures
        );
        assert!(outcome.attempted > 0);
        for (name, _) in END_TO_END {
            assert!(outcome.lines.iter().any(|m| m.name == name), "{name}");
        }
        for (name, unit) in PER_LAYER {
            let m = outcome.metrics.iter().find(|m| m.name == name);
            assert!(m.is_some_and(|m| m.unit == unit), "{}: {name}", w.name());
        }
    }
}
