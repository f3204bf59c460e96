//! `tempo-benchmark`: the serving stack measured end to end and layer by
//! layer on named workloads.
//!
//! ```text
//! tempo-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! ```
//!
//! A run starts the server as a child process (this binary re-executed
//! in its `serve` role), drives it over one loopback connection, checks
//! every verdict, and prints each metric as `workload metric value
//! unit`, then one JSON result line. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` repeats the pass with the generator's
//! calls timed and spans recorded, and adds the in-process per-layer
//! ledger. See `README.md` next to this file for the workloads and
//! metrics.

mod child;
mod ledger;
mod loopback;
mod report;
#[cfg(test)]
mod tests;
mod workload;

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use tempo_spec::SpecRevision;

use crate::child::{serve_config, Launch, SPEC_ENV};
use crate::ledger::{Ledger, Row};
use crate::loopback::{Pass, PassConfig, Slice};
use crate::report::{median, ratio, result_json, Metric, Percentiles};
use crate::workload::{stream_base, Scale, Workload};

/// End-to-end metrics `(name, unit)`, reported by the untraced pass of
/// every workload. Verdict latencies are printed beside them but not
/// listed: on a shared 2-vCPU VM they follow the host's CPU steal (see
/// the README).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("events_per_s", "ev/s"),
    ("cpu_ns_per_event", "ns"),
    ("server_peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by `--trace 1`.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("engine.ns_per_event", "ns"),
    ("engine.exact_frac", "ratio"),
    ("monitor.ns_per_event", "ns"),
    ("pool.ns_per_event", "ns"),
    ("pool.cpu_ns_per_event", "ns"),
    ("pool.send_frac", "ratio"),
    ("pool.open_ns", "ns"),
    ("pool.max_queue_depth", "count"),
    ("pool.mean_batch", "count"),
    ("pool.worker_busy_frac", "ratio"),
    ("wire.ns_per_event", "ns"),
    ("wire.cpu_ns_per_event", "ns"),
    ("wire.report2_encode_ns", "ns"),
    ("wire.report2_bytes", "bytes"),
    ("server.ns_per_event", "ns"),
    ("server.cpu_ns_per_event", "ns"),
    ("server.io_busy_frac", "ratio"),
    ("server.egress_busy_frac", "ratio"),
    ("server.rss_growth_mb", "MB"),
    ("gen.cpu_ns_per_event", "ns"),
    ("gen.encode_ns_per_event", "ns"),
    ("gen.send_blocked_frac", "ratio"),
    ("gen.decode_ns_per_report", "ns"),
    ("gen.bytes_in_per_event", "bytes"),
    ("gen.bytes_out_per_event", "bytes"),
    ("trace.overhead_frac", "ratio"),
];

/// A metric from [`END_TO_END`] or [`PER_LAYER`], with its listed unit.
fn metric(name: &'static str, value: f64) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a listed metric"))
        .1;
    Metric::new(name, value, unit)
}

/// What one invocation runs.
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seeds the inputs.
    pub seed: u64,
    /// The timed window of each pass.
    pub window: Duration,
    /// Run the traced pass and the ledger too.
    pub trace: bool,
    /// Size, warm-up and set-up count.
    pub scale: Scale,
    /// How to start the server.
    pub launch: Launch,
    /// Where the traced pass writes its spans.
    pub spans: Option<PathBuf>,
}

/// What one invocation found.
pub struct Outcome {
    /// Streams opened, over every pass.
    pub attempted: u64,
    /// Every failed check.
    pub failures: Vec<String>,
    /// The result line's metrics: [`END_TO_END`] untraced,
    /// [`PER_LAYER`] traced.
    pub metrics: Vec<Metric>,
    /// Everything printed as `workload metric value unit`.
    pub lines: Vec<Metric>,
}

/// Runs one workload.
pub fn run(opts: &Options) -> io::Result<Outcome> {
    let w = opts.workload;
    let model = w.model(opts.seed);
    let base = stream_base(opts.seed);
    let pass = |oracle| {
        loopback::run(&PassConfig {
            model,
            traffic: w.traffic(opts.scale.div),
            base,
            scale: opts.scale,
            window: opts.window,
            launch: &opts.launch,
            oracle,
        })
    };
    let untraced = pass(None)?;
    let e2e = end_to_end(&untraced);
    let mut failures = untraced.failures.clone();
    let mut attempted = untraced.attempted;
    let mut lines = e2e.clone();
    lines.extend(extra_lines(&untraced));
    if !opts.trace {
        return Ok(Outcome {
            attempted,
            failures,
            metrics: e2e,
            lines,
        });
    }

    let config = serve_config(&model.spec());
    let rev = SpecRevision::compile(&config.spec_src, &*config.binder)
        .map_err(|d| io::Error::other(format!("spec does not compile: {d:?}")))?;
    let set: Arc<loopback::WireSet> = Arc::clone(rev.compiled());
    let traced = pass(Some(&set))?;
    failures.extend(traced.failures.iter().cloned());
    attempted += traced.attempted;
    if traced.oracle_checked == 0 {
        failures.push("no stream was checked against fold_sequence".into());
    }
    let ledger = ledger::run(
        &set,
        config.pool,
        &model,
        w.traffic(opts.scale.div),
        base,
        w.ledger_events(opts.scale.div),
    )?;
    // Each workload must run the engine path it is named for.
    let want_exact = if w == Workload::BacklogExact {
        1.0
    } else {
        0.0
    };
    if ledger.exact_frac != want_exact {
        failures.push(format!(
            "{}: {} of monitors ran on the exact backend, expected {want_exact}",
            w.name(),
            ledger.exact_frac
        ));
    }
    if let Some(path) = &opts.spans {
        loopback::write_spans(path, &traced.spans)?;
    }
    let layers = per_layer(&untraced, &traced, &ledger);
    lines.extend(layers.iter().cloned());
    lines.extend(ledger_lines(&ledger, l4(&untraced)));
    Ok(Outcome {
        attempted,
        failures,
        metrics: layers,
        lines,
    })
}

/// One slice's `[events_per_s, verdict_p50_ms, verdict_p90_ms,
/// cpu_ns_per_event, verdict_p99_ms]`.
fn slice_values(p: &Pass, s: &Slice) -> [f64; 5] {
    let secs = p.window.as_secs_f64() / p.slices.len() as f64;
    let latency = Percentiles::of(s.latency_ms.clone());
    [
        s.events as f64 / secs,
        latency.p50,
        latency.p90,
        ratio(s.cpu_ns as f64, s.events as f64),
        latency.p99,
    ]
}

/// The median over the window's slices of each of [`slice_values`]: a
/// stall or a burst of host noise moves the slices it falls in, not the
/// run's value.
fn slice_medians(p: &Pass) -> [f64; 5] {
    let per_slice: Vec<[f64; 5]> = p.slices.iter().map(|s| slice_values(p, s)).collect();
    std::array::from_fn(|i| median(per_slice.iter().map(|v| v[i])))
}

fn end_to_end(p: &Pass) -> Vec<Metric> {
    let [events_per_s, _, _, cpu_ns, _] = slice_medians(p);
    vec![
        metric(
            "setup_s",
            median(p.setups.iter().map(Duration::as_secs_f64)),
        ),
        metric("events_per_s", events_per_s),
        metric("cpu_ns_per_event", cpu_ns),
        metric("server_peak_rss_mb", p.hwm_kb as f64 / 1024.0),
    ]
}

/// Printed beside the listed metrics but not gated: the verdict
/// latencies, which do not repeat on a shared 2-vCPU VM (see the
/// README), sample counts, and values that exist on some workloads only
/// (reloads, an input schedule).
fn extra_lines(p: &Pass) -> Vec<Metric> {
    let [_, p50, p90, _, p99] = slice_medians(p);
    let samples: usize = p.slices.iter().map(|s| s.latency_ms.len()).sum();
    let reload = Percentiles::of(p.gen.reload_rtt_ms.clone());
    let late = Percentiles::of(p.gen.late_ms.clone());
    let mut lines = vec![
        Metric::new(
            "sessions_per_s",
            samples as f64 / p.window.as_secs_f64(),
            "1/s",
        ),
        Metric::new("verdict_p50_ms", p50, "ms"),
        Metric::new("verdict_p90_ms", p90, "ms"),
        Metric::new("verdict_p99_ms", p99, "ms"),
        Metric::new("verdict_samples", samples as f64, "count"),
        Metric::new("slices", p.slices.len() as f64, "count"),
        Metric::new("gen.late_p99_ms", late.p99, "ms"),
        Metric::new("server.reload_rtt_ms_p50", reload.p50, "ms"),
        Metric::new("server.reload_rtt_ms_p99", reload.p99, "ms"),
    ];
    lines.retain(|m| m.value.is_finite());
    lines
}

/// The ledger's L4 row: the untraced loopback pass, per event sent in
/// its window. On a paced workload its wall column is the inverse of the
/// input rate, not a cost; its CPU column is the server's.
fn l4(p: &Pass) -> Row {
    let events = p.slices.iter().map(|s| s.events).sum::<u64>() as f64;
    let cpu_ns = p.slices.iter().map(|s| s.cpu_ns).sum::<u64>() as f64;
    Row {
        wall_ns: ratio(p.window.as_nanos() as f64, events),
        cpu_ns: ratio(cpu_ns, events),
    }
}

/// Generator CPU (sender and receiver threads) per event sent, over a
/// whole pass.
fn gen_cpu_per_event(p: &Pass) -> f64 {
    ratio(p.gen.cpu_ns as f64, p.gen.events_sent as f64)
}

fn per_layer(untraced: &Pass, traced: &Pass, ledger: &Ledger) -> Vec<Metric> {
    let [l0, l1, l2, l3] = ledger.rows;
    let l4 = l4(untraced);
    let window_ns = traced.window.as_nanos() as f64;
    let busy = |i: usize| {
        traced
            .thread_cpu_ns
            .map_or(f64::NAN, |t| t[i] as f64 / window_ns)
    };
    let pool = |key: &str| traced.pool.get(key).map_or(f64::NAN, |&v| v as f64);
    let gen = &traced.gen;
    vec![
        metric("engine.ns_per_event", l0.wall_ns),
        metric("engine.exact_frac", ledger.exact_frac),
        metric("monitor.ns_per_event", l1.wall_ns - l0.wall_ns),
        metric("pool.ns_per_event", l2.wall_ns - l1.wall_ns),
        metric("pool.cpu_ns_per_event", l2.cpu_ns - l1.cpu_ns),
        metric("pool.send_frac", ledger.send_frac),
        metric("pool.open_ns", ledger.open_ns),
        metric("pool.max_queue_depth", pool("max_queue_depth")),
        metric(
            "pool.mean_batch",
            ratio(pool("batched_events"), pool("batches")),
        ),
        metric("pool.worker_busy_frac", busy(0)),
        metric("wire.ns_per_event", l3.wall_ns - l2.wall_ns),
        metric("wire.cpu_ns_per_event", l3.cpu_ns - l2.cpu_ns),
        metric("wire.report2_encode_ns", ledger.report2_encode_ns),
        metric("wire.report2_bytes", ledger.report2_bytes),
        metric("server.ns_per_event", l4.wall_ns - l3.wall_ns),
        metric("server.cpu_ns_per_event", l4.cpu_ns - l3.cpu_ns),
        metric("server.io_busy_frac", busy(1)),
        metric("server.egress_busy_frac", busy(3)),
        metric(
            "server.rss_growth_mb",
            (traced.rss_end_kb as f64 - traced.rss_warm_kb as f64) / 1024.0,
        ),
        metric("gen.cpu_ns_per_event", gen_cpu_per_event(untraced)),
        metric(
            "gen.encode_ns_per_event",
            ratio(gen.encode_ns as f64, gen.events_sent as f64),
        ),
        metric(
            "gen.send_blocked_frac",
            ratio(gen.blocked_ns as f64, gen.sender_ns as f64),
        ),
        metric(
            "gen.decode_ns_per_report",
            ratio(gen.decode_ns as f64, gen.reports as f64),
        ),
        metric(
            "gen.bytes_in_per_event",
            ratio(gen.bytes_in as f64, gen.events_reported as f64),
        ),
        metric(
            "gen.bytes_out_per_event",
            ratio(gen.bytes_out as f64, gen.events_sent as f64),
        ),
        metric(
            "trace.overhead_frac",
            gen_cpu_per_event(traced) / gen_cpu_per_event(untraced) - 1.0,
        ),
    ]
}

/// The L0–L4 rows, cumulative, as printed lines.
fn ledger_lines(ledger: &Ledger, l4: Row) -> Vec<Metric> {
    let names = ["l0_engine", "l1_monitor", "l2_pool", "l3_wire", "l4_server"];
    let rows = ledger.rows.iter().chain([&l4]);
    let mut lines = vec![Metric::new("ledger.events", ledger.events as f64, "count")];
    for (name, row) in names.iter().zip(rows) {
        lines.push(Metric::new(
            format!("ledger.{name}.wall_ns"),
            row.wall_ns,
            "ns",
        ));
        lines.push(Metric::new(
            format!("ledger.{name}.cpu_ns"),
            row.cpu_ns,
            "ns",
        ));
    }
    lines
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("tempo-benchmark: {msg}");
    eprintln!(
        "usage: tempo-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]"
    );
    eprintln!(
        "workloads: {}",
        workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::FAILURE
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 16.0f64;
    let mut trace = false;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let spans = trace.then(|| {
        spans.unwrap_or_else(|| {
            PathBuf::from(format!(
                "target/tempo-benchmark/spans-{}-seed{seed}.json",
                workload.name()
            ))
        })
    });
    Ok(Options {
        workload,
        seed,
        window: Duration::from_secs_f64(seconds),
        trace,
        scale: Scale::FULL,
        launch: Launch::this_binary().map_err(|e| e.to_string())?,
        spans,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        let Ok(spec) = std::env::var(SPEC_ENV) else {
            return usage(&format!("the serve role reads its spec from {SPEC_ENV}"));
        };
        return match child::serve(&spec) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("tempo-benchmark serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(msg) => return usage(&msg),
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("tempo-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let name = opts.workload.name();
    for m in &outcome.lines {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &opts.spans {
        eprintln!("tempo-benchmark: spans written to {}", path.display());
    }
    for f in outcome.failures.iter().take(20) {
        eprintln!("tempo-benchmark: FAILED {f}");
    }
    let failed = outcome.failures.len() as u64;
    println!(
        "{}",
        result_json(failed == 0, outcome.attempted, failed, &outcome.metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
