//! The server under test as a child process, observed from outside.
//!
//! The benchmark binary re-executes itself in a `serve` role around
//! [`Server::start`]; the parent reads the child's CPU time and memory
//! from `/proc` and, at shutdown, the final `PoolReport.metrics`
//! scalars the child prints.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use tempo_monitor::PoolConfig;
use tempo_serve::{ServeConfig, Server};
use tempo_sim::loadgen::ReqServe;

/// Environment variable carrying the `.tspec` source to the child.
pub const SPEC_ENV: &str = "TEMPO_BENCHMARK_SPEC";

/// Threads [`Server::start`] spawns with one pool worker and one I/O
/// thread, in spawn order: pool worker, io, acceptor, egress.
const SERVER_THREADS: usize = 4;

/// The server shape every workload runs (the E18a/E19a shape): one I/O
/// thread, one pool worker, 64-event stream queues.
pub fn serve_config(spec: &str) -> ServeConfig {
    let mut config = ServeConfig::new(spec, &ReqServe::ACTIONS);
    config.io_threads = 1;
    config.pool = PoolConfig {
        workers: 1,
        queue_capacity: 64,
        ..PoolConfig::default()
    };
    config
}

/// The `serve` role: starts the server, prints `addr <addr>`, serves
/// until stdin closes, then prints the final pool metrics as
/// `pool <name> <value>` lines.
pub fn serve(spec: &str) -> io::Result<()> {
    let server = Server::start(serve_config(spec)).map_err(io::Error::other)?;
    let mut out = io::stdout().lock();
    writeln!(out, "addr {}", server.local_addr())?;
    out.flush()?;
    io::copy(&mut io::stdin().lock(), &mut io::sink())?;
    let m = server.shutdown().metrics;
    for (name, value) in [
        ("events", m.events),
        ("batches", m.batches),
        ("batched_events", m.batched_events),
        ("max_queue_depth", m.max_queue_depth),
        ("dropped_events", m.dropped_events),
        ("failed_streams", m.failed_streams),
    ] {
        writeln!(out, "pool {name} {value}")?;
    }
    out.flush()
}

/// How to start a child in the `serve` role.
#[derive(Clone, Debug)]
pub struct Launch {
    /// Program and arguments; the spec travels in [`SPEC_ENV`].
    pub command: Vec<String>,
    /// Threads the child runs before [`Server::start`] adds its own.
    pub base_threads: usize,
}

impl Launch {
    /// This binary, re-executed as `tempo-benchmark serve`.
    pub fn this_binary() -> io::Result<Launch> {
        let exe = std::env::current_exe()?;
        Ok(Launch {
            command: vec![exe.to_string_lossy().into_owned(), "serve".to_string()],
            base_threads: 1,
        })
    }
}

/// A running child server.
pub struct Child {
    proc: std::process::Child,
    stdout: BufReader<ChildStdout>,
    /// The server's listen address.
    pub addr: SocketAddr,
    /// Spawn to listen address: compile, bind and thread start-up.
    pub setup: Duration,
    base_threads: usize,
}

/// One `/proc` reading of the child.
#[derive(Clone, Debug)]
pub struct Sample {
    /// CPU time of every live thread, by ascending thread id.
    pub threads: Vec<(u32, u64)>,
    /// `VmRSS` in KiB.
    pub rss_kb: u64,
    /// `VmHWM` (peak RSS) in KiB.
    pub hwm_kb: u64,
}

impl Sample {
    /// CPU time of the whole process, in ns.
    pub fn cpu_ns(&self) -> u64 {
        self.threads.iter().map(|&(_, ns)| ns).sum()
    }
}

impl Child {
    /// Spawns a server for `spec` and waits for its listen address.
    pub fn spawn(launch: &Launch, spec: &str) -> io::Result<Child> {
        let started = Instant::now();
        let mut proc = Command::new(&launch.command[0])
            .args(&launch.command[1..])
            .env(SPEC_ENV, spec)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(proc.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = proc.kill();
                let _ = proc.wait();
                return Err(io::Error::other("server exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("addr ") {
                break addr.parse().map_err(io::Error::other)?;
            }
        };
        Ok(Child {
            setup: started.elapsed(),
            proc,
            stdout,
            addr,
            base_threads: launch.base_threads,
        })
    }

    /// Reads the child's threads and memory.
    pub fn sample(&self) -> io::Result<Sample> {
        let dir = PathBuf::from(format!("/proc/{}", self.proc.id()));
        let mut threads = Vec::new();
        for entry in std::fs::read_dir(dir.join("task"))? {
            let entry = entry?;
            let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
                continue;
            };
            // A thread can exit between listing and reading.
            if let Ok(ns) = schedstat_ns(&entry.path()) {
                threads.push((tid, ns));
            }
        }
        threads.sort_unstable();
        let status = std::fs::read_to_string(dir.join("status"))?;
        Ok(Sample {
            threads,
            rss_kb: status_kb(&status, "VmRSS:")?,
            hwm_kb: status_kb(&status, "VmHWM:")?,
        })
    }

    /// CPU ns each server thread (pool worker, io, acceptor, egress)
    /// spent between two samples, or `None` when the child's threads are
    /// not the expected set (a server whose threading changed; the
    /// attribution would be wrong).
    pub fn server_thread_cpu(&self, a: &Sample, b: &Sample) -> Option<[u64; SERVER_THREADS]> {
        let expected = self.base_threads + SERVER_THREADS;
        if a.threads.len() != expected || b.threads.len() != expected {
            return None;
        }
        let mut out = [0u64; SERVER_THREADS];
        for (i, (x, y)) in a.threads[self.base_threads..]
            .iter()
            .zip(&b.threads[self.base_threads..])
            .enumerate()
        {
            if x.0 != y.0 {
                return None;
            }
            out[i] = y.1.saturating_sub(x.1);
        }
        Some(out)
    }

    /// Closes the child's stdin, which shuts the server down, and
    /// returns the pool metrics it printed.
    pub fn stop(mut self) -> io::Result<HashMap<String, u64>> {
        drop(self.proc.stdin.take());
        let (proc, stdout) = (&mut self.proc, &mut self.stdout);
        // The read ends when the child exits, or is killed for hanging.
        let (status, text) = thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut text = String::new();
                stdout.read_to_string(&mut text).map(|_| text)
            });
            let deadline = Instant::now() + Duration::from_secs(30);
            let status = loop {
                match proc.try_wait() {
                    Ok(Some(status)) => break Ok(status),
                    Ok(None) if Instant::now() < deadline => {
                        thread::sleep(Duration::from_millis(5))
                    }
                    other => {
                        let _ = proc.kill();
                        let _ = proc.wait();
                        break Err(other
                            .err()
                            .unwrap_or_else(|| io::Error::other("server did not shut down")));
                    }
                }
            };
            (status, reader.join().expect("stdout reader panicked"))
        });
        let (status, text) = (status?, text?);
        if !status.success() {
            return Err(io::Error::other(format!("server exited with {status}")));
        }
        Ok(text
            .lines()
            .filter_map(|l| {
                let mut parts = l.strip_prefix("pool ")?.split_whitespace();
                Some((parts.next()?.to_string(), parts.next()?.parse().ok()?))
            })
            .collect())
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        // Only reached on an error path that skipped `stop`.
        if let Ok(None) = self.proc.try_wait() {
            let _ = self.proc.kill();
            let _ = self.proc.wait();
        }
    }
}

/// Time on CPU, in ns, of the thread or process at `dir`.
pub fn schedstat_ns(dir: &std::path::Path) -> io::Result<u64> {
    std::fs::read_to_string(dir.join("schedstat"))?
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::other("unreadable schedstat"))
}

/// CPU ns of the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns(std::path::Path::new("/proc/thread-self")).unwrap_or(0)
}

/// CPU ns of every live thread of this process: the ledger's CPU clock.
pub fn own_cpu_ns() -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir("/proc/self/task")? {
        if let Ok(ns) = schedstat_ns(&entry?.path()) {
            total += ns;
        }
    }
    Ok(total)
}

fn status_kb(status: &str, key: &str) -> io::Result<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::other(format!("no {key} in /proc status")))
}
