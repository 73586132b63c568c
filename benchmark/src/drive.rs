//! The load generator: closed-loop Q clients, the open-loop paced
//! writer of `ingest_tail`, and the generator's checks on itself.

use crate::client::Client;
use crate::gen::Class;
use crate::oracle::expect_of;
use crate::workload::{self, Check, Ingest, Plan, Setup};
use hyperq::gateway::PgWireBackend;
use hyperq::Backend;
use qlang::Value;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// The open-loop writer may run this late before a run is invalid.
pub const MAX_GENERATOR_LAG_MS: f64 = 50.0;
/// Share of one core the generator's own threads may use.
pub const MAX_GENERATOR_CPU_SHARE: f64 = 0.25;

/// When each phase of a run starts, shared by every generator thread.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub warm_end: Instant,
    pub end: Instant,
}

impl Schedule {
    /// Starts a little from now, so every thread has connected by then.
    pub fn new(warmup: Duration, window: Duration) -> Schedule {
        let start = Instant::now() + Duration::from_millis(100);
        Schedule {
            start,
            warm_end: start + warmup,
            end: start + warmup + window,
        }
    }

    fn wait_for_start(&self) {
        std::thread::sleep(self.start.saturating_duration_since(Instant::now()));
    }
}

/// On-CPU nanoseconds of the calling thread, 0 where `/proc` has none.
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Debug, Default)]
pub struct ReaderResult {
    /// Round trips completed in the window, in ms, by class.
    pub latency_ms: [Vec<f64>; 4],
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, with their statement text.
    pub failures: Vec<String>,
    /// On-CPU time of this client thread during the window.
    pub cpu_ns: u64,
    /// When each of them completed, in seconds after the warm-up ended.
    pub done_s: Vec<f64>,
}

fn verdict(check: Check, reply: &Result<Value, String>) -> Result<(), String> {
    let value = reply.as_ref().map_err(|e| format!("error reply: {e}"))?;
    let got = expect_of(value);
    match check {
        Check::Exact(want) if got == want => Ok(()),
        Check::Exact(want) => Err(format!("wrong result: got {got:?}, oracle has {want:?}")),
        Check::Rows(want) if got.0 == want => Ok(()),
        Check::Rows(want) => Err(format!(
            "wrong row count: got {}, generator counted {want}",
            got.0
        )),
    }
}

/// One closed-loop client: the next statement goes out when the reply
/// to the last one is in.
pub fn reader(setup: &Setup, client: usize, sched: &Schedule) -> ReaderResult {
    let mut conn = Client::connect(&setup.qipc_addr, "hqbench").expect("connect to own endpoint");
    let mut dealer = setup.plan.dealer(setup.seed, client);
    let mut out = ReaderResult::default();
    let mut cpu_at_warm_end = None;
    sched.wait_for_start();
    let mut k = 0u64;
    loop {
        let now = Instant::now();
        if now >= sched.end {
            break;
        }
        if now >= sched.warm_end && cpu_at_warm_end.is_none() {
            cpu_at_warm_end = Some(thread_cpu_ns());
        }
        let issue = setup.plan.issue(&mut dealer, client, k);
        k += 1;
        let t0 = Instant::now();
        let reply = conn.query(&issue.text);
        let done = Instant::now();
        if done < sched.warm_end || done >= sched.end {
            continue;
        }
        out.attempted += 1;
        out.latency_ms[issue.class.index()].push((done - t0).as_secs_f64() * 1e3);
        out.done_s.push((done - sched.warm_end).as_secs_f64());
        if let Err(why) = verdict(issue.check, &reply) {
            out.failed += 1;
            if out.failures.len() < 5 {
                out.failures.push(format!("{why}: {}", issue.text));
            }
        }
    }
    out.cpu_ns = thread_cpu_ns().saturating_sub(cpu_at_warm_end.unwrap_or_else(thread_cpu_ns));
    out
}

#[derive(Debug, Default)]
pub struct WriterResult {
    /// Acknowledgement latency from each batch's due time, in ms.
    pub ack_ms: Vec<f64>,
    /// Extra service time of the batches that ran a checkpoint, in s.
    pub checkpoint_s: f64,
    /// How late the generator sent its latest send, in ms.
    pub lag_ms_max: f64,
    pub attempted: u64,
    /// Errors plus batches acknowledged more than `LATE_AFTER` late.
    pub failed: u64,
    pub late: u64,
    pub failures: Vec<String>,
    pub cpu_ns: u64,
    /// Batches sent and acknowledged over the whole run, burst included.
    pub sent_batches: usize,
    pub acked_batches: usize,
}

/// The open-loop writer: one batch every `1/PACED_BATCHES_PER_S`
/// seconds whatever the engine does, each timed from its due time.
pub fn paced_writer(setup: &Setup, ingest: &Ingest, sched: &Schedule) -> WriterResult {
    let Plan::Tail(tail) = &setup.plan else {
        panic!("paced writer without a tail plan")
    };
    let mut conn = PgWireBackend::connect(&ingest.pg_addr, &workload::credentials())
        .expect("connect to own PG server");
    let period = Duration::from_nanos(1_000_000_000 / workload::PACED_BATCHES_PER_S);
    let checkpoints = obs::global_registry().counter("checkpoints_total");
    let mut out = WriterResult {
        sent_batches: ingest.burst_batches,
        acked_batches: ingest.burst_batches,
        ..Default::default()
    };
    let mut service_ms: Vec<(f64, bool)> = Vec::new();
    let mut cpu_at_warm_end = None;
    let mut previous_done = sched.start;
    for (k, sql) in ingest.batches[ingest.burst_batches..].iter().enumerate() {
        let due = sched.start + period * k as u32;
        if due >= sched.end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let measured = due >= sched.warm_end;
        if measured && cpu_at_warm_end.is_none() {
            cpu_at_warm_end = Some(thread_cpu_ns());
        }
        let sent = Instant::now();
        let checkpoints_before = checkpoints.get();
        out.sent_batches += 1;
        let reply = conn.execute_sql(sql);
        let done = Instant::now();
        let free_at = std::mem::replace(&mut previous_done, done);
        if reply.is_ok() {
            out.acked_batches += 1;
            tail.acked.store(
                (out.acked_batches * crate::gen::BATCH_ROWS) as u64,
                Ordering::Release,
            );
        }
        if !measured {
            continue;
        }
        out.attempted += 1;
        // A send held up by the previous batch waited for the engine and
        // shows in its own acknowledgement latency; only a send that was
        // free to go on time and did not is the generator's lateness.
        if free_at <= due {
            out.lag_ms_max = out.lag_ms_max.max((sent - due).as_secs_f64() * 1e3);
        }
        out.ack_ms.push((done - due).as_secs_f64() * 1e3);
        service_ms.push((
            (done - sent).as_secs_f64() * 1e3,
            checkpoints.get() > checkpoints_before,
        ));
        let late = done - due > workload::LATE_AFTER;
        out.late += u64::from(late);
        if let Err(e) = &reply {
            out.failed += 1;
            if out.failures.len() < 5 {
                out.failures.push(format!("batch {k} failed: {e}"));
            }
        } else if late {
            out.failed += 1;
        }
    }
    let plain: Vec<f64> = service_ms.iter().filter(|s| !s.1).map(|s| s.0).collect();
    let base = crate::stats::median(&plain);
    out.checkpoint_s = service_ms
        .iter()
        .filter(|s| s.1)
        .map(|s| (s.0 - base).max(0.0))
        .sum::<f64>()
        / 1e3;
    out.cpu_ns = thread_cpu_ns().saturating_sub(cpu_at_warm_end.unwrap_or_else(thread_cpu_ns));
    out
}

/// Counters of the program's global registry the per-layer metrics
/// are differences of.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub wal_appends: u64,
    pub fsyncs: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
}

impl Counters {
    pub fn read() -> Counters {
        let reg = obs::global_registry();
        Counters {
            cache_hits: reg.counter_value("hyperq_translation_cache_hits_total"),
            cache_misses: reg.counter_value("hyperq_translation_cache_misses_total"),
            wal_appends: reg.counter_value("wal_appends_total"),
            fsyncs: reg.histogram("wal_fsync_seconds").count(),
            checkpoints: reg.counter_value("checkpoints_total"),
            checkpoint_bytes: reg.counter_value("checkpoint_bytes_total"),
        }
    }
}

/// Everything the generator saw in one window.
pub struct WindowResult {
    pub readers: Vec<ReaderResult>,
    pub writer: Option<WriterResult>,
    pub window_s: f64,
    /// Registry counters when the warm-up ended and when the window did.
    pub counters: (Counters, Counters),
    /// Generator threads (one connection each) and the cores they had.
    pub threads: usize,
    pub cores: usize,
}

impl WindowResult {
    pub fn latencies(&self, class: Class) -> Vec<f64> {
        self.readers
            .iter()
            .flat_map(|r| r.latency_ms[class.index()].iter().copied())
            .collect()
    }

    pub fn all_latencies(&self) -> Vec<f64> {
        Class::ALL
            .into_iter()
            .flat_map(|c| self.latencies(c))
            .collect()
    }

    /// When each statement of the window completed, every client's.
    pub fn completions(&self) -> Vec<f64> {
        self.readers
            .iter()
            .flat_map(|r| r.done_s.iter().copied())
            .collect()
    }

    /// Share of one core the generator's threads were on CPU.
    pub fn generator_cpu_share(&self) -> f64 {
        let ns: u64 = self.readers.iter().map(|r| r.cpu_ns).sum::<u64>()
            + self.writer.as_ref().map_or(0, |w| w.cpu_ns);
        ns as f64 / 1e9 / self.window_s
    }

    /// Why this window must not be reported, if it must not.
    pub fn invalid(&self) -> Option<String> {
        if self.threads > self.cores {
            return Some(format!(
                "{} client threads on {} cores would measure the scheduler",
                self.threads, self.cores
            ));
        }
        let lag = self.writer.as_ref().map_or(0.0, |w| w.lag_ms_max);
        if lag > MAX_GENERATOR_LAG_MS {
            return Some(format!(
                "open-loop sends ran {lag:.1} ms late (limit {MAX_GENERATOR_LAG_MS} ms)"
            ));
        }
        let share = self.generator_cpu_share();
        if share > MAX_GENERATOR_CPU_SHARE {
            return Some(format!(
                "generator used {:.0} % of one core (limit {:.0} %)",
                share * 100.0,
                MAX_GENERATOR_CPU_SHARE * 100.0
            ));
        }
        None
    }
}

/// Run warm-up and the measured window: every generator thread of the
/// workload, from this one process.
pub fn window(setup: &Setup, warmup: Duration, window: Duration) -> WindowResult {
    let readers = setup.workload.readers();
    let threads = readers + usize::from(setup.ingest.is_some());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sched = Schedule::new(warmup, window);
    let sched = &sched;
    std::thread::scope(|s| {
        let reader_handles: Vec<_> = (0..readers)
            .map(|c| s.spawn(move || reader(setup, c, sched)))
            .collect();
        let writer_handle = setup
            .ingest
            .as_ref()
            .map(|ingest| s.spawn(move || paced_writer(setup, ingest, sched)));
        std::thread::sleep(sched.warm_end.saturating_duration_since(Instant::now()));
        let at_warm_end = Counters::read();
        std::thread::sleep(sched.end.saturating_duration_since(Instant::now()));
        let at_end = Counters::read();
        WindowResult {
            readers: reader_handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect(),
            writer: writer_handle.map(|h| h.join().expect("writer thread")),
            window_s: window.as_secs_f64(),
            counters: (at_warm_end, at_end),
            threads,
            cores,
        }
    })
}
