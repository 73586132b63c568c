//! Command line. The driver's form runs one workload in this process:
//!
//! ```text
//! hqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run`, `trace` and `repeat` run every workload, each in a fresh child
//! process of the driver's form, so peak memory, the global metrics
//! registry and every cache start clean.

use crate::run::{self, Metric, RunOutput, RunSpec, END_TO_END};
use crate::stats::quartile_spread;
use crate::trace::{self, PER_LAYER};
use crate::workload::{self, Workload};
use std::process::{Command, Stdio};

/// Set-ups timed in child processes before a driver run's own set-up,
/// and again after its window; `setup_s` is the median of all three.
const SETUP_CHILDREN: usize = 1;
/// Window the human subcommands measure unless told otherwise; the
/// driver passes its own through `--seconds`.
const DEFAULT_SECONDS: u64 = 22;

#[derive(Debug, Default, Clone)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    setup_only: bool,
    sets: usize,
    sample: Option<usize>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        seed: 1,
        sets: 2,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => out.workload = Some(value("--workload")?),
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed wants a whole number")?
            }
            "--seconds" => {
                out.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|_| "--seconds wants a whole number")?,
                )
            }
            "--trace" => out.trace = value("--trace")? == "1",
            "--sets" => {
                out.sets = value("--sets")?
                    .parse()
                    .map_err(|_| "--sets wants a whole number")?
            }
            "--sample" => {
                out.sample = Some(
                    value("--sample")?
                        .parse()
                        .map_err(|_| "--sample wants a whole number")?,
                )
            }
            "--quick" => out.quick = true,
            "--setup-only" => out.setup_only = true,
            "run" | "trace" | "repeat" if out.command.is_none() => out.command = Some(a.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn spec_of(args: &Args, workload: Workload) -> RunSpec {
    if args.quick {
        let mut spec = RunSpec::quick(workload, args.seed);
        if let Some(s) = args.seconds {
            spec.seconds = s;
        }
        spec
    } else {
        RunSpec::full(workload, args.seed, args.seconds.unwrap_or(DEFAULT_SECONDS))
    }
}

/// Arguments that make a child do the same work as `args` on `workload`.
fn child_args(args: &Args, workload: Workload, trace: bool) -> Vec<String> {
    let spec = spec_of(args, workload);
    let mut v = vec![
        "--workload".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        spec.seconds.to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ];
    if args.quick {
        v.push("--quick".to_string());
    }
    if let Some(n) = args.sample {
        v.extend(["--sample".to_string(), n.to_string()]);
    }
    v
}

/// Run this executable with `args`; wait for it; give back its stdout.
fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child run: {e}"))?;
    if !out.status.success() {
        return Err(format!("child run {args:?} ended with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))
}

/// The driver's form: one workload, here.
fn driver(args: &Args, name: &str) -> Result<i32, String> {
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let spec = spec_of(args, workload);
    if args.setup_only {
        let (_, setup_s) = run::timed_setup(&spec)?;
        println!("{setup_s}");
        return Ok(0);
    }
    let out = if args.trace {
        trace::traced(&spec, args.sample.unwrap_or(trace::DRIVER_SAMPLE))?
    } else {
        // Set-up is timed in fresh processes too, so that `setup_s` is a
        // median and this process's peak memory holds one copy of the data.
        let mut setup_children = || {
            (0..SETUP_CHILDREN)
                .map(|_| {
                    let mut a = child_args(args, workload, false);
                    a.push("--setup-only".to_string());
                    let text = child(&a)?;
                    text.trim()
                        .parse::<f64>()
                        .map_err(|_| format!("set-up child said {text:?}"))
                })
                .collect()
        };
        run::untraced(&spec, &mut setup_children)?
    };
    for note in &out.notes {
        println!("{note}");
    }
    if let Some(why) = &out.invalid {
        // Said here and not hidden; the human subcommands refuse the run.
        println!("INVALID {why}");
    }
    println!("{}", out.json_line());
    Ok(0)
}

/// Parse the JSON line a driver-form child printed.
fn parse_json_line(line: &str) -> Result<RunOutput, String> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
    };
    let mut out = RunOutput {
        attempted: field("attempted")
            .and_then(|v| v.parse().ok())
            .ok_or("no attempted")?,
        failed: field("failed")
            .and_then(|v| v.parse().ok())
            .ok_or("no failed")?,
        ..RunOutput::default()
    };
    let units = END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
    for (name, unit) in units {
        let pat = format!("\"{name}\": {{\"value\": ");
        if let Some(at) = line.find(&pat) {
            let rest = &line[at + pat.len()..];
            let value = rest[..rest.find(',').ok_or("cut metric")?]
                .parse()
                .map_err(|_| "bad metric")?;
            out.metrics.push(Metric { name, value, unit });
        }
    }
    Ok(out)
}

/// One child run of every workload; prints each child's notes.
fn suite(args: &Args, trace: bool) -> Result<Vec<(Workload, RunOutput)>, String> {
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let text = child(&child_args(args, workload, trace))?;
        let mut lines: Vec<&str> = text.lines().collect();
        let json = lines.pop().ok_or("child printed nothing")?;
        let mut out = parse_json_line(json)?;
        for l in lines {
            println!("  [{}] {l}", workload.name());
            if let Some(why) = l.strip_prefix("INVALID ") {
                out.invalid = Some(why.to_string());
            }
        }
        rows.push((workload, out));
    }
    Ok(rows)
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or("unknown".into(), |s| s.trim().to_string()),
        None if !head.trim().is_empty() => head.trim().to_string(),
        None => "unknown".to_string(),
    }
}

fn header(args: &Args, what: &str) {
    let spec = spec_of(args, Workload::TaqWire);
    println!(
        "hqbench {what}: seed {}, commit {}, nproc {}, one generator process, \
         at most 2 client threads/connections, closed loop (ingest_tail writer: open loop, {} batches/s)",
        args.seed,
        git_commit(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workload::PACED_BATCHES_PER_S,
    );
    println!(
        "window {} s after {} s warm-up; servers net_workers={}, exec_threads={}; fsync group {} ms; \
         latencies are this sandbox's, not a device's{}",
        spec.seconds,
        spec.warmup_s,
        workload::NET_WORKERS,
        workload::EXEC_THREADS,
        workload::FSYNC_WINDOW.as_millis(),
        if args.quick { "; QUICK sizes" } else { "" },
    );
}

fn print_table(rows: &[(Workload, RunOutput)], names: &[(&str, &str)]) {
    print!("{:<34}", "metric");
    for (w, _) in rows {
        print!("{:>16}", w.name());
    }
    println!();
    for (name, unit) in names {
        print!("{:<34}", format!("{name} [{unit}]"));
        for (_, out) in rows {
            match out.get(name) {
                Some(v) => print!("{v:>16.4}"),
                None => print!("{:>16}", "-"),
            }
        }
        println!();
    }
    print!("{:<34}", "fail_share [ratio]");
    for (_, out) in rows {
        print!("{:>16.6}", out.failed as f64 / out.attempted.max(1) as f64);
    }
    println!();
    print!("{:<34}", "attempted [count]");
    for (_, out) in rows {
        print!("{:>16}", out.attempted);
    }
    println!();
}

/// Non-zero when any workload failed an operation or was invalid.
fn verdict(rows: &[(Workload, RunOutput)]) -> i32 {
    let mut code = 0;
    for (w, out) in rows {
        if let Some(why) = &out.invalid {
            println!("INVALID {}: {why}", w.name());
            code = 1;
        }
        if out.failed > 0 {
            println!(
                "FAILED {}: {} of {} operations",
                w.name(),
                out.failed,
                out.attempted
            );
            code = 1;
        }
    }
    code
}

fn end_to_end_names() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.0, m.1)).collect()
}

fn cmd_run(args: &Args) -> Result<i32, String> {
    header(args, "run");
    let rows = suite(args, false)?;
    print_table(&rows, &end_to_end_names());
    Ok(verdict(&rows))
}

fn cmd_trace(args: &Args) -> Result<i32, String> {
    header(args, "trace");
    let mut args = args.clone();
    args.sample.get_or_insert(trace::HUMAN_SAMPLE);
    let rows = suite(&args, true)?;
    let names: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    print_table(&rows, &names);
    for w in Workload::ALL {
        println!("spans: {}", trace::trace_path(w).display());
    }
    Ok(verdict(&rows))
}

fn cmd_repeat(args: &Args) -> Result<i32, String> {
    header(args, "repeat");
    let mut sets = Vec::new();
    for n in 0..args.sets.max(2) {
        println!("set {}:", n + 1);
        sets.push(suite(args, false)?);
    }
    let mut code = 0;
    println!(
        "{:<16}{:<16}{:>14}{:>14}{:>10}{:>8}",
        "workload", "metric", "first", "last", "diff", "bound"
    );
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        for (name, _, better, bound) in END_TO_END {
            let values: Vec<f64> = sets.iter().filter_map(|s| s[i].1.get(name)).collect();
            let (first, last) = (values[0], values[values.len() - 1]);
            // Worsening of the last set against the first, as a share of
            // the first; sets beyond two also show their quartile spread.
            let worse = if better == "lower" {
                last - first
            } else {
                first - last
            } / first;
            let spread = if values.len() > 2 {
                quartile_spread(&values)
            } else {
                worse.abs()
            };
            let outside = worse.abs() > bound || spread > bound;
            println!(
                "{:<16}{:<16}{first:>14.4}{last:>14.4}{:>9.1}%{:>7.0}%{}",
                w.name(),
                name,
                worse * 100.0,
                bound * 100.0,
                if outside { "  OUTSIDE" } else { "" }
            );
            code |= i32::from(outside);
        }
    }
    for set in &sets {
        code |= verdict(set);
    }
    Ok(code)
}

/// Fix glibc malloc's thresholds for this process. Left to adapt
/// themselves they depend on the order of earlier frees, and the same
/// binary then runs the same workload 15 to 20 % faster or slower from
/// one run to the next, depending on the state of the arena a worker
/// thread landed in: too unsteady a ruler. Allocations below 32 MiB come
/// from the heap, and the heap is never trimmed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only stores process-wide tuning values, and this
    // runs first thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
        mallopt(M_TOP_PAD, 64 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

/// Entry point; the process exit code.
pub fn main(args: &[String]) -> i32 {
    pin_allocator();
    // Documented knob of the program: one executor thread per backend
    // session, also on the PG server's side of the wire.
    std::env::set_var("HQ_EXEC_THREADS", workload::EXEC_THREADS.to_string());
    let result = parse(args).and_then(|a| match (a.command.as_deref(), a.workload.clone()) {
        (None, Some(name)) => driver(&a, &name),
        (Some("run"), _) => cmd_run(&a),
        (Some("trace"), _) => cmd_trace(&a),
        (Some("repeat"), _) => cmd_repeat(&a),
        _ => Err("usage: hqbench run|trace|repeat [--seed N] [--seconds S] [--sets K] [--quick]\n       \
                  hqbench --workload <name> --seed N --seconds S --trace 0|1"
            .to_string()),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hqbench: {e}");
            2
        }
    }
}
