//! `svcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one seeded workload through the public `SearchService` API in
//! this process, checks its outputs, and prints every metric with its
//! unit; the last line of standard output is one JSON object. With
//! `--trace 1` it runs the same inputs a second time with spans recorded
//! and prints the per-layer metrics instead. Exits 1 when an output check
//! fails and 2 on bad arguments.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use svcbench::check;
use svcbench::drive::{self, Window};
use svcbench::stats;
use svcbench::trace::{self, Tracer};
use svcbench::workload::{self, Workload};

const USAGE: &str = "usage: svcbench --workload <gd-resnet50|baselines|service-mix> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Set-up runs this many times per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where the benchmark keeps its records: under its own directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The jobs `best_edp_geomean` is taken over: the closed loops' first
/// [`workload::QUALITY_JOBS`], every job of the open loop.
fn quality_set(workload: Workload, window: &Window) -> &[drive::JobRecord] {
    if workload.open_loop() {
        &window.jobs
    } else {
        &window.jobs[..workload::QUALITY_JOBS.min(window.jobs.len())]
    }
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: trace::Metrics,
}

fn run(args: &Args, began: Instant) -> Result<Report, String> {
    let w = args.workload;
    let mut problems: Vec<String> = Vec::new();

    // Set-up: service, inputs and warm-up, several times; the first
    // counts from process start. Only the last set-up is kept.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for r in 0..SETUP_REPEATS {
        drop(prepared.take());
        let start = if r == 0 { began } else { Instant::now() };
        prepared = Some(drive::prepare(w, args.seed, args.seconds)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("SETUP_REPEATS > 0");
    let setup_s = stats::median(&setups).expect("SETUP_REPEATS > 0");
    let untraced = drive::run_window(w, prepared, args.seconds, false);

    let specs = workload::jobs(w, args.seed, args.seconds);
    let quality = quality_set(w, &untraced);
    let geomean = stats::geomean(&quality.iter().map(|j| j.best_edp).collect::<Vec<_>>());
    let mut windows = vec![&untraced];
    let traced;
    let mut tracer = Tracer::new(began);
    let metrics = if args.trace {
        traced = drive::run_window(
            w,
            drive::prepare(w, args.seed, args.seconds)?,
            args.seconds,
            true,
        );
        tracer.record_window("window.traced", &traced);
        let again = stats::geomean(
            &quality_set(w, &traced)
                .iter()
                .map(|j| j.best_edp)
                .collect::<Vec<_>>(),
        );
        if again.map(f64::to_bits) != geomean.map(f64::to_bits) {
            problems.push("traced and untraced windows disagree on best_edp_geomean".into());
        }
        windows.push(&traced);
        let metrics = trace::per_layer(&mut tracer, w, args.seed, &specs, &untraced, &traced)?;
        let path = out_dir().join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        metrics
    } else {
        let latencies = stats::sorted(untraced.latencies_ms());
        let pct = |p| stats::percentile(&latencies, p).ok_or(format!("too few jobs for p{p}"));
        vec![
            ("samples_per_s", untraced.samples_per_s(), "1/s"),
            ("job_latency_p50_ms", pct(50)?, "ms"),
            ("job_latency_p90_ms", pct(90)?, "ms"),
            ("best_edp_geomean", geomean.unwrap_or(f64::NAN), "uJ.cycle"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MiB"),
        ]
    };

    match geomean {
        Some(g) => {
            if let Err(e) = check::geomean_agrees(&out_dir(), w, args.seed, &specs, g) {
                problems.push(e);
            }
        }
        None => problems.push("best_edp_geomean undefined: a quality job failed".into()),
    }
    problems.extend(check::parity(&specs, quality, args.seed));
    for window in &windows {
        problems.extend(window.jobs.iter().filter_map(|j| {
            j.error
                .as_ref()
                .map(|e| format!("job {} failed: {e}", j.index))
        }));
    }
    if let Some((name, _, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        problems.push(format!("metric {name} is not a finite number"));
    }
    for p in &problems {
        println!("# check failed: {p}");
    }
    for class in check::classes(&specs, &untraced.jobs) {
        let of_class: Vec<f64> = untraced
            .jobs
            .iter()
            .filter(|j| specs[j.index].class == class)
            .map(drive::JobRecord::latency_ms)
            .collect();
        println!(
            "# {class:?}: {} jobs, median latency {:.3} ms",
            of_class.len(),
            stats::median(&of_class).unwrap_or(f64::NAN)
        );
    }
    println!(
        "# {} seed={} seconds={} jobs={} wall={:.3}s setups={:?}",
        w.name(),
        args.seed,
        args.seconds,
        untraced.jobs.len(),
        untraced.wall_s,
        setups
    );
    Ok(Report {
        correct: problems.is_empty(),
        attempted: windows.iter().map(|w| w.jobs.len()).sum(),
        failed: windows.iter().map(|w| w.failed()).sum(),
        metrics,
    })
}

fn main() -> ExitCode {
    let began = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args, began) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let mut json = Vec::new();
    for (name, value, unit) in &report.metrics {
        println!("{name:<34} {value:>14.4} {unit}");
        // Non-finite values already failed a check; JSON has no NaN.
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        json.join(", ")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
