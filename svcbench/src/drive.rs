//! Drives a workload through the public `SearchService` API: set-up with
//! warm-up, the closed loop, and the open loop.
//!
//! The harness adds as little noise of its own as it can: inputs are
//! generated before timing, the closed loops run one client on a 1-slot
//! service, and the open loop uses two threads in all — the generator,
//! which sleeps until each job is due, and a collector, which stamps
//! completions. Neither thread spins.

use crate::workload::{self, JobSpec, Workload};
use dosa_search::{JobHandle, JobStats, ResultCache, SearchRequest, SearchService};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Capacity of service-mix's in-memory cache: more work items than any
/// window journals, so nothing is evicted.
const CACHE_CAPACITY: usize = 1 << 16;

/// While jobs are outstanding, the collector checks them this often. A
/// completion is stamped at most one interval (plus wake-up latency)
/// late, whatever order jobs finish in.
const POLL: Duration = Duration::from_micros(100);

/// A fresh service configured for `workload`.
pub fn service(workload: Workload) -> SearchService {
    let builder = SearchService::builder().threads(workload.slots());
    if workload.cached() {
        builder
            .cache(ResultCache::in_memory(CACHE_CAPACITY))
            .build()
    } else {
        builder.build()
    }
}

/// What a completed (or failed) job left behind.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Index of the job in the input list.
    pub index: usize,
    /// When the job counts from: its due time on the open loop, the start
    /// of `submit` on the closed loop.
    pub start: Instant,
    /// When the harness called `submit`.
    pub submit: Instant,
    /// When `submit` returned (traced windows only).
    pub submitted: Option<Instant>,
    /// When the harness saw the job end.
    pub done: Instant,
    /// `SearchResult::samples` (0 for a failed job).
    pub samples: usize,
    /// Best reference EDP (NaN for a failed job).
    pub best_edp: f64,
    /// Scheduler and cache counters.
    pub stats: JobStats,
    /// Why the job failed, if it did: a `ConfigError`, a `JobError`, or a
    /// non-finite best EDP.
    pub error: Option<String>,
}

impl JobRecord {
    /// Latency in ms from `start` to `done`.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.start).as_secs_f64() * 1e3
    }
}

/// One timed window.
#[derive(Debug)]
pub struct Window {
    /// Every job submitted, in input order.
    pub jobs: Vec<JobRecord>,
    /// Start of the window (first submit, or the first due time).
    pub t0: Instant,
    /// Seconds from `t0` to the last completion.
    pub wall_s: f64,
    /// Per job, how late the harness submitted it: behind its due time on
    /// the open loop, behind the previous job's `wait` on the closed loop.
    pub late_us: Vec<f64>,
}

impl Window {
    /// Model evaluations completed per wall second.
    pub fn samples_per_s(&self) -> f64 {
        let samples: usize = self.jobs.iter().map(|j| j.samples).sum();
        samples as f64 / self.wall_s
    }

    /// Latencies in ms, in input order.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.jobs.iter().map(JobRecord::latency_ms).collect()
    }

    /// Jobs that failed.
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.error.is_some()).count()
    }
}

/// Turn a job's outcome into its record fields.
fn outcome(handle: &JobHandle) -> (usize, f64, JobStats, Option<String>) {
    match handle.wait() {
        Ok(batch) => {
            let result = batch.into_single();
            let error = (!result.best_edp.is_finite())
                .then(|| format!("non-finite best EDP {}", result.best_edp));
            (result.samples, result.best_edp, handle.stats(), error)
        }
        Err(e) => (0, f64::NAN, handle.stats(), Some(format!("job error: {e}"))),
    }
}

fn rejected(index: usize, start: Instant, submit: Instant, e: impl std::fmt::Display) -> JobRecord {
    JobRecord {
        index,
        start,
        submit,
        submitted: None,
        done: Instant::now(),
        samples: 0,
        best_edp: f64::NAN,
        stats: JobStats::default(),
        error: Some(format!("config error: {e}")),
    }
}

/// Run `requests` one after another on `service`: one client, each job
/// submitted as soon as the previous one returned. Keeps going until
/// `seconds` passed and at least `min_jobs` completed (or the list ran
/// out). `traced` also stamps when each `submit` returned.
pub fn closed_loop(
    service: &SearchService,
    requests: Vec<SearchRequest>,
    seconds: f64,
    min_jobs: usize,
    traced: bool,
) -> Window {
    let mut jobs = Vec::with_capacity(requests.len());
    let mut late_us = Vec::with_capacity(requests.len());
    let t0 = Instant::now();
    let mut prev_done = t0;
    for (index, request) in requests.into_iter().enumerate() {
        if index >= min_jobs && (prev_done - t0).as_secs_f64() >= seconds {
            break;
        }
        let submit = Instant::now();
        if index > 0 {
            late_us.push((submit - prev_done).as_secs_f64() * 1e6);
        }
        let record = match service.submit(request) {
            Ok(handle) => {
                let submitted = traced.then(Instant::now);
                let (samples, best_edp, stats, error) = outcome(&handle);
                JobRecord {
                    index,
                    start: submit,
                    submit,
                    submitted,
                    done: Instant::now(),
                    samples,
                    best_edp,
                    stats,
                    error,
                }
            }
            Err(e) => rejected(index, submit, submit, e),
        };
        prev_done = record.done;
        jobs.push(record);
    }
    Window {
        wall_s: (prev_done - t0).as_secs_f64(),
        jobs,
        t0,
        late_us,
    }
}

/// A submitted job on its way from the generator to the collector.
struct InFlight {
    index: usize,
    due: Instant,
    submit: Instant,
    submitted: Option<Instant>,
    handle: JobHandle,
}

/// Run `requests` as an open loop: job `i` is submitted at
/// `t0 + specs[i].due_us` whether or not earlier jobs finished, and its
/// latency counts from that due time. The calling thread is the
/// generator; one collector thread stamps completions in whatever order
/// they happen, so a job that finishes before an earlier one does not
/// inherit that job's wait.
pub fn open_loop(
    service: &SearchService,
    specs: &[JobSpec],
    requests: Vec<SearchRequest>,
    traced: bool,
) -> Window {
    let (tx, rx) = mpsc::channel::<InFlight>();
    // Leave the generator a moment to reach its first sleep.
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut jobs: Vec<JobRecord> = Vec::with_capacity(requests.len());
    let mut late_us = Vec::with_capacity(requests.len());
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(rx));
        for (index, (spec, request)) in specs.iter().zip(requests).enumerate() {
            let due = t0 + Duration::from_micros(spec.due_us);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submit = Instant::now();
            late_us.push((submit - due).as_secs_f64() * 1e6);
            match service.submit(request) {
                Ok(handle) => {
                    let submitted = traced.then(Instant::now);
                    // The collector outlives the generator loop, so the
                    // channel is open for every send.
                    tx.send(InFlight {
                        index,
                        due,
                        submit,
                        submitted,
                        handle,
                    })
                    .expect("collector alive while the generator runs");
                }
                Err(e) => jobs.push(rejected(index, due, submit, e)),
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    jobs.extend(collected);
    jobs.sort_by_key(|j| j.index);
    let last = jobs.iter().map(|j| j.done).max().unwrap_or(t0);
    Window {
        wall_s: (last - t0).as_secs_f64(),
        jobs,
        t0,
        late_us,
    }
}

/// The collector: block for the next submission while nothing is
/// outstanding; otherwise stamp every outstanding job that ended, then
/// sleep one [`POLL`] (or until the next submission arrives).
fn collect(rx: mpsc::Receiver<InFlight>) -> Vec<JobRecord> {
    let mut outstanding: Vec<InFlight> = Vec::new();
    let mut done: Vec<JobRecord> = Vec::new();
    let mut open = true;
    loop {
        if outstanding.is_empty() {
            if !open {
                return done;
            }
            match rx.recv() {
                Ok(job) => outstanding.push(job),
                Err(_) => open = false,
            }
        }
        while open {
            match rx.try_recv() {
                Ok(job) => outstanding.push(job),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => open = false,
            }
        }
        let now = Instant::now();
        let mut i = 0;
        while i < outstanding.len() {
            if outstanding[i].handle.status().is_terminal() {
                let job = outstanding.swap_remove(i);
                let (samples, best_edp, stats, error) = outcome(&job.handle);
                done.push(JobRecord {
                    index: job.index,
                    start: job.due,
                    submit: job.submit,
                    submitted: job.submitted,
                    done: now,
                    samples,
                    best_edp,
                    stats,
                    error,
                });
            } else {
                i += 1;
            }
        }
        if !outstanding.is_empty() {
            if open {
                match rx.recv_timeout(POLL) {
                    Ok(job) => outstanding.push(job),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
                }
            } else {
                std::thread::sleep(POLL);
            }
        }
    }
}

/// A service ready for the timed window, with its inputs.
pub struct Prepared {
    /// The warmed-up service.
    pub service: SearchService,
    /// The timed jobs.
    pub specs: Vec<JobSpec>,
    /// Their requests, built ahead of the window.
    pub requests: Vec<SearchRequest>,
}

/// Build the service, generate the inputs from `seed`, and run the
/// warm-up jobs one after another. Returns any warm-up failure.
pub fn prepare(workload: Workload, seed: u64, seconds: u64) -> Result<Prepared, String> {
    let service = service(workload);
    let specs = workload::jobs(workload, seed, seconds);
    let requests = specs.iter().map(JobSpec::request).collect();
    let warm: Vec<SearchRequest> = workload::warmup(workload, seed)
        .iter()
        .map(JobSpec::request)
        .collect();
    let n = warm.len();
    let window = closed_loop(&service, warm, 0.0, n, false);
    if let Some(e) = window.jobs.iter().find_map(|j| j.error.as_ref()) {
        return Err(format!("warm-up job failed: {e}"));
    }
    Ok(Prepared {
        service,
        specs,
        requests,
    })
}

/// Run the prepared workload's timed window.
pub fn run_window(workload: Workload, prepared: Prepared, seconds: u64, traced: bool) -> Window {
    let Prepared {
        service,
        specs,
        requests,
    } = prepared;
    if workload.open_loop() {
        open_loop(&service, &specs, requests, traced)
    } else {
        closed_loop(
            &service,
            requests,
            seconds as f64,
            workload::QUALITY_JOBS,
            traced,
        )
    }
}
