//! The traced run's instruments: an in-memory span log, and timings of
//! calls into each layer's public functions on the workload's inputs.
//!
//! Spans are recorded by the benchmark around the calls it makes; the
//! program itself is not instrumented. They stay in memory until the run
//! ends and are then written out as JSON lines.

use crate::drive::{self, JobRecord, Window};
use crate::stats::{self, SplitMix};
use crate::workload::{self, Class, JobSpec, Workload};
use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_autodiff::{SegScratch, SegmentPlan, Tape, Var};
use dosa_model::{build_loss_in, round_all, LossOptions, RelaxedMapping};
use dosa_search::{
    evaluate_rounded, generate_start_points, random_hw, Adam, GaussianProcess, GdConfig,
    ResultCache, SearchRequest, SearchService, Strategy,
};
use dosa_timeloop::{evaluate_layer, random_mapping, Mapping};
use dosa_workload::{Layer, Problem};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One span: a named interval, the span that caused it, and the job it
/// belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed, e.g. `service.submit`.
    pub name: &'static str,
    /// Start, in µs since the run began.
    pub start_us: f64,
    /// End, in µs since the run began.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the job in its input list.
    pub job: Option<usize>,
}

/// The in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 14),
        }
    }

    /// Record a span and return its index.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: us(start),
            end_us: us(end),
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.push(name, parent, None, now, now)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
    }

    /// The spans of every job of a window: the job (from its due time or
    /// submit to the end the harness saw), `service.submit` and
    /// `service.wait` under it.
    pub fn record_window(&mut self, name: &'static str, window: &Window) {
        let end = window.t0 + Duration::from_secs_f64(window.wall_s);
        let group = self.push(name, None, None, window.t0, end);
        for j in &window.jobs {
            let job = self.push("job", Some(group), Some(j.index), j.start, j.done);
            let submitted = j.submitted.unwrap_or(j.submit);
            self.push(
                "service.submit",
                Some(job),
                Some(j.index),
                j.submit,
                submitted,
            );
            self.push("service.wait", Some(job), Some(j.index), submitted, j.done);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"job\":{}}}",
                s.name,
                s.start_us,
                s.end_us,
                opt(s.parent),
                opt(s.job)
            )?;
        }
        out.flush()
    }
}

/// A timed batch aims at this long, so clock reads stay negligible.
const BATCH_TARGET: Duration = Duration::from_millis(1);
/// Timed batches per function per probe.
const BATCHES: usize = 15;

/// Time `f` in [`BATCHES`] batches, each recorded as a span under
/// `parent`; returns the median µs per call.
fn time_calls(tr: &mut Tracer, name: &'static str, parent: usize, mut f: impl FnMut()) -> f64 {
    // One untimed call fills caches and scratch buffers, a timed one sizes
    // the batch.
    f();
    let t = Instant::now();
    f();
    let once = t.elapsed().max(Duration::from_nanos(50));
    let calls = (BATCH_TARGET.as_secs_f64() / once.as_secs_f64()).clamp(1.0, 10_000.0) as usize;
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        let end = Instant::now();
        tr.push(name, Some(parent), None, start, end);
        per_call.push((end - start).as_secs_f64() * 1e6 / calls as f64);
    }
    stats::median(&per_call).expect("BATCHES > 0")
}

/// A network and GD budget the per-layer timings run on, taken from the
/// workload's own jobs.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The network's layers.
    pub layers: Arc<Vec<Layer>>,
    /// The GD budget (baselines, which runs no GD, uses gd-resnet50's).
    pub cfg: GdConfig,
}

impl Probe {
    /// Roundings per gradient step of this budget.
    fn rounds_per_step(&self) -> f64 {
        let (s, r) = (self.cfg.steps_per_start, self.cfg.round_every);
        (s / r + usize::from(s % r != 0)) as f64 / s as f64
    }

    /// The GD request of this probe.
    fn request(&self) -> SearchRequest {
        SearchRequest::builder(Hierarchy::gemmini())
            .network("probe", self.layers.to_vec())
            .strategy(Strategy::GradientDescent(self.cfg))
            .build()
    }
}

/// The first probes of `workload`: its first GD jobs, or for baselines
/// its first jobs' networks under gd-resnet50's middle budget.
pub fn probes(workload: Workload, specs: &[JobSpec]) -> Vec<Probe> {
    let n = if workload.open_loop() { 20 } else { 8 };
    specs
        .iter()
        .filter(|s| s.repeat_of.is_none() && s.class != Class::RandomLayer)
        .take(n)
        .map(|s| Probe {
            layers: Arc::clone(&s.layers),
            cfg: match s.gd_config() {
                Some(cfg) => *cfg,
                None => workload::resnet_gd(
                    s.strategy.seed(),
                    workload::RESNET_GD_STEPS[workload::MIDDLE_LEVEL],
                ),
            },
        })
        .collect()
}

/// Median µs per call of each layer function on one probe.
#[derive(Debug, Clone, Copy)]
struct ProbeTimes {
    start_points: f64,
    record: f64,
    sweep: f64,
    adam: f64,
    round: f64,
    evaluate_layer: f64,
    random_mapping: f64,
}

fn time_probe(tr: &mut Tracer, group: usize, probe: &Probe) -> ProbeTimes {
    let hier = Hierarchy::gemmini();
    let opts = LossOptions::default();
    let layers: &[Layer] = &probe.layers;
    let problems: Vec<Problem> = layers.iter().map(|l| l.problem.clone()).collect();

    let start_point = || {
        let mut rng = StdRng::seed_from_u64(probe.cfg.seed);
        let factor = probe.cfg.rejection_factor;
        generate_start_points(&mut rng, layers, &hier, &opts, 1, factor)
    };
    let start_points = time_calls(tr, "plan.start_points", group, || {
        std::hint::black_box(start_point());
    });
    let relaxed: Vec<RelaxedMapping> = start_point().remove(0).relaxed;

    let tape = Tape::new();
    let mut plan = SegmentPlan::new();
    let mut leaves: Vec<Var<'_>> = Vec::new();
    let mut loss = None;
    let record = time_calls(tr, "model.build_loss_in", group, || {
        tape.clear();
        plan.clear();
        leaves.clear();
        let built = build_loss_in(
            &tape,
            layers,
            &relaxed,
            &hier,
            &opts,
            &mut plan,
            &mut leaves,
        );
        loss = Some(std::hint::black_box(built.loss));
    });
    let loss = loss.expect("time_calls calls its closure");
    let mut scratch = SegScratch::new();
    let mut grads: Vec<f64> = Vec::new();
    let sweep = time_calls(tr, "autodiff.backward_segmented", group, || {
        tape.backward_segmented(loss, &plan, 1, &mut scratch)
            .wrt_into(&leaves, &mut grads);
    });

    let mut params: Vec<f64> = Vec::new();
    for r in &relaxed {
        r.params_into(&mut params);
    }
    let mut adam = Adam::new(params.len(), probe.cfg.learning_rate);
    let adam = time_calls(tr, "engine.adam_step", group, || {
        adam.step(&mut params, &grads);
    });

    let round = time_calls(tr, "engine.round", group, || {
        let mappings = round_all(&relaxed, &problems, &hier);
        std::hint::black_box(evaluate_rounded(layers, &mappings, None, &hier));
    });

    let mut rng = StdRng::seed_from_u64(probe.cfg.seed ^ 1);
    let hw: HardwareConfig = random_hw(&mut rng);
    let mut which = 0usize;
    let random_mapping_us = time_calls(tr, "timeloop.random_mapping", group, || {
        which = (which + 1) % layers.len();
        let m = random_mapping(&mut rng, &layers[which].problem, &hier, hw.pe_side());
        std::hint::black_box(m);
    });
    let mappings: Vec<Mapping> = layers
        .iter()
        .map(|l| random_mapping(&mut rng, &l.problem, &hier, hw.pe_side()))
        .collect();
    let evaluate_layer_us = time_calls(tr, "timeloop.evaluate_layer", group, || {
        which = (which + 1) % layers.len();
        let perf = evaluate_layer(&layers[which].problem, &mappings[which], &hw, &hier);
        std::hint::black_box(perf);
    });
    ProbeTimes {
        start_points,
        record,
        sweep,
        adam,
        round,
        evaluate_layer: evaluate_layer_us,
        random_mapping: random_mapping_us,
    }
}

/// `GaussianProcess::fit` and `expected_improvement` µs per call, on the
/// observation count of baselines' last BB-BO proposal (3 features of
/// random hardware designs drawn from `seed`).
fn time_gp(tr: &mut Tracer, group: usize, seed: u64) -> (f64, f64) {
    let cfg = workload::bayes_bert(seed, workload::BAYES_BERT_SAMPLES[workload::MIDDLE_LEVEL]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw = SplitMix::new(seed, 4);
    let features = |hw: HardwareConfig| {
        vec![
            (hw.pe_side() as f64).ln(),
            hw.acc_kb().ln(),
            hw.spad_kb().ln(),
        ]
    };
    let xs: Vec<Vec<f64>> = (1..cfg.num_hw)
        .map(|_| features(random_hw(&mut rng)))
        .collect();
    let ys: Vec<f64> = xs.iter().map(|_| 20.0 + 5.0 * draw.unit()).collect();
    let best = ys.iter().copied().fold(f64::INFINITY, f64::min);
    let fit = time_calls(tr, "gp.fit", group, || {
        std::hint::black_box(GaussianProcess::fit(xs.clone(), ys.clone(), 1.0, 0.05));
    });
    let gp = GaussianProcess::fit(xs.clone(), ys.clone(), 1.0, 0.05);
    let candidates: Vec<Vec<f64>> = (0..cfg.candidates)
        .map(|_| features(random_hw(&mut rng)))
        .collect();
    let mut which = 0usize;
    let ei = time_calls(tr, "gp.expected_improvement", group, || {
        which = (which + 1) % candidates.len();
        std::hint::black_box(gp.expected_improvement(&candidates[which], best));
    });
    (fit, ei)
}

/// Run `requests` one at a time on `service` under a span named `name`,
/// then shut the service down. Returns each job's submit→wait µs and how
/// many of its work items ran (were not replayed from a cache).
fn one_at_a_time(
    tr: &mut Tracer,
    name: &'static str,
    service: SearchService,
    requests: impl IntoIterator<Item = SearchRequest>,
) -> Result<Vec<(f64, usize)>, String> {
    let group = tr.open(name, None);
    let mut out = Vec::new();
    for request in requests {
        let start = Instant::now();
        let handle = service.submit(request).map_err(|e| e.to_string())?;
        handle.wait().map_err(|e| e.to_string())?;
        let end = Instant::now();
        let stats = handle.stats();
        tr.push("service.roundtrip", Some(group), None, start, end);
        out.push((
            (end - start).as_secs_f64() * 1e6,
            stats.work_items - stats.cache_hits,
        ));
    }
    drop(service);
    tr.close(group);
    Ok(out)
}

/// Every per-layer metric of one traced run, in BENCHMARK.json order.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Measure the per-layer metrics of `workload`: `untraced` and `traced`
/// are two windows over the same seed's inputs, `specs` those inputs.
pub fn per_layer(
    tr: &mut Tracer,
    workload: Workload,
    seed: u64,
    specs: &[JobSpec],
    untraced: &Window,
    traced: &Window,
) -> Result<Metrics, String> {
    let probes = probes(workload, specs);

    // Queue wait: each job's window latency minus its latency alone, on an
    // otherwise idle service of the same shape, run right after the
    // window. The closed loops compare their last jobs, nearest in time.
    let compared = if workload.open_loop() {
        &traced.jobs[..]
    } else {
        &traced.jobs[traced.jobs.len().saturating_sub(100)..]
    };
    let alone = one_at_a_time(
        tr,
        "alone",
        drive::service(workload),
        compared.iter().map(|j| specs[j.index].request()),
    )?;
    let waits = stats::sorted(
        compared
            .iter()
            .zip(&alone)
            .map(|(j, (us, _))| j.latency_ms() - us / 1e3)
            .collect(),
    );

    // Layer functions, timed on each probe.
    let group = tr.open("layers", None);
    let times: Vec<ProbeTimes> = probes.iter().map(|p| time_probe(tr, group, p)).collect();
    let (gp_fit, gp_ei) = time_gp(tr, group, seed);
    tr.close(group);
    let med = |f: fn(&ProbeTimes) -> f64| {
        stats::median(&times.iter().map(f).collect::<Vec<_>>()).expect("probes exist")
    };

    // The probes as 1-slot service jobs: wall time per gradient step, and
    // what is left of it once the timed layer functions are taken out.
    let walls = one_at_a_time(
        tr,
        "engine.step_probe",
        SearchService::builder().threads(1).build(),
        probes.iter().map(Probe::request),
    )?;
    let step_us: Vec<f64> = walls
        .iter()
        .zip(&probes)
        .map(|((us, _), p)| us / p.cfg.steps_per_start as f64)
        .collect();
    let residual: Vec<f64> = step_us
        .iter()
        .zip(&times)
        .zip(&probes)
        .map(|((step, t), p)| step - (t.record + t.sweep + t.adam + t.round * p.rounds_per_step()))
        .collect();

    // The service round trip of a 1-start, 1-step job on an idle service.
    let tiny = SearchRequest::builder(Hierarchy::gemmini())
        .network(
            "tiny",
            vec![Layer::once(
                Problem::matmul("tiny", 16, 16, 16).map_err(|e| e.to_string())?,
            )],
        )
        .strategy(Strategy::GradientDescent(GdConfig {
            start_points: 1,
            steps_per_start: 1,
            round_every: 1,
            seed,
            ..GdConfig::default()
        }))
        .build();
    let rt = one_at_a_time(
        tr,
        "service.roundtrip_probe",
        SearchService::builder().threads(workload.slots()).build(),
        std::iter::repeat_n(tiny, 200),
    )?;
    let roundtrip_us =
        stats::median(&rt.iter().map(|r| r.0).collect::<Vec<_>>()).expect("200 jobs");

    // A fully cached replay: run the workload's first two fresh jobs on a
    // cached service, then replay each 20 times.
    let firsts: Vec<&JobSpec> = specs
        .iter()
        .filter(|s| s.repeat_of.is_none())
        .take(2)
        .collect();
    let runs = one_at_a_time(
        tr,
        "cache.replay_probe",
        SearchService::builder()
            .threads(workload.slots())
            .cache(ResultCache::in_memory(1024))
            .build(),
        (0..21).flat_map(|_| firsts.iter().map(|s| s.request())),
    )?;
    let replays = &runs[firsts.len()..];
    if replays.iter().any(|r| r.1 != 0) {
        return Err("a replayed job was not fully served from the cache".into());
    }
    let replay_us =
        stats::median(&replays.iter().map(|r| r.0).collect::<Vec<_>>()).expect("replays");

    // What the traced window itself shows.
    let submit_us = stats::median(
        &traced
            .jobs
            .iter()
            .filter_map(|j| j.submitted.map(|s| (s - j.submit).as_secs_f64() * 1e6))
            .collect::<Vec<_>>(),
    )
    .ok_or("no submits in the traced window")?;
    let count = traced.jobs.len() as f64;
    let segments = traced
        .jobs
        .iter()
        .map(|j| j.stats.segments_run)
        .sum::<usize>() as f64
        / count;
    let max_wait = stats::sorted(
        traced
            .jobs
            .iter()
            .map(|j| j.stats.max_queue_wait as f64)
            .collect(),
    );
    let (hits, items) = traced.jobs.iter().fold((0, 0), |(h, n), j: &JobRecord| {
        (h + j.stats.cache_hits, n + j.stats.work_items)
    });
    let latencies = stats::sorted(untraced.latencies_ms());
    let late = stats::sorted(untraced.late_us.clone());
    let tail = |sorted: &[f64]| stats::percentile_at_most(sorted, 99).map_or(f64::NAN, |p| p.1);
    let p50 =
        |w: &Window| stats::percentile(&stats::sorted(w.latencies_ms()), 50).unwrap_or(f64::NAN);

    Ok(vec![
        ("model.record_us_per_step", med(|t| t.record), "us"),
        ("autodiff.sweep_us_per_step", med(|t| t.sweep), "us"),
        ("engine.adam_us_per_step", med(|t| t.adam), "us"),
        ("engine.round_us", med(|t| t.round), "us"),
        (
            "engine.step_us",
            stats::median(&step_us).expect("probes"),
            "us",
        ),
        (
            "engine.residual_us_per_step",
            stats::median(&residual).expect("probes"),
            "us",
        ),
        (
            "timeloop.evaluate_layer_us",
            med(|t| t.evaluate_layer),
            "us",
        ),
        (
            "timeloop.random_mapping_us",
            med(|t| t.random_mapping),
            "us",
        ),
        ("gp.fit_us", gp_fit, "us"),
        ("gp.ei_us", gp_ei, "us"),
        ("plan.start_points_us", med(|t| t.start_points), "us"),
        ("service.submit_us", submit_us, "us"),
        ("service.roundtrip_us", roundtrip_us, "us"),
        (
            "service.queue_wait_ms_p50",
            stats::percentile(&waits, 50).unwrap_or(f64::NAN),
            "ms",
        ),
        ("service.queue_wait_ms_p99", tail(&waits), "ms"),
        ("service.segments_per_job", segments, "count"),
        ("sched.max_queue_wait_p99", tail(&max_wait), "dispatches"),
        (
            "cache.hit_ratio",
            hits as f64 / items.max(1) as f64,
            "ratio",
        ),
        ("cache.replay_us", replay_us, "us"),
        ("job.latency_p99_ms", tail(&latencies), "ms"),
        ("harness.submit_late_p99_us", tail(&late), "us"),
        (
            "trace.overhead_p50_pct",
            (p50(traced) / p50(untraced) - 1.0) * 100.0,
            "%",
        ),
        (
            "trace.overhead_samples_per_s_pct",
            (untraced.samples_per_s() / traced.samples_per_s() - 1.0) * 100.0,
            "%",
        ),
    ])
}
