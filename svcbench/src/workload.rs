//! The three workloads and their seeded inputs.
//!
//! Every request, layer pick, arrival time and repeat is generated here
//! from the run's seed before any timing starts; the service only ever
//! sees the finished [`SearchRequest`]s. The README in this directory
//! records why each workload exists and which layers it stresses.

use crate::stats::SplitMix;
use dosa_accel::Hierarchy;
use dosa_search::{BbboConfig, GdConfig, RandomSearchConfig, SchedPolicy, SearchRequest, Strategy};
use dosa_workload::{correlation_corpus, unique_layers, Layer, Network};
use std::sync::Arc;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one client, 1-slot service, no cache: GD on
    /// ResNet-50's unique layers.
    GdResnet50,
    /// Closed loop, one client, 1-slot service: Random on ResNet-50
    /// alternating with BB-BO on BERT.
    Baselines,
    /// Open loop at [`MIX_RATE`], 2-slot service with a result cache.
    ServiceMix,
}

/// Closed loops keep submitting past the time window until this many
/// jobs completed, and `best_edp_geomean` is taken over exactly these
/// jobs. Sized to finish inside a 50 s window on a slow run, and to hold
/// whole rounds of [`SIZE_LEVELS`] per job class; the geomean's spread
/// across seeds shrinks with the square root of it.
pub const QUALITY_JOBS: usize = 800;

/// Offered load of service-mix, in jobs per second. At this rate the
/// two workers are busy well under a quarter of the time, so a slower
/// machine does not push the queue towards saturation.
pub const MIX_RATE: f64 = 150.0;

/// Jobs of one service-mix block. Every block holds exactly this
/// composition in a seeded order, so the mix is the same for every seed.
/// Sorted by latency, the repeats and Random jobs come first, then the
/// tiny jobs, then the BERT jobs (15%): p50 falls inside the tiny jobs
/// and p90 inside the BERT jobs, never on the edge between two kinds,
/// where a small shift in either would move it a long way.
pub const MIX_BLOCK: [Class; 20] = [
    Class::TinyGd,
    Class::TinyGd,
    Class::TinyGd,
    Class::TinyGd,
    Class::TinyGd,
    Class::TinyGd,
    Class::TinyGd,
    Class::TinyGd,
    Class::TinyGd,
    Class::TinyGd,
    Class::TinyGd,
    Class::TinyGd,
    Class::TinyGd,
    Class::BertGd,
    Class::BertGd,
    Class::BertGd,
    Class::RandomLayer,
    Class::Repeat,
    Class::Repeat,
    Class::Repeat,
];

/// Scheduling policies of one service-mix block, dealt to its jobs in a
/// seeded order.
pub const MIX_POLICIES: [SchedPolicy; 20] = [
    SchedPolicy::Fifo,
    SchedPolicy::Fifo,
    SchedPolicy::Fifo,
    SchedPolicy::Fifo,
    SchedPolicy::Fifo,
    SchedPolicy::Fifo,
    SchedPolicy::Fifo,
    SchedPolicy::Fifo,
    SchedPolicy::ShortestFirst,
    SchedPolicy::ShortestFirst,
    SchedPolicy::ShortestFirst,
    SchedPolicy::ShortestFirst,
    SchedPolicy::ShortestFirst,
    SchedPolicy::ShortestFirst,
    SchedPolicy::Priority(1),
    SchedPolicy::Priority(1),
    SchedPolicy::Priority(1),
    SchedPolicy::Priority(1),
    SchedPolicy::Priority(2),
    SchedPolicy::Priority(2),
];

impl Workload {
    /// Every workload. BENCHMARK.json lists gd-resnet50 and service-mix;
    /// baselines is run by hand (see the README in this directory).
    pub const ALL: [Workload; 3] = [
        Workload::GdResnet50,
        Workload::Baselines,
        Workload::ServiceMix,
    ];

    /// Parse a workload name as `--workload` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name, as `--workload` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GdResnet50 => "gd-resnet50",
            Workload::Baselines => "baselines",
            Workload::ServiceMix => "service-mix",
        }
    }

    /// Worker slots of the service the workload runs on.
    pub fn slots(self) -> usize {
        match self {
            Workload::ServiceMix => 2,
            _ => 1,
        }
    }

    /// Whether the workload's service carries a result cache.
    pub fn cached(self) -> bool {
        self == Workload::ServiceMix
    }

    /// Whether jobs arrive on a schedule (open loop) rather than one
    /// after another from a single client.
    pub fn open_loop(self) -> bool {
        self == Workload::ServiceMix
    }

    /// Jobs run before timing starts, as part of `setup_s`.
    pub fn warmup_jobs(self) -> usize {
        match self {
            Workload::GdResnet50 => 6,
            Workload::Baselines => 12,
            Workload::ServiceMix => 200,
        }
    }
}

/// The kind of a generated job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// gd-resnet50's job: one GD start on ResNet-50.
    ResnetGd,
    /// baselines: random search on ResNet-50.
    RandomResnet,
    /// baselines: BB-BO on BERT.
    BayesBert,
    /// service-mix: a short segmented GD job on one Table 6 layer.
    TinyGd,
    /// service-mix: a GD job on BERT in 64-step segments.
    BertGd,
    /// service-mix: random search on one Table 6 layer.
    RandomLayer,
    /// service-mix: an exact repeat of an earlier request.
    Repeat,
}

/// One generated job: what to submit and, on the open loop, when.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// What kind of job this is.
    pub class: Class,
    /// Network name in the request.
    pub network: String,
    /// The network's layers.
    pub layers: Arc<Vec<Layer>>,
    /// Algorithm, budget and seed.
    pub strategy: Strategy,
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// When the job is due, in µs from the start of the window (open
    /// loop only; 0 on the closed loops).
    pub due_us: u64,
    /// For a repeat, the index of the job it repeats.
    pub repeat_of: Option<usize>,
}

impl JobSpec {
    /// The request this job submits.
    pub fn request(&self) -> SearchRequest {
        SearchRequest::builder(Hierarchy::gemmini())
            .network(self.network.clone(), self.layers.to_vec())
            .strategy(self.strategy.clone())
            .policy(self.policy)
            .build()
    }

    /// The GD configuration, for gradient-descent jobs.
    pub fn gd_config(&self) -> Option<&GdConfig> {
        match &self.strategy {
            Strategy::GradientDescent(cfg) => Some(cfg),
            _ => None,
        }
    }
}

/// Budget levels of the closed loops' jobs, dealt to each job class in
/// seeded shuffled rounds so every round of eight holds each level once.
/// The levels are about 10% apart and span a factor of two. Jobs of one
/// size would put their latencies in one narrow peak, which host speed
/// regimes split in two; the median of a run would then jump between
/// the peaks. Spread sizes keep it moving smoothly with machine speed.
pub const SIZE_LEVELS: usize = 8;

/// The size level of warm-up jobs and of baselines' trace probes.
pub const MIDDLE_LEVEL: usize = SIZE_LEVELS / 2;

/// gd-resnet50's step budgets, one per size level, each divisible by
/// three; their mean is 175.
pub const RESNET_GD_STEPS: [usize; SIZE_LEVELS] = [120, 132, 147, 162, 180, 198, 219, 240];

/// baselines' random-search samples per design, one per size level.
pub const RANDOM_RESNET_SAMPLES: [usize; SIZE_LEVELS] = [170, 188, 208, 230, 254, 280, 310, 340];

/// baselines' BB-BO samples per design, one per size level.
pub const BAYES_BERT_SAMPLES: [usize; SIZE_LEVELS] = [200, 221, 244, 270, 298, 330, 364, 400];

/// gd-resnet50's budget: the paper's learning rate and `Iterate` order,
/// one start cut to `steps` with a rounding every third of them, so the
/// start still rounds three times as 890 steps at 300 do.
pub fn resnet_gd(seed: u64, steps: usize) -> GdConfig {
    GdConfig {
        start_points: 1,
        steps_per_start: steps,
        round_every: steps.div_ceil(3),
        seed,
        ..GdConfig::default()
    }
}

/// service-mix's tiny job: a few tens of steps in short segments.
pub fn tiny_gd(seed: u64) -> GdConfig {
    GdConfig {
        start_points: 1,
        steps_per_start: 30,
        round_every: 10,
        seed,
        segment_steps: Some(6),
        ..GdConfig::default()
    }
}

/// service-mix's mid-size job on BERT, in 64-step segments.
pub fn bert_gd(seed: u64) -> GdConfig {
    GdConfig {
        start_points: 1,
        steps_per_start: 128,
        round_every: 64,
        seed,
        segment_steps: Some(64),
        ..GdConfig::default()
    }
}

/// baselines' random search on ResNet-50: two designs.
pub fn random_resnet(seed: u64, samples_per_hw: usize) -> RandomSearchConfig {
    RandomSearchConfig {
        num_hw: 2,
        samples_per_hw,
        seed,
    }
}

/// baselines' BB-BO on BERT: three random designs, then three GP-guided
/// ones, so every job fits the GP and scores expected improvement.
pub fn bayes_bert(seed: u64, samples_per_hw: usize) -> BbboConfig {
    BbboConfig {
        num_hw: 6,
        init_random: 3,
        samples_per_hw,
        candidates: 200,
        seed,
    }
}

/// service-mix's random search on one layer.
pub fn random_layer(seed: u64) -> RandomSearchConfig {
    RandomSearchConfig {
        num_hw: 2,
        samples_per_hw: 20,
        seed,
    }
}

/// Salt of the stream that draws the timed jobs.
const JOBS_SALT: u64 = 1;
/// Salt of the stream that draws the warm-up jobs, disjoint from the
/// timed ones so warm-up never seeds the cache with a timed request.
const WARMUP_SALT: u64 = 2;

/// Upper bound on closed-loop jobs per second of window; the list is
/// generated to this length so a fast machine never runs out of inputs.
const CLOSED_MAX_RATE: usize = 100;

/// The networks the workloads draw from, built once per input list.
struct Networks {
    resnet: Arc<Vec<Layer>>,
    bert: Arc<Vec<Layer>>,
    corpus: Vec<Arc<Vec<Layer>>>,
}

impl Networks {
    fn new() -> Networks {
        Networks {
            resnet: Arc::new(unique_layers(Network::ResNet50)),
            bert: Arc::new(unique_layers(Network::Bert)),
            corpus: correlation_corpus()
                .into_iter()
                .map(|l| Arc::new(vec![l]))
                .collect(),
        }
    }
}

/// Deals indices `0..n` in seeded shuffled rounds: every index appears
/// once per round, so picks stay balanced for every seed.
struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(n: usize) -> Deck {
        Deck {
            order: (0..n).collect(),
            next: n,
        }
    }

    fn deal(&mut self, rng: &mut SplitMix) -> usize {
        if self.next == self.order.len() {
            rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// The timed jobs of `workload` for `seed`: on the closed loops more than
/// a `seconds`-long window can run; on service-mix exactly the arrivals
/// of a `seconds`-long window.
pub fn jobs(workload: Workload, seed: u64, seconds: u64) -> Vec<JobSpec> {
    let mut rng = SplitMix::new(seed, JOBS_SALT);
    match workload {
        Workload::ServiceMix => {
            let n = (MIX_RATE * seconds as f64).round() as usize;
            mix_jobs(&mut rng, n, seconds * 1_000_000)
        }
        _ => {
            let n = (seconds as usize * CLOSED_MAX_RATE).max(QUALITY_JOBS);
            closed_jobs(workload, &mut rng, n, true)
        }
    }
}

/// The warm-up jobs of `workload` for `seed`, run one after another.
pub fn warmup(workload: Workload, seed: u64) -> Vec<JobSpec> {
    let mut rng = SplitMix::new(seed, WARMUP_SALT);
    let n = workload.warmup_jobs();
    match workload {
        Workload::ServiceMix => mix_jobs(&mut rng, n, 0),
        _ => closed_jobs(workload, &mut rng, n, false),
    }
}

/// `n` closed-loop jobs. With `dealt`, sizes are dealt from one deck per
/// job class, so each class cycles through every level; without, every
/// job has the middle size, so a short list has the same work for every
/// seed.
fn closed_jobs(workload: Workload, rng: &mut SplitMix, n: usize, dealt: bool) -> Vec<JobSpec> {
    let nets = Networks::new();
    let mut sizes = [Deck::new(SIZE_LEVELS), Deck::new(SIZE_LEVELS)];
    (0..n)
        .map(|i| {
            let seed = rng.next_u64();
            let level = if dealt {
                sizes[i % 2].deal(rng)
            } else {
                MIDDLE_LEVEL
            };
            let (class, network, layers, strategy) = match workload {
                Workload::GdResnet50 => (
                    Class::ResnetGd,
                    "resnet50",
                    &nets.resnet,
                    Strategy::GradientDescent(resnet_gd(seed, RESNET_GD_STEPS[level])),
                ),
                // Alternate the two baselines so every prefix holds both.
                _ if i % 2 == 0 => (
                    Class::RandomResnet,
                    "resnet50",
                    &nets.resnet,
                    Strategy::Random(random_resnet(seed, RANDOM_RESNET_SAMPLES[level])),
                ),
                _ => (
                    Class::BayesBert,
                    "bert",
                    &nets.bert,
                    Strategy::BayesOpt(bayes_bert(seed, BAYES_BERT_SAMPLES[level])),
                ),
            };
            JobSpec {
                class,
                network: network.to_string(),
                layers: Arc::clone(layers),
                strategy,
                policy: SchedPolicy::Fifo,
                due_us: 0,
                repeat_of: None,
            }
        })
        .collect()
}

/// `n` service-mix jobs due over `window_us`. Arrivals are a Poisson
/// process conditioned on its count: `n` sorted uniform times. Jobs come
/// in blocks of [`MIX_BLOCK`]; a repeat copies a uniformly chosen fresh
/// job of an earlier block (the first block has no earlier jobs, so its
/// repeat slots hold tiny jobs instead).
fn mix_jobs(rng: &mut SplitMix, n: usize, window_us: u64) -> Vec<JobSpec> {
    let nets = Networks::new();
    let mut due: Vec<u64> = (0..n)
        .map(|_| (rng.unit() * window_us as f64) as u64)
        .collect();
    due.sort_unstable();

    let mut tiny_deck = Deck::new(nets.corpus.len());
    let mut random_deck = Deck::new(nets.corpus.len());
    let mut jobs: Vec<JobSpec> = Vec::with_capacity(n);
    // Fresh (non-repeat) jobs of completed blocks: the repeat targets.
    let mut targets: Vec<usize> = Vec::new();
    let mut block_fresh: Vec<usize> = Vec::new();
    let mut classes = MIX_BLOCK;
    let mut policies = MIX_POLICIES;
    for (i, &due_us) in due.iter().enumerate() {
        let slot = i % MIX_BLOCK.len();
        if slot == 0 {
            targets.append(&mut block_fresh);
            rng.shuffle(&mut classes);
            rng.shuffle(&mut policies);
        }
        let policy = policies[slot];
        let mut class = classes[slot];
        if class == Class::Repeat && targets.is_empty() {
            class = Class::TinyGd;
        }
        let spec = match class {
            Class::Repeat => {
                let of = targets[rng.below(targets.len())];
                JobSpec {
                    class,
                    policy,
                    due_us,
                    repeat_of: Some(of),
                    ..jobs[of].clone()
                }
            }
            Class::TinyGd | Class::RandomLayer => {
                let deck = if class == Class::TinyGd {
                    &mut tiny_deck
                } else {
                    &mut random_deck
                };
                let layers = Arc::clone(&nets.corpus[deck.deal(rng)]);
                let seed = rng.next_u64();
                let strategy = if class == Class::TinyGd {
                    Strategy::GradientDescent(tiny_gd(seed))
                } else {
                    Strategy::Random(random_layer(seed))
                };
                JobSpec {
                    class,
                    network: layers[0].problem.name().to_string(),
                    layers,
                    strategy,
                    policy,
                    due_us,
                    repeat_of: None,
                }
            }
            _ => JobSpec {
                class,
                network: "bert".to_string(),
                layers: Arc::clone(&nets.bert),
                strategy: Strategy::GradientDescent(bert_gd(rng.next_u64())),
                policy,
                due_us,
                repeat_of: None,
            },
        };
        if spec.repeat_of.is_none() {
            block_fresh.push(i);
        }
        jobs.push(spec);
    }
    jobs
}
