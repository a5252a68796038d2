//! Tests of the harness's own arithmetic and input generation.

use dosa_search::Strategy;
use std::collections::BTreeMap;
use svcbench::stats::{geomean, median, percentile, percentile_at_most, sorted, SplitMix};
use svcbench::workload::{
    self, Class, Workload, BAYES_BERT_SAMPLES, MIX_BLOCK, MIX_POLICIES, MIX_RATE,
    RANDOM_RESNET_SAMPLES, RESNET_GD_STEPS, SIZE_LEVELS,
};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(percentile(&ramp(19), 50), None);
    assert_eq!(percentile(&ramp(20), 50), Some(10.0));
    assert_eq!(percentile(&ramp(99), 90), None);
    assert_eq!(percentile(&ramp(100), 90), Some(90.0));
    assert_eq!(percentile(&ramp(999), 99), None);
    assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
    assert_eq!(percentile(&[], 50), None);
}

#[test]
fn percentile_at_most_falls_back_to_the_highest_valid_rank() {
    assert_eq!(percentile_at_most(&ramp(1000), 99), Some((99, 990.0)));
    assert_eq!(percentile_at_most(&ramp(250), 99), Some((90, 225.0)));
    assert_eq!(percentile_at_most(&ramp(50), 99), Some((75, 38.0)));
    assert_eq!(percentile_at_most(&ramp(10), 99), None);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
    assert_eq!(sorted(vec![2.0, -1.0, 0.5]), vec![-1.0, 0.5, 2.0]);
}

#[test]
fn geomean_is_exact_deterministic_and_rejects_bad_values() {
    let close = |values: &[f64], want: f64| {
        let g = geomean(values).unwrap();
        assert!((g / want - 1.0).abs() < 1e-12, "{g} != {want}");
    };
    close(&[5.0], 5.0);
    close(&[1.0, 100.0], 10.0);
    close(&[2e12, 8e12, 4e12], 4e12);
    let values: Vec<f64> = (1..200).map(|i| 1e9 * i as f64 / 7.0).collect();
    assert_eq!(
        geomean(&values).unwrap().to_bits(),
        geomean(&values.clone()).unwrap().to_bits()
    );
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None);
    assert_eq!(geomean(&[1.0, f64::NAN]), None);
    assert_eq!(geomean(&[1.0, f64::INFINITY]), None);
}

#[test]
fn splitmix_is_reproducible_and_salted() {
    let draw = |seed, salt| {
        let mut g = SplitMix::new(seed, salt);
        (0..8).map(|_| g.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(draw(7, 1), draw(7, 1));
    assert_ne!(draw(7, 1), draw(7, 2));
    assert_ne!(draw(7, 1), draw(8, 1));
    let mut g = SplitMix::new(1, 1);
    assert!((0..1000).all(|_| g.below(3) < 3 && (0.0..1.0).contains(&g.unit())));
}

#[test]
fn same_seed_same_requests() {
    for w in Workload::ALL {
        let a = format!("{:?}", workload::jobs(w, 42, 3));
        assert_eq!(a, format!("{:?}", workload::jobs(w, 42, 3)), "{}", w.name());
        assert_ne!(a, format!("{:?}", workload::jobs(w, 43, 3)), "{}", w.name());
        let warm = format!("{:?}", workload::warmup(w, 42));
        assert_eq!(warm, format!("{:?}", workload::warmup(w, 42)));
    }
}

#[test]
fn warmup_requests_differ_from_timed_ones() {
    for w in Workload::ALL {
        let timed = workload::jobs(w, 5, 2);
        for warm in workload::warmup(w, 5) {
            assert!(
                timed
                    .iter()
                    .all(|t| format!("{:?}", t.strategy) != format!("{:?}", warm.strategy)),
                "{}: a warm-up request is also timed",
                w.name()
            );
        }
    }
}

#[test]
fn closed_loops_cover_the_window_and_alternate_baselines() {
    let gd = workload::jobs(Workload::GdResnet50, 1, 10);
    assert!(gd.len() >= workload::QUALITY_JOBS);
    assert!(gd
        .iter()
        .all(|j| j.class == Class::ResnetGd && j.layers.len() == 21));
    let base = workload::jobs(Workload::Baselines, 1, 10);
    for (i, j) in base.iter().enumerate() {
        let want = if i % 2 == 0 {
            Class::RandomResnet
        } else {
            Class::BayesBert
        };
        assert_eq!(j.class, want);
    }
}

#[test]
fn closed_loop_job_sizes_cycle_through_every_level() {
    // The budget of a job, and the levels its class is dealt from.
    let size = |strategy: &Strategy| match strategy {
        Strategy::GradientDescent(cfg) => {
            assert_eq!(3 * cfg.round_every, cfg.steps_per_start, "three roundings");
            (cfg.steps_per_start, RESNET_GD_STEPS)
        }
        Strategy::Random(cfg) => (cfg.samples_per_hw, RANDOM_RESNET_SAMPLES),
        Strategy::BayesOpt(cfg) => (cfg.samples_per_hw, BAYES_BERT_SAMPLES),
        other => panic!("unexpected {} job", other.name()),
    };
    for w in [Workload::GdResnet50, Workload::Baselines] {
        let jobs = workload::jobs(w, 17, 10);
        // Each deck deals every other job.
        for first in 0..2 {
            let dealt: Vec<_> = jobs.iter().skip(first).step_by(2).collect();
            for round in dealt.chunks_exact(SIZE_LEVELS) {
                let levels = size(&round[0].strategy).1;
                let mut got: Vec<usize> = round.iter().map(|j| size(&j.strategy).0).collect();
                got.sort_unstable();
                assert_eq!(got, levels.to_vec(), "{}", w.name());
            }
        }
    }
    assert_eq!(workload::QUALITY_JOBS % (2 * SIZE_LEVELS), 0);
}

#[test]
fn service_mix_arrivals_are_sorted_inside_the_window() {
    let seconds = 4;
    let jobs = workload::jobs(Workload::ServiceMix, 9, seconds);
    assert_eq!(jobs.len(), (MIX_RATE * seconds as f64) as usize);
    assert!(jobs.windows(2).all(|w| w[0].due_us <= w[1].due_us));
    assert!(jobs.iter().all(|j| j.due_us < seconds * 1_000_000));
}

#[test]
fn service_mix_blocks_hold_the_fixed_class_policy_and_repeat_mix() {
    let jobs = workload::jobs(Workload::ServiceMix, 3, 4);
    let count = |items: Vec<String>| {
        let mut m = BTreeMap::new();
        for i in items {
            *m.entry(i).or_insert(0) += 1;
        }
        m
    };
    let want_policies = count(MIX_POLICIES.iter().map(|p| format!("{p:?}")).collect());
    for (b, block) in jobs.chunks(MIX_BLOCK.len()).enumerate() {
        if block.len() < MIX_BLOCK.len() {
            break;
        }
        let mut want: Vec<Class> = MIX_BLOCK.to_vec();
        if b == 0 {
            // Nothing earlier to repeat: the first block's repeats are tiny jobs.
            want.iter_mut()
                .filter(|c| **c == Class::Repeat)
                .for_each(|c| *c = Class::TinyGd);
        }
        let classes = count(block.iter().map(|j| format!("{:?}", j.class)).collect());
        assert_eq!(
            classes,
            count(want.iter().map(|c| format!("{c:?}")).collect()),
            "block {b}"
        );
        let policies = count(block.iter().map(|j| format!("{:?}", j.policy)).collect());
        assert_eq!(policies, want_policies, "block {b}");
    }
    let repeats: Vec<_> = jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.class == Class::Repeat)
        .collect();
    let full_blocks = jobs.len() / MIX_BLOCK.len();
    assert_eq!(repeats.len(), 3 * (full_blocks - 1));
    for (i, r) in repeats {
        let of = r.repeat_of.expect("a repeat names its original");
        assert!(
            of / MIX_BLOCK.len() < i / MIX_BLOCK.len(),
            "repeat {i} of {of} in its own block"
        );
        let original = &jobs[of];
        assert!(original.repeat_of.is_none());
        assert_eq!(
            format!("{:?}", original.strategy),
            format!("{:?}", r.strategy)
        );
        assert_eq!(original.layers, r.layers);
    }
}

#[test]
fn service_mix_tiny_jobs_visit_every_table6_layer_once_per_round() {
    let jobs = workload::jobs(Workload::ServiceMix, 11, 10);
    let corpus = dosa_workload::correlation_corpus().len();
    let tiny: Vec<String> = jobs
        .iter()
        .filter(|j| j.class == Class::TinyGd)
        .map(|j| format!("{:?}", j.layers[0].problem))
        .collect();
    assert!(tiny.len() >= 2 * corpus);
    for round in tiny.chunks(corpus).take(tiny.len() / corpus) {
        let mut distinct = round.to_vec();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), corpus);
    }
}
