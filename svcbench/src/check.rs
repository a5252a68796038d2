//! Output checks: standalone parity of a seeded sample of jobs, and
//! `best_edp_geomean` agreement across runs of one seed.

use crate::drive::JobRecord;
use crate::stats::SplitMix;
use crate::workload::{Class, JobSpec, Workload};
use dosa_accel::Hierarchy;
use dosa_search::{bayesian_search, dosa_search, random_search, Strategy};
use std::path::Path;

/// Salt of the stream that picks the jobs to re-run.
const PARITY_SALT: u64 = 3;

/// Uniform picks on top of one pick per job class.
const PARITY_UNIFORM: usize = 3;

/// The job classes present among `records`, in order of first
/// appearance.
pub fn classes(specs: &[JobSpec], records: &[JobRecord]) -> Vec<Class> {
    let mut classes = Vec::new();
    for r in records {
        if !classes.contains(&specs[r.index].class) {
            classes.push(specs[r.index].class);
        }
    }
    classes
}

/// Indices of the jobs to re-run standalone: one seeded pick per job
/// class present among `records`, plus `PARITY_UNIFORM` uniform picks,
/// without duplicates.
pub fn parity_sample(specs: &[JobSpec], records: &[JobRecord], seed: u64) -> Vec<usize> {
    let mut rng = SplitMix::new(seed, PARITY_SALT);
    let mut picks: Vec<usize> = Vec::new();
    for class in classes(specs, records) {
        let of_class: Vec<usize> = records
            .iter()
            .map(|r| r.index)
            .filter(|&i| specs[i].class == class)
            .collect();
        picks.push(of_class[rng.below(of_class.len())]);
    }
    for _ in 0..PARITY_UNIFORM {
        picks.push(records[rng.below(records.len())].index);
    }
    picks.sort_unstable();
    picks.dedup();
    picks
}

/// Re-run `spec` with its strategy's blocking entry point (a fresh
/// service of its own) and return the best EDP found.
pub fn standalone_best_edp(spec: &JobSpec) -> f64 {
    let hier = Hierarchy::gemmini();
    match &spec.strategy {
        Strategy::GradientDescent(cfg) => dosa_search(&spec.layers, &hier, cfg).best_edp,
        Strategy::Random(cfg) => random_search(&spec.layers, &hier, cfg).best_edp,
        Strategy::BayesOpt(cfg) => bayesian_search(&spec.layers, &hier, cfg).best_edp,
        other => unreachable!("the benchmark generates no {} jobs", other.name()),
    }
}

/// Re-run the sampled jobs standalone and require a bit-identical,
/// finite best EDP. Returns one message per mismatch.
pub fn parity(specs: &[JobSpec], records: &[JobRecord], seed: u64) -> Vec<String> {
    let mut errors = Vec::new();
    for index in parity_sample(specs, records, seed) {
        let Some(record) = records.iter().find(|r| r.index == index) else {
            continue;
        };
        let alone = standalone_best_edp(&specs[index]);
        if !alone.is_finite() || alone.to_bits() != record.best_edp.to_bits() {
            errors.push(format!(
                "job {index} ({:?}): service best EDP {:e}, standalone {:e}",
                specs[index].class, record.best_edp, alone
            ));
        }
    }
    errors
}

/// FNV-1a over everything that decides a job's result, so a record
/// made by another version of the inputs is never compared against.
fn inputs_digest(specs: &[JobSpec]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for s in specs {
        let text = format!("{}{:?}{:?}", s.network, s.strategy, s.layers);
        for b in text.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Compare `geomean` with the value an earlier run on the same inputs
/// (workload, seed, window length) recorded under `dir`, recording it if
/// this is the first run. Returns a message on disagreement.
pub fn geomean_agrees(
    dir: &Path,
    workload: Workload,
    seed: u64,
    specs: &[JobSpec],
    geomean: f64,
) -> Result<(), String> {
    let path = dir.join(format!(
        "edp-{}-{seed}-{:016x}.txt",
        workload.name(),
        inputs_digest(specs)
    ));
    let bits = format!("{:016x}\n", geomean.to_bits());
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded == bits => Ok(()),
        Ok(recorded) => Err(format!(
            "best_edp_geomean {geomean:e} differs from an earlier run of this seed ({:e})",
            u64::from_str_radix(recorded.trim(), 16).map_or(f64::NAN, f64::from_bits)
        )),
        Err(_) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, bits)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}
