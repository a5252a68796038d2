//! Hot-path performance trajectory: measured medians for tape recording,
//! the backward sweep, and a full gradient-descent step at several network
//! depths, on both the current tape and the pre-refactor
//! [`LegacyTape`] — written to `BENCH_6.json` at the workspace root.
//!
//! The legacy path runs the *same* generic loss builder
//! ([`build_loss_in`]) on the `RefCell`-based tape with the allocation
//! pattern of the original descent loop (fresh leaf/gradient vectors
//! every step), so `gd_step_speedup` isolates what the hot-path rewrites
//! changed: single-borrow recording of one packed node per op through
//! inlined operators, one-node fused scalar ops, allocation-free loss
//! assembly, the segmented sweep on reused scratch, and allocation-free
//! parameter updates. The file is found through [`bench_json_path`].
//!
//! `repro bench` regenerates the file; `repro --smoke bench` re-runs a
//! seconds-scale measurement to prove the kernels still execute, then
//! validates the checked-in file's schema without overwriting it.

use dosa_accel::{HardwareConfig, Hierarchy};
use dosa_autodiff::{LegacyTape, LegacyVar, SegScratch, SegmentPlan, Tape, Var};
use dosa_model::{build_loss_in, LossOptions, RelaxedMapping};
use dosa_search::cosa_mapping;
use dosa_workload::{Layer, Problem};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The network depths each kernel is measured at.
pub const LAYER_COUNTS: [usize; 3] = [1, 4, 16];

/// Identifies the JSON layout; bumped on any incompatible change.
pub const SCHEMA: &str = "dosa-hotpath-bench-v1";

/// Measured medians (nanoseconds per operation) at one network depth.
#[derive(Debug, Clone, Copy)]
pub struct PerfRow {
    /// Number of layers in the measured loss.
    pub layers: usize,
    /// Forward recording of the whole loss on the current tape.
    pub record_ns: f64,
    /// Serial backward sweep on reused scratch (current tape).
    pub sweep_ns: f64,
    /// Full descent step: set params, record, sweep, gather, update.
    pub gd_step_ns: f64,
    /// Forward recording on the pre-refactor AoS tape.
    pub legacy_record_ns: f64,
    /// Allocating backward sweep on the pre-refactor tape.
    pub legacy_sweep_ns: f64,
    /// Full descent step with pre-refactor tape and allocations.
    pub legacy_gd_step_ns: f64,
}

impl PerfRow {
    /// Legacy-over-new ratio for the full descent step.
    pub fn gd_step_speedup(&self) -> f64 {
        self.legacy_gd_step_ns / self.gd_step_ns
    }
}

/// One full measurement run across all [`LAYER_COUNTS`].
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// One row per measured network depth.
    pub rows: Vec<PerfRow>,
}

/// A cyclic mix of convolution and matmul layers, `n` deep — the fixture
/// shared by this module and the Criterion benches.
pub fn fixture_layers(n: usize) -> Vec<Layer> {
    let base = [
        Problem::conv("a", 3, 3, 28, 28, 64, 64, 1).unwrap(),
        Problem::matmul("b", 128, 256, 512).unwrap(),
        Problem::conv("c", 1, 1, 14, 14, 256, 128, 1).unwrap(),
        Problem::conv("d", 3, 3, 14, 14, 128, 256, 2).unwrap(),
    ];
    (0..n)
        .map(|i| Layer::once(base[i % base.len()].clone()))
        .collect()
}

/// Deterministic CoSA start points for [`fixture_layers`] on the default
/// Gemmini configuration.
pub fn fixture_starts(layers: &[Layer]) -> Vec<RelaxedMapping> {
    let hw = HardwareConfig::gemmini_default();
    let hier = Hierarchy::gemmini();
    layers
        .iter()
        .map(|l| RelaxedMapping::from_mapping(&cosa_mapping(&l.problem, &hw, &hier)))
        .collect()
}

/// Median nanoseconds per call of `f`, over `samples` timed batches of
/// `batch` calls each.
fn median_ns<F: FnMut()>(samples: usize, batch: usize, mut f: F) -> f64 {
    // One untimed warm-up batch populates caches and scratch buffers.
    for _ in 0..batch {
        f();
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_call.sort_by(|a, b| a.total_cmp(b));
    per_call[per_call.len() / 2]
}

/// Measure every kernel at one depth. `samples`/`batch` control how long
/// the run takes; the smoke mode passes small values.
fn measure_depth(n: usize, samples: usize, batch: usize) -> PerfRow {
    let layers = fixture_layers(n);
    let relaxed = fixture_starts(&layers);
    let hier = Hierarchy::gemmini();
    let opts = LossOptions::default();

    // --- Current tape: record / sweep / full step, all on reused buffers. ---
    let tape = Tape::new();
    let mut plan = SegmentPlan::new();
    let mut leaves: Vec<Var<'_>> = Vec::new();
    let mut scratch = SegScratch::new();

    let record_ns = median_ns(samples, batch, || {
        tape.clear();
        plan.clear();
        leaves.clear();
        let built = build_loss_in(
            &tape,
            &layers,
            &relaxed,
            &hier,
            &opts,
            &mut plan,
            &mut leaves,
        );
        std::hint::black_box(built.loss.value());
    });

    tape.clear();
    plan.clear();
    leaves.clear();
    let built = build_loss_in(
        &tape,
        &layers,
        &relaxed,
        &hier,
        &opts,
        &mut plan,
        &mut leaves,
    );
    let loss = built.loss;
    let sweep_ns = median_ns(samples, batch, || {
        let view = tape.backward_segmented(loss, &plan, 1, &mut scratch);
        std::hint::black_box(view.wrt(leaves[0]));
    });

    let mut params: Vec<f64> = Vec::new();
    let mut relaxed_step = relaxed.clone();
    for r in &relaxed_step {
        r.params_into(&mut params);
    }
    let mut flat: Vec<f64> = Vec::new();
    let gd_step_ns = median_ns(samples, batch, || {
        use dosa_model::PARAMS_PER_LAYER;
        for (r, chunk) in relaxed_step.iter_mut().zip(params.chunks(PARAMS_PER_LAYER)) {
            r.set_params(chunk);
        }
        tape.clear();
        plan.clear();
        leaves.clear();
        let built = build_loss_in(
            &tape,
            &layers,
            &relaxed_step,
            &hier,
            &opts,
            &mut plan,
            &mut leaves,
        );
        let view = tape.backward_segmented(built.loss, &plan, 1, &mut scratch);
        view.wrt_into(&leaves, &mut flat);
        for (p, g) in params.iter_mut().zip(&flat) {
            if g.is_finite() {
                *p -= 1e-4 * g;
            }
        }
        std::hint::black_box(params[0]);
    });

    // --- Legacy AoS tape: same loss, pre-PR allocation pattern. ---
    let legacy = LegacyTape::new();
    let mut lleaves: Vec<LegacyVar<'_>> = Vec::new();

    let legacy_record_ns = median_ns(samples, batch, || {
        legacy.clear();
        lleaves.clear();
        let built = build_loss_in(
            &legacy,
            &layers,
            &relaxed,
            &hier,
            &opts,
            &mut SegmentPlan::disabled(),
            &mut lleaves,
        );
        std::hint::black_box(built.loss.value());
    });

    legacy.clear();
    lleaves.clear();
    let lbuilt = build_loss_in(
        &legacy,
        &layers,
        &relaxed,
        &hier,
        &opts,
        &mut SegmentPlan::disabled(),
        &mut lleaves,
    );
    let lloss = lbuilt.loss;
    let legacy_sweep_ns = median_ns(samples, batch, || {
        let grads = legacy.backward(lloss);
        std::hint::black_box(grads.wrt(lleaves[0]));
    });

    let mut lrelaxed_step = relaxed.clone();
    let mut lparams: Vec<f64> = lrelaxed_step.iter().flat_map(|r| r.params()).collect();
    let legacy_gd_step_ns = median_ns(samples, batch, || {
        use dosa_model::PARAMS_PER_LAYER;
        for (r, chunk) in lrelaxed_step
            .iter_mut()
            .zip(lparams.chunks(PARAMS_PER_LAYER))
        {
            r.set_params(chunk);
        }
        legacy.clear();
        let mut step_leaves: Vec<LegacyVar<'_>> = Vec::new();
        let built = build_loss_in(
            &legacy,
            &layers,
            &lrelaxed_step,
            &hier,
            &opts,
            &mut SegmentPlan::disabled(),
            &mut step_leaves,
        );
        let grads = legacy.backward(built.loss);
        let step_flat: Vec<f64> = step_leaves
            .iter()
            .map(|l| {
                let g = grads.wrt(*l);
                if g.is_finite() {
                    g
                } else {
                    0.0
                }
            })
            .collect();
        lparams = lparams
            .iter()
            .zip(&step_flat)
            .map(|(p, g)| p - 1e-4 * g)
            .collect();
        std::hint::black_box(lparams[0]);
    });

    PerfRow {
        layers: n,
        record_ns,
        sweep_ns,
        gd_step_ns,
        legacy_record_ns,
        legacy_sweep_ns,
        legacy_gd_step_ns,
    }
}

/// Measure all depths. `quick` trades precision for seconds-scale runtime
/// (used by the CI smoke); the full mode is what `BENCH_6.json` records.
pub fn measure(quick: bool) -> PerfReport {
    let (samples, batch) = if quick { (5, 4) } else { (21, 16) };
    PerfReport {
        rows: LAYER_COUNTS
            .iter()
            .map(|&n| measure_depth(n, samples, batch))
            .collect(),
    }
}

impl PerfReport {
    /// Hand-rolled JSON encoding (the workspace carries no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str("  \"unit\": \"ns_per_op_median\",\n");
        s.push_str("  \"results\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"layers\": {}, \"record_ns\": {:.1}, \"sweep_ns\": {:.1}, \
                 \"gd_step_ns\": {:.1}, \"legacy_record_ns\": {:.1}, \
                 \"legacy_sweep_ns\": {:.1}, \"legacy_gd_step_ns\": {:.1}, \
                 \"gd_step_speedup\": {:.3}}}{}\n",
                r.layers,
                r.record_ns,
                r.sweep_ns,
                r.gd_step_ns,
                r.legacy_record_ns,
                r.legacy_sweep_ns,
                r.legacy_gd_step_ns,
                r.gd_step_speedup(),
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Print the report as an aligned terminal table.
    pub fn print(&self) {
        println!(
            "{:>7} {:>12} {:>12} {:>12} {:>14} {:>14} {:>16} {:>9}",
            "layers",
            "record_ns",
            "sweep_ns",
            "gd_step_ns",
            "legacy_rec_ns",
            "legacy_swp_ns",
            "legacy_step_ns",
            "speedup"
        );
        for r in &self.rows {
            println!(
                "{:>7} {:>12.1} {:>12.1} {:>12.1} {:>14.1} {:>14.1} {:>16.1} {:>8.2}x",
                r.layers,
                r.record_ns,
                r.sweep_ns,
                r.gd_step_ns,
                r.legacy_record_ns,
                r.legacy_sweep_ns,
                r.legacy_gd_step_ns,
                r.gd_step_speedup()
            );
        }
    }
}

/// Where the perf trajectory lives: `BENCH_6.json` at the root of the
/// workspace the current directory lies in (the current directory itself
/// outside any workspace). Resolved at run time, so a binary built in one
/// checkout and run from another reads that other checkout's file.
pub fn bench_json_path() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    workspace_root(&cwd).unwrap_or(cwd).join("BENCH_6.json")
}

/// The nearest ancestor of `start` (itself included) whose `Cargo.toml`
/// declares a workspace with `members` — the repository root. A package
/// that is its own empty workspace, like `svcbench/`, is walked past.
fn workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|toml| {
                toml.lines().any(|l| l.trim() == "[workspace]")
                    && toml.lines().any(|l| l.trim_start().starts_with("members"))
            })
        })
        .map(Path::to_path_buf)
}

/// Pull the number following `"key":` out of a JSON object line.
fn scan_number(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Validate a `BENCH_6.json` body: schema tag, one result row per entry
/// of [`LAYER_COUNTS`], and finite positive medians throughout. The
/// scanning parser mirrors [`PerfReport::to_json`]'s line-oriented layout.
pub fn validate_json(text: &str) -> Result<(), String> {
    if !text.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("missing or stale schema tag (want {SCHEMA})"));
    }
    let keys = [
        "record_ns",
        "sweep_ns",
        "gd_step_ns",
        "legacy_record_ns",
        "legacy_sweep_ns",
        "legacy_gd_step_ns",
        "gd_step_speedup",
    ];
    let mut seen = Vec::new();
    for line in text.lines() {
        let Some(layers) = scan_number(line, "layers") else {
            continue;
        };
        seen.push(layers as usize);
        for key in keys {
            let v = scan_number(line, key)
                .ok_or_else(|| format!("row layers={layers}: missing key {key}"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "row layers={layers}: {key}={v} not finite-positive"
                ));
            }
        }
    }
    if seen != LAYER_COUNTS {
        return Err(format!(
            "layer counts {seen:?} do not match the measured set {:?}",
            LAYER_COUNTS
        ));
    }
    Ok(())
}

/// `repro bench`: full measurement, table to stdout, regenerate
/// `BENCH_6.json`.
pub fn run() {
    let report = measure(false);
    report.print();
    let json = report.to_json();
    validate_json(&json).expect("generated report must validate");
    let path = bench_json_path();
    std::fs::write(&path, json).expect("write BENCH_6.json");
    println!("\nwrote {}", path.display());
}

/// `repro --smoke bench`: seconds-scale re-measurement proving the
/// kernels run, then schema validation of the checked-in file (which is
/// *not* overwritten). Panics on a missing or stale file — the CI gate.
pub fn run_smoke() {
    let report = measure(true);
    report.print();
    for r in &report.rows {
        assert!(
            r.record_ns.is_finite() && r.record_ns > 0.0,
            "smoke measurement produced a non-positive record median"
        );
    }
    let path = bench_json_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
    if let Err(e) = validate_json(&text) {
        panic!("stale {}: {e}", path.display());
    }
    println!("\nsmoke bench OK: {} validates", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_json_roundtrips_through_validator() {
        let report = PerfReport {
            rows: LAYER_COUNTS
                .iter()
                .map(|&n| PerfRow {
                    layers: n,
                    record_ns: 100.0,
                    sweep_ns: 50.0,
                    gd_step_ns: 200.0,
                    legacy_record_ns: 250.0,
                    legacy_sweep_ns: 120.0,
                    legacy_gd_step_ns: 400.0,
                })
                .collect(),
        };
        validate_json(&report.to_json()).unwrap();
    }

    #[test]
    fn workspace_root_walks_up_past_nested_workspaces() {
        let root = std::env::temp_dir().join(format!("dosa_ws_root_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let deep = root.join("crates/pkg/src");
        let nested = root.join("svcbench/src");
        std::fs::create_dir_all(&deep).unwrap();
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .unwrap();
        std::fs::write(
            root.join("crates/pkg/Cargo.toml"),
            "[package]\nname = \"pkg\"\n",
        )
        .unwrap();
        std::fs::write(
            root.join("svcbench/Cargo.toml"),
            "[package]\nname = \"svcbench\"\n\n[workspace]\n",
        )
        .unwrap();

        assert_eq!(workspace_root(&deep), Some(root.clone()));
        assert_eq!(workspace_root(&nested), Some(root.clone()));
        assert_eq!(workspace_root(&root), Some(root.clone()));
        std::fs::remove_file(root.join("Cargo.toml")).unwrap();
        assert_eq!(workspace_root(&deep), None);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn validator_rejects_bad_inputs() {
        assert!(validate_json("{}").is_err());
        let mut report = PerfReport {
            rows: LAYER_COUNTS
                .iter()
                .map(|&n| PerfRow {
                    layers: n,
                    record_ns: 100.0,
                    sweep_ns: 50.0,
                    gd_step_ns: 200.0,
                    legacy_record_ns: 250.0,
                    legacy_sweep_ns: 120.0,
                    legacy_gd_step_ns: 400.0,
                })
                .collect(),
        };
        report.rows[1].sweep_ns = f64::NAN;
        assert!(validate_json(&report.to_json()).is_err());
        report.rows[1].sweep_ns = 50.0;
        report.rows.pop();
        assert!(validate_json(&report.to_json()).is_err());
    }

    #[test]
    fn quick_measurement_is_finite_and_positive() {
        let row = measure_depth(1, 3, 2);
        for v in [
            row.record_ns,
            row.sweep_ns,
            row.gd_step_ns,
            row.legacy_record_ns,
            row.legacy_sweep_ns,
            row.legacy_gd_step_ns,
        ] {
            assert!(v.is_finite() && v > 0.0);
        }
    }
}
