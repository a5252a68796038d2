//! Parity of the [`EdpLoss`] engine with the pre-refactor sequential loss
//! path: for a fixed ResNet-50 layer and seed, the engine must reproduce
//! `build_loss`'s loss value and gradients bit-for-bit, including through
//! the buffer-reusing backward sweep.

use dosa_accel::{HardwareConfig, Hierarchy, MAX_PE_SIDE};
use dosa_autodiff::{SegScratch, SegmentPlan, Tape};
use dosa_model::{build_loss, LossOptions, RelaxedMapping};
use dosa_search::engine::DiffLoss;
use dosa_search::{cosa_mapping, dosa_search, EdpLoss, GdConfig, LoopOrderStrategy};
use dosa_workload::{unique_layers, Layer, Network};

fn fixture() -> (Vec<Layer>, Vec<RelaxedMapping>, Hierarchy) {
    let hier = Hierarchy::gemmini();
    // First unique ResNet-50 layer, mapped by the deterministic CoSA
    // substitute on the default Gemmini configuration.
    let layer = unique_layers(Network::ResNet50).remove(0);
    let hw = HardwareConfig::gemmini_default();
    let relaxed = vec![RelaxedMapping::from_mapping(&cosa_mapping(
        &layer.problem,
        &hw,
        &hier,
    ))];
    (vec![layer], relaxed, hier)
}

#[test]
fn edp_engine_matches_sequential_loss_and_gradients() {
    let (layers, relaxed, hier) = fixture();
    let opts = LossOptions::default();

    // Pre-refactor path: build_loss + allocating backward.
    let tape_seq = Tape::new();
    let built = build_loss(&tape_seq, &layers, &relaxed, &hier, &opts);
    let grads_seq = tape_seq.backward(built.loss);
    let flat_seq: Vec<f64> = built
        .leaves
        .iter()
        .flatten()
        .map(|l| grads_seq.wrt(*l))
        .collect();

    // Engine path: DiffLoss::build + segmented backward on reused scratch,
    // at several worker budgets — all must be bit-identical.
    let engine = EdpLoss {
        layers: &layers,
        hier: &hier,
        opts,
        strategy: LoopOrderStrategy::Iterate,
        fixed_pe_side: None,
        spatial_cap: MAX_PE_SIDE,
    };
    for threads in [1, 2, 8] {
        let tape = Tape::new();
        let mut plan = SegmentPlan::new();
        let mut leaves = Vec::new();
        let mut scratch = SegScratch::new();
        let loss_var = engine.build(&tape, &relaxed, &mut plan, &mut leaves);
        let view = tape.backward_segmented(loss_var, &plan, threads, &mut scratch);
        let flat: Vec<f64> = leaves.iter().map(|l| view.wrt(*l)).collect();

        assert_eq!(
            loss_var.value().to_bits(),
            built.loss.value().to_bits(),
            "loss value diverged ({threads} threads): {} vs {}",
            loss_var.value(),
            built.loss.value()
        );
        assert_eq!(flat.len(), flat_seq.len());
        for (i, (a, b)) in flat.iter().zip(&flat_seq).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "gradient {i} diverged ({threads} threads): {a} vs {b}"
            );
        }
        assert!(
            flat.iter().filter(|g| **g != 0.0).count() > 5,
            "gradients look dead"
        );
    }
}

#[test]
fn edp_engine_reproduces_golden_values() {
    // Golden values computed once from the sequential `build_loss` path at
    // this fixture (ResNet-50 layer 0, CoSA start on default Gemmini).
    // They pin the differentiable model's output across future refactors;
    // an intentional model change must update them consciously.
    let (layers, relaxed, hier) = fixture();
    let engine = EdpLoss {
        layers: &layers,
        hier: &hier,
        opts: LossOptions::default(),
        strategy: LoopOrderStrategy::Iterate,
        fixed_pe_side: None,
        spatial_cap: MAX_PE_SIDE,
    };
    let tape = Tape::new();
    let mut plan = SegmentPlan::new();
    let mut leaves = Vec::new();
    let loss_var = engine.build(&tape, &relaxed, &mut plan, &mut leaves);
    let mut adj = Vec::new();
    let view = tape.backward_into(loss_var, &mut adj);
    let grad0 = view.wrt(leaves[0]);
    let gsum: f64 = leaves.iter().map(|l| view.wrt(*l)).sum();

    let golden_loss = 2.068_342_885_133_567_7e1;
    let golden_grad0 = -4.446_379_062_030_455_5e-1;
    let golden_gsum = -1.449_876_573_815_829_7;
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs().max(1.0);
    assert!(
        close(loss_var.value(), golden_loss),
        "loss {} vs golden {}",
        loss_var.value(),
        golden_loss
    );
    assert!(
        close(grad0, golden_grad0),
        "grad0 {grad0} vs golden {golden_grad0}"
    );
    assert!(
        close(gsum, golden_gsum),
        "gsum {gsum} vs golden {golden_gsum}"
    );
}

/// A short seeded `dosa_search` on all 21 unique ResNet-50 layers lands on
/// exactly these `best_edp` bits (recorded before the tape's node layout
/// and the loss builder's storage were rewritten). Any change to a recorded
/// op, a local partial or an accumulation order moves them; both the
/// fixed-ordering and the softmax-ordering loss are pinned.
#[test]
fn short_resnet50_search_best_edp_bits_are_pinned() {
    let layers = unique_layers(Network::ResNet50);
    let hier = Hierarchy::gemmini();
    let golden = [
        (LoopOrderStrategy::Iterate, 0x423a_4a08_8039_d4f7_u64),
        (LoopOrderStrategy::Softmax, 0x423c_9905_c77a_5093_u64),
    ];
    for (strategy, bits) in golden {
        let cfg = GdConfig {
            start_points: 2,
            steps_per_start: 60,
            round_every: 20,
            seed: 4,
            strategy,
            ..GdConfig::default()
        };
        let result = dosa_search(&layers, &hier, &cfg);
        assert_eq!(
            result.best_edp.to_bits(),
            bits,
            "{strategy:?}: best_edp {} moved",
            result.best_edp
        );
    }
}
