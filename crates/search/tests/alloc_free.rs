//! Steady-state loss recording allocates nothing on the heap.
//!
//! A counting global allocator tallies every allocation in the process,
//! so this file holds exactly one `#[test]`: no other test can run
//! concurrently and pollute the count. After one warm-up step (which grows
//! the tape arena, the segment plan and the leaf, adjoint and gradient
//! buffers to size), recording the ResNet-50 loss — through
//! `build_loss_in` under both loop-ordering losses, and through
//! `EdpLoss`'s `DiffLoss::build` — and sweeping it back must perform zero
//! heap allocations.

use dosa_accel::{Hierarchy, MAX_PE_SIDE};
use dosa_autodiff::{SegScratch, SegmentPlan, Tape, Var};
use dosa_model::{build_loss_in, LossOptions};
use dosa_search::{generate_start_points, DiffLoss, EdpLoss, LoopOrderStrategy};
use dosa_workload::{unique_layers, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic that
// never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards to `System.alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwards to `System.dealloc` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards to `System.realloc` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made while `f` runs.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn steady_state_resnet50_recording_allocates_nothing() {
    let layers = unique_layers(Network::ResNet50);
    let hier = Hierarchy::gemmini();
    let mut rng = StdRng::seed_from_u64(3);
    let relaxed = generate_start_points(&mut rng, &layers, &hier, &LossOptions::default(), 1, 10.0)
        .remove(0)
        .relaxed;

    let tape = Tape::new();
    let mut plan = SegmentPlan::new();
    let mut leaves: Vec<Var<'_>> = Vec::new();
    let mut scratch = SegScratch::new();
    let mut grads: Vec<f64> = Vec::new();

    for softmax_ordering in [false, true] {
        let opts = LossOptions {
            softmax_ordering,
            ..LossOptions::default()
        };
        let mut step = || {
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
            tape.backward_segmented(built.loss, &plan, 1, &mut scratch)
                .wrt_into(&leaves, &mut grads);
            built.loss.value()
        };
        let (warm, _) = allocations_during(&mut step);
        let (again, count) = allocations_during(&mut step);
        assert_eq!(
            again.to_bits(),
            warm.to_bits(),
            "recording is not repeatable"
        );
        assert_eq!(
            count, 0,
            "build_loss_in (softmax_ordering: {softmax_ordering}) allocated {count} times \
             after warm-up"
        );
    }

    for strategy in [LoopOrderStrategy::Iterate, LoopOrderStrategy::Softmax] {
        let loss = EdpLoss {
            layers: &layers,
            hier: &hier,
            opts: LossOptions {
                softmax_ordering: strategy == LoopOrderStrategy::Softmax,
                ..LossOptions::default()
            },
            strategy,
            fixed_pe_side: None,
            spatial_cap: MAX_PE_SIDE,
        };
        let mut step = || {
            tape.clear();
            plan.clear();
            leaves.clear();
            let out = loss.build(&tape, &relaxed, &mut plan, &mut leaves);
            tape.backward_segmented(out, &plan, 1, &mut scratch)
                .wrt_into(&leaves, &mut grads);
            out.value()
        };
        allocations_during(&mut step);
        let (_, count) = allocations_during(&mut step);
        assert_eq!(
            count, 0,
            "EdpLoss::build ({strategy:?}) allocated {count} times after warm-up"
        );
    }
}
