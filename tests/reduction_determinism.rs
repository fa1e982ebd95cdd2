//! A multi-warp float reduction is bit-reproducible: gramschmidt's
//! `reduction(+: nrm)` folds 256 threads (8 warps of one block) into one
//! float through `cudadev_red_f32`, and the kernel cannot wait on a sibling
//! warp, so its warps run in warp-id order and the sum is built in one
//! order every time. (With a thread per warp six runs gave five different
//! outputs at n = 128.)
//!
//! The limit: at n >= 512 the reduction spans more than one block, and
//! with more than one block worker float atomics from *different blocks*
//! to one address still land in host scheduling order.

use ompi_nano::gpusim::ExecMode;
use ompi_nano::unibench::{self, harness};

#[test]
fn gramschmidt_outputs_are_byte_identical_across_fresh_runners() {
    let app = unibench::app_by_name("gramschmidt").unwrap();
    let dir = std::env::temp_dir().join(format!("ompinano-reddet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for n in [128, 256] {
        let run = || {
            let built = harness::build_variant(
                &app,
                harness::Variant::OmpiCudadev,
                n,
                ExecMode::Functional,
                false,
                &dir,
            );
            let q = unibench::run_once(&app, &built.runner, n).unwrap();
            q.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
        };
        let first = run();
        for round in 1..20 {
            assert!(run() == first, "n = {n}: run {round} differs from run 0");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
