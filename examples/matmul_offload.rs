//! gemm through the recommended combined construct, OMPi vs. hand-written
//! CUDA, at a configurable size (default 256).
//!
//!     cargo run --release --example matmul_offload [-- <size>]

use unibench::{app_by_name, build_variant_cfg, measure, runner_config, Variant};

fn main() {
    let n: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(256);
    let app = app_by_name("gemm").unwrap();
    let work = std::env::temp_dir().join("ompi-example-matmul");
    println!("gemm n={n} on the simulated Jetson Nano");
    let cfg = runner_config((app.footprint)(n));
    for variant in [Variant::Cuda, Variant::OmpiCudadev] {
        let built = build_variant_cfg(&app, variant, &work, &cfg);
        let m = measure(&app, &built, n);
        println!(
            "  {:<14} {:>10.6}s  (kernels {:.6}s, memcpy {:.6}s, {} launches)",
            variant.label(),
            m.time_s,
            m.kernel_s,
            m.memcpy_s,
            m.launches
        );
    }
}
