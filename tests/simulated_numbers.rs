//! The paper's metric, pinned: every simulated number the six apps (OMPi and
//! CUDA, at `fig4 --quick`'s sizes, every block of every launch simulated)
//! and the Fig. 3 master/worker region produce, held to constants to the
//! last bit, together with each run's output checksum. A CUDA and an OMPi
//! run of the same (app, n) compute the same output, so they must carry the
//! same checksum.
//!
//! A change to how fast the simulator runs must leave all of them alone. A
//! change to the timing model or to what the compilers emit moves them on
//! purpose: update the table from the failure message, which prints the
//! row as it now reads.

use std::path::PathBuf;

use ompi_nano::unibench::{self, alloc_f32, read_f32, App, Variant};
use ompi_nano::vmcommon::Value;

/// One run's simulated numbers: `DevClock` `kernel_s` and `memcpy_s` as
/// `f64` bits, `launches`, the device's `lane_insts`, `mem_transactions`,
/// `blocks_simulated` and `divergent_branches`, and the output checksum.
type Row = (&'static str, &'static str, u32, u64, u64, u64, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const PINNED: &[Row] = &[
    ("3dconv", "cuda", 16, 4544915370128016116, 4543925788061708151, 1, 609728, 4704, 28, 196, 2604021857498243886),
    ("3dconv", "ompi", 16, 4545138428413560191, 4543925788061708151, 1, 907368, 5600, 28, 28, 2604021857498243886),
    ("bicg", "cuda", 96, 4549583020877812962, 4549160389430805174, 2, 317632, 10968, 2, 0, 16903572036983900804),
    ("bicg", "ompi", 96, 4549590306701210130, 4549160389430805174, 2, 329408, 10968, 2, 0, 16903572036983900804),
    ("atax", "cuda", 96, 4549583020877812962, 4545979139226845585, 2, 317632, 10968, 2, 0, 5054696278822152679),
    ("atax", "ompi", 96, 4549590306701210130, 4545979139226845585, 2, 329408, 10968, 2, 0, 5054696278822152679),
    ("mvt", "cuda", 96, 4549585222637630787, 4551013397426087076, 2, 318208, 10992, 2, 0, 3766336393989628555),
    ("mvt", "ompi", 96, 4549592508461027955, 4551013397426087076, 2, 329984, 10992, 2, 0, 3766336393989628555),
    ("gemm", "cuda", 40, 4545812246981808193, 4547562694546340218, 1, 1398400, 11600, 10, 40, 16709968019083986714),
    ("gemm", "ompi", 40, 4545495193568041310, 4547562694546340218, 1, 1488320, 11600, 10, 0, 16709968019083986714),
    ("gramschmidt", "cuda", 24, 4571925100907220975, 4547207128128806503, 72, 409176, 6741, 72, 71, 10830856282348039403),
    ("gramschmidt", "ompi", 24, 4571857571932808340, 4563650775529386191, 72, 819516, 6717, 72, 95, 10830856282348039403),
    ("gramschmidt", "cuda", 128, 4584381560204068898, 4550665904171842090, 384, 45998720, 624472, 384, 252, 15122963614577540534),
    ("gramschmidt", "ompi", 128, 4583785700196370565, 4574233250770840520, 384, 48346944, 623960, 384, 252, 15122963614577540534),
    ("master_worker", "ompi", 2048, 4547105440602808872, 4545695797237873406, 1, 227045, 24576, 1, 1, 1364551044739597093),
];

/// Stand-alone `parallel for` regions inside one `target`: the master warp
/// hands each to the three worker warps through the shared-memory stack and
/// named barriers (paper §3.2, Fig. 3).
const MASTER_WORKER_SRC: &str = r#"
void run(int n, float *x, float *y)
{
    #pragma omp target map(to: n, x[0:n]) map(tofrom: y[0:n])
    {
        int i;
        int r;
        for (r = 0; r < 4; r++) {
            #pragma omp parallel for
            for (i = 0; i < n; i++)
                y[i] = 0.5f * y[i] + x[i] + (float) r;
        }
    }
}
"#;

fn x_at(i: usize) -> f32 {
    [0.5, 1.25, -2.0, 3.0][i % 4]
}

fn master_worker() -> App {
    App {
        name: "master_worker",
        omp_src: MASTER_WORKER_SRC,
        cuda_src: "",
        paper_sizes: &[],
        test_size: 2048,
        bench_size: 2048,
        tolerance: 0.0,
        footprint: |n| 8 * n as u64,
        setup: |m, n| {
            let x: Vec<f32> = (0..n as usize).map(x_at).collect();
            let y: Vec<f32> = (0..n).map(|i| (i % 8) as f32).collect();
            Ok(vec![Value::I32(n as i32), alloc_f32(m, &x)?, alloc_f32(m, &y)?])
        },
        outputs: |m, args, n| read_f32(m, args[2], n as usize),
        reference: |n| {
            let step = |(i, y): (usize, f32)| (0..4).fold(y, |y, r| 0.5 * y + x_at(i) + r as f32);
            (0..n).map(|i| (i, (i % 8) as f32)).map(|(i, y)| step((i as usize, y))).collect()
        },
    }
}

fn work_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ompinano-simnum-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `app` once at `n` on a fresh runner and read its simulated numbers.
fn measure(app: &App, variant: Variant, n: u32) -> Row {
    let dir = work_dir();
    let cfg = unibench::runner_config((app.footprint)(n));
    let built = unibench::build_variant_cfg(app, variant, &dir, &cfg);
    let m = unibench::measure(app, &built, n);
    let dev = built.runner.registry().device(0).and_then(|d| d.raw_device()).expect("device");
    let st = dev.stats.lock().clone();
    let _ = std::fs::remove_dir_all(&dir);
    let label = if variant == Variant::Cuda { "cuda" } else { "ompi" };
    (
        app.name,
        label,
        n,
        m.kernel_s.to_bits(),
        m.memcpy_s.to_bits(),
        m.launches,
        st.lane_insts,
        st.mem_transactions,
        st.blocks_simulated,
        st.divergent_branches,
        m.checksum,
    )
}

#[test]
fn simulated_numbers_match_the_pinned_table() {
    let mut got = Vec::new();
    // `fig4 --quick`: each app's test size (gramschmidt also at 128).
    for app in unibench::all_apps() {
        let mut sizes = vec![app.test_size];
        if app.name == "gramschmidt" {
            sizes.push(128);
        }
        for n in sizes {
            for variant in [Variant::Cuda, Variant::OmpiCudadev] {
                got.push(measure(&app, variant, n));
            }
        }
    }
    let mw = master_worker();
    got.push(measure(&mw, Variant::OmpiCudadev, mw.test_size));

    let table: String = got.iter().map(|r| format!("    {r:?},\n")).collect();
    // A CUDA and an OMPi run of one (app, n) compute the same output.
    for cuda in got.iter().filter(|r| r.1 == "cuda") {
        let ompi = got.iter().find(|r| r.1 == "ompi" && (r.0, r.2) == (cuda.0, cuda.2));
        let ompi = ompi.unwrap_or_else(|| panic!("{}@{} has no ompi row", cuda.0, cuda.2));
        assert_eq!(
            cuda.10, ompi.10,
            "{}@{}: CUDA checksum {:#018x}, OMPi {:#018x}; the rows read:\n{table}",
            cuda.0, cuda.2, cuda.10, ompi.10
        );
    }
    assert!(got == PINNED, "simulated numbers moved; they now read:\n{table}");
}
