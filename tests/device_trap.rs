//! A device trap must fail the offload at once, not after the barrier
//! deadlock timeout of the warps it leaves parked.

use std::time::{Duration, Instant};

use ompi_nano::{Ompicc, Runner, RunnerConfig};

#[test]
fn master_trap_releases_parked_workers_at_once() {
    // The master thread divides by zero before it opens the parallel
    // region, while the worker warps of the master/worker scheme are
    // parked on barrier B1 waiting for it.
    let src = r#"
int main() {
    int z = 0;
    int out = 0;
    #pragma omp target map(to: z) map(tofrom: out)
    {
        out = 7 / z;
        #pragma omp parallel num_threads(96)
        {
            out = omp_get_num_threads();
        }
    }
    return out;
}
"#;
    let dir = std::env::temp_dir().join(format!("ompinano-devtrap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = Ompicc::new(&dir).compile(src).unwrap();
    let runner = Runner::new(&app, &RunnerConfig::default()).unwrap();
    let start = Instant::now();
    let err = runner.run_main().expect_err("the region divides by zero on the device");
    let waited = start.elapsed();
    let text = err.to_string();
    assert!(text.contains("device trap: division by zero in warp 0"), "got: {text}");
    assert!(waited < Duration::from_secs(1), "trap took {waited:?} to surface");
}
