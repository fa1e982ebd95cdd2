//! Multi-device registry integration tests: `device(n)` clause routing,
//! the `omp_*` device-API ICVs, per-device fault scoping, and independent
//! host fallback — killing device 0 must not disturb device 1.

use ompi_nano::{Ompicc, Runner, RunnerConfig, Value};

/// Two offloaded loops, pinned to devices 0 and 1 by `device()` clauses.
/// Each writes its own array; main verifies both results on the host.
const TWO_DEV: &str = r#"
int main() {
    int n = 256;
    float a[256]; float b[256];
    for (int i = 0; i < n; i++) { a[i] = 1.0f; b[i] = 2.0f; }
    #pragma omp target teams distribute parallel for device(0) map(tofrom: a[0:n])
    for (int i = 0; i < n; i++)
        a[i] = a[i] + 1.0f;
    #pragma omp target teams distribute parallel for device(1) map(tofrom: b[0:n])
    for (int i = 0; i < n; i++)
        b[i] = b[i] * 2.0f;
    for (int i = 0; i < n; i++) {
        if (a[i] != 2.0f) return 1;
        if (b[i] != 4.0f) return 2;
    }
    return 0;
}
"#;

fn compile(tag: &str, src: &str) -> ompi_nano::CompiledApp {
    let dir = std::env::temp_dir().join(format!("ompinano-mdev-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Ompicc::new(&dir).compile(src).unwrap()
}

fn two_dev_cfg(fault_spec: Option<&str>) -> RunnerConfig {
    RunnerConfig {
        num_devices: 2,
        fault_spec: fault_spec.map(str::to_string),
        ..Default::default()
    }
}

/// Healthy two-device run: each region lands on its own device and the
/// per-device clocks account for exactly one launch each.
#[test]
fn device_clauses_route_regions_to_distinct_devices() {
    let app = compile("route", TWO_DEV);
    let runner = Runner::new(&app, &two_dev_cfg(None)).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));

    assert_eq!(runner.num_devices(), 2);
    let c0 = runner.dev_clock_of(0).unwrap();
    let c1 = runner.dev_clock_of(1).unwrap();
    assert_eq!(c0.launches, 1, "region with device(0) must launch on device 0");
    assert_eq!(c1.launches, 1, "region with device(1) must launch on device 1");
    // The aggregate clock is the per-device sum.
    assert_eq!(runner.dev_clock().launches, 2);
    assert!((runner.dev_clock().kernel_s - (c0.kernel_s + c1.kernel_s)).abs() < 1e-12);
}

/// The tentpole acceptance scenario: a terminal fault kills device 0; its
/// region falls back to the host (results still correct), while device 1
/// keeps offloading, unaffected.
#[test]
fn killing_dev0_falls_back_to_host_while_dev1_keeps_offloading() {
    let app = compile("dev0-dead", TWO_DEV);
    let runner = Runner::new(&app, &two_dev_cfg(Some("dev0:launch@1x*"))).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0), "host fallback must preserve results");

    assert!(runner.device_broken_at(0), "terminal launch fault must latch device 0");
    assert!(!runner.device_broken_at(1), "device 1 must be untouched by device 0's fault");
    let c1 = runner.dev_clock_of(1).unwrap();
    assert_eq!(c1.launches, 1, "device 1 must still offload its region");
}

/// Per-device scoping in the other direction: dev1-scoped rules leave
/// device 0 healthy.
#[test]
fn dev1_scoped_fault_leaves_dev0_healthy() {
    let app = compile("dev1-dead", TWO_DEV);
    let runner = Runner::new(&app, &two_dev_cfg(Some("dev1:launch@1x*"))).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));

    assert!(!runner.device_broken_at(0));
    assert!(runner.device_broken_at(1));
    assert_eq!(runner.dev_clock_of(0).unwrap().launches, 1);
}

/// A malformed `devN:` prefix is rejected at runner construction, not at
/// first offload.
#[test]
fn malformed_device_prefix_is_rejected_up_front() {
    let app = compile("badspec", TWO_DEV);
    let err = Runner::new(&app, &two_dev_cfg(Some("devX:launch@1"))).err();
    assert!(err.is_some(), "malformed fault spec must fail Runner::new");
}

/// The interpreted program sees the registry through the OpenMP device
/// API: device count, default-device ICV, and the initial device number.
#[test]
fn omp_device_api_reflects_the_registry() {
    let src = r#"
int main() {
    if (omp_get_num_devices() != 2) return 1;
    if (omp_get_initial_device() != 2) return 2;
    if (omp_get_default_device() != 0) return 3;
    omp_set_default_device(1);
    if (omp_get_default_device() != 1) return 4;
    return 0;
}
"#;
    let app = compile("api", src);
    let runner = Runner::new(&app, &two_dev_cfg(None)).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));
}

/// A region without a `device()` clause follows the default-device ICV set
/// by `omp_set_default_device`.
#[test]
fn default_device_icv_routes_unclaused_regions() {
    let src = r#"
int main() {
    int n = 64;
    float a[64];
    for (int i = 0; i < n; i++) a[i] = 1.0f;
    omp_set_default_device(1);
    #pragma omp target teams distribute parallel for map(tofrom: a[0:n])
    for (int i = 0; i < n; i++)
        a[i] = a[i] + 1.0f;
    for (int i = 0; i < n; i++)
        if (a[i] != 2.0f) return 1;
    return 0;
}
"#;
    let app = compile("icv", src);
    let runner = Runner::new(&app, &two_dev_cfg(None)).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));
    assert_eq!(runner.dev_clock_of(0).unwrap().launches, 0);
    assert_eq!(runner.dev_clock_of(1).unwrap().launches, 1);
}

/// `device(n)` past the last offload device selects the initial device:
/// the region runs on the host (no launches anywhere) yet stays correct.
#[test]
fn out_of_range_device_runs_on_the_initial_device() {
    let src = r#"
int main() {
    int n = 64;
    float a[64];
    for (int i = 0; i < n; i++) a[i] = 3.0f;
    #pragma omp target teams distribute parallel for device(2) map(tofrom: a[0:n])
    for (int i = 0; i < n; i++)
        a[i] = a[i] * 3.0f;
    for (int i = 0; i < n; i++)
        if (a[i] != 9.0f) return 1;
    return 0;
}
"#;
    let app = compile("initial", src);
    let runner = Runner::new(&app, &two_dev_cfg(None)).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));
    assert_eq!(runner.dev_clock().launches, 0, "the initial device never launches kernels");
}

/// The data directives with `device(n)` naming the initial device map
/// nothing and move no bytes: `target data`, `target enter`/`exit data`
/// and `target update` there are no-ops over host memory, and the program
/// still computes the sequential answer.
#[test]
fn data_directives_on_the_initial_device_move_nothing() {
    let src = r#"
int main() {
    int n = 64;
    float a[64]; float b[64];
    for (int i = 0; i < n; i++) { a[i] = 1.0f; b[i] = 5.0f; }
    #pragma omp target data device(2) map(tofrom: a[0:n])
    {
        #pragma omp target teams distribute parallel for device(2) map(tofrom: a[0:n])
        for (int i = 0; i < n; i++)
            a[i] = a[i] + 1.0f;
        #pragma omp target update device(2) from(a[0:n])
    }
    #pragma omp target enter data device(2) map(to: b[0:n])
    for (int i = 0; i < n; i++) b[i] = 7.0f;
    #pragma omp target update device(2) to(b[0:n])
    #pragma omp target teams distribute parallel for device(2) map(tofrom: b[0:n])
    for (int i = 0; i < n; i++)
        b[i] = b[i] * 2.0f;
    #pragma omp target exit data device(2) map(from: b[0:n])
    for (int i = 0; i < n; i++) {
        if (a[i] != 2.0f) return 1;
        if (b[i] != 14.0f) return 2;
    }
    return 0;
}
"#;
    let app = compile("initial-data", src);
    let runner = Runner::new(&app, &two_dev_cfg(None)).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));
    for d in 0..runner.num_devices() {
        let clk = runner.dev_clock_of(d).unwrap();
        assert_eq!(clk.launches, 0, "device {d} must launch nothing");
        assert_eq!(clk.h2d_bytes, 0, "device {d} must receive no bytes");
        assert_eq!(clk.d2h_bytes, 0, "device {d} must send no bytes");
    }
    assert_eq!(runner.dev_clock_of(2).unwrap().fallbacks, 2, "both regions ran on the host");
}
