//! Full-pipeline tests: OpenMP C source → ompicc (translate, kernel files,
//! nvcc) → interpreted host program → simulated Maxwell GPU → results.

use std::sync::Arc;

use ompi_core::{Ompicc, Runner, RunnerConfig};
use vmcommon::Value;

fn workdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ompicc-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn run_app(tag: &str, src: &str) -> (Runner, Value) {
    let cc = Ompicc::new(workdir(tag));
    let app = cc.compile(src).unwrap_or_else(|e| panic!("compile failed: {e}"));
    let runner = Runner::new(&app, &RunnerConfig::default()).expect("runner");
    let v = runner
        .run_main()
        .unwrap_or_else(|e| panic!("run failed: {e}\nlowered host program:\n{}", app.host_text));
    (runner, v)
}

/// Runners of one compiled app are instances of one image: the program is
/// laid out and compiled once, and each runner starts on its own zeroed
/// arena.
#[test]
fn runners_of_one_app_share_the_image_and_nothing_else() {
    let src = "int hits; int main() { hits = hits + 1; return hits; }";
    let app = Ompicc::new(workdir("image")).compile(src).unwrap();
    let cfg = RunnerConfig { host_mem: 8 << 20, ..RunnerConfig::default() };
    let a = Runner::new(&app, &cfg).unwrap();
    let b = Runner::new(&app, &cfg).unwrap();
    assert_eq!(a.run_main().unwrap(), Value::I32(1));
    assert_eq!(a.run_main().unwrap(), Value::I32(2), "one runner keeps its globals");
    assert_eq!(b.run_main().unwrap(), Value::I32(1), "another runner starts from zero");
    assert!(Arc::ptr_eq(a.machine.image(), &app.image));
    assert!(Arc::ptr_eq(b.machine.image(), &app.image));
    assert!(std::ptr::eq(a.machine.image().compiled(), b.machine.image().compiled()));
}

/// The paper's Fig. 1: SAXPY with a stand-alone `parallel for` inside a
/// `target` region — exercises the master/worker scheme end to end.
#[test]
fn fig1_saxpy_master_worker() {
    let src = r#"
void saxpy_device(float a, float *x, float *y, int size)
{
    #pragma omp target map(to: a, size, x[0:size]) map(tofrom: y[0:size])
    {
        int i;
        #pragma omp parallel for
        for (i = 0; i < size; i++)
            y[i] = a * x[i] + y[i];
    }
}

int main() {
    float x[200];
    float y[200];
    for (int i = 0; i < 200; i++) { x[i] = (float) i; y[i] = 1.0f; }
    saxpy_device(2.0f, x, y, 200);
    int bad = 0;
    for (int i = 0; i < 200; i++)
        if (y[i] != 2.0f * (float) i + 1.0f)
            bad++;
    return bad;
}
"#;
    let (runner, v) = run_app("fig1", src);
    assert_eq!(v, Value::I32(0), "all SAXPY elements must be correct");
    let clk = runner.dev_clock();
    assert_eq!(clk.launches, 1);
    assert!(clk.kernel_s > 0.0 && clk.memcpy_s() > 0.0);
}

/// The recommended combined construct (§3.1) with collapse(2).
#[test]
fn combined_construct_collapse2() {
    let src = r#"
int main() {
    int n = 64;
    float a[64 * 64];
    float b[64 * 64];
    for (int i = 0; i < n * n; i++) { a[i] = (float) i; b[i] = 0.0f; }

    #pragma omp target teams distribute parallel for collapse(2) \
            map(to: a[0:n*n]) map(from: b[0:n*n]) num_threads(256)
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++)
            b[i * 64 + j] = 2.0f * a[i * 64 + j];

    int bad = 0;
    for (int i = 0; i < n * n; i++)
        if (b[i] != 2.0f * (float) i)
            bad++;
    return bad;
}
"#;
    let (_, v) = run_app("combined", src);
    assert_eq!(v, Value::I32(0));
}

/// Reduction on a combined construct (device atomics).
#[test]
fn combined_reduction() {
    let src = r#"
int main() {
    int n = 1000;
    float x[1000];
    for (int i = 0; i < n; i++) x[i] = 1.5f;
    float sum = 0.0f;
    #pragma omp target teams distribute parallel for map(to: x[0:n]) reduction(+: sum)
    for (int i = 0; i < n; i++)
        sum += x[i];
    // 1000 * 1.5 = 1500
    return (int) sum;
}
"#;
    let (_, v) = run_app("red", src);
    assert_eq!(v, Value::I32(1500));
}

/// target data keeps buffers resident across multiple target regions.
#[test]
fn target_data_reuse() {
    let src = r#"
int main() {
    int n = 256;
    float v[256];
    for (int i = 0; i < n; i++) v[i] = 1.0f;

    #pragma omp target data map(tofrom: v[0:n])
    {
        #pragma omp target teams distribute parallel for map(tofrom: v[0:n])
        for (int i = 0; i < n; i++)
            v[i] = v[i] + 1.0f;
        #pragma omp target teams distribute parallel for map(tofrom: v[0:n])
        for (int i = 0; i < n; i++)
            v[i] = v[i] * 3.0f;
    }
    // (1+1)*3 = 6
    int bad = 0;
    for (int i = 0; i < n; i++)
        if (v[i] != 6.0f) bad++;
    return bad;
}
"#;
    let (runner, v) = run_app("tdata", src);
    assert_eq!(v, Value::I32(0));
    // The inner maps must have reused the enclosing mapping: exactly one
    // H2D of the array (256 floats) and one D2H at data-region exit.
    let clk = runner.dev_clock();
    assert_eq!(clk.h2d_bytes, 1024, "inner target regions must not re-copy");
    assert_eq!(clk.d2h_bytes, 1024);
}

/// enter/exit data + target update.
#[test]
fn enter_exit_update() {
    let src = r#"
int main() {
    int n = 64;
    float v[64];
    for (int i = 0; i < n; i++) v[i] = 5.0f;
    #pragma omp target enter data map(to: v[0:n])

    // Change host copy; device still sees 5.0 until an update.
    for (int i = 0; i < n; i++) v[i] = 7.0f;

    #pragma omp target teams distribute parallel for map(tofrom: v[0:n])
    for (int i = 0; i < n; i++)
        v[i] = v[i] + 1.0f;           // device: 5+1 = 6

    #pragma omp target update from(v[0:n])
    float first = v[0];

    #pragma omp target exit data map(from: v[0:n])
    return (int) first;
}
"#;
    let (_, v) = run_app("enterexit", src);
    assert_eq!(v, Value::I32(6));
}

/// Host-side parallel for with a reduction (the ORT path).
#[test]
fn host_parallel_for_reduction() {
    let src = r#"
int main() {
    int n = 5000;
    int sum = 0;
    #pragma omp parallel for reduction(+: sum) num_threads(4)
    for (int i = 0; i < n; i++)
        sum += i;
    return sum == 5000 * 4999 / 2;
}
"#;
    let (_, v) = run_app("hostpar", src);
    assert_eq!(v, Value::I32(1));
}

/// Host parallel region with critical and barrier.
#[test]
fn host_parallel_critical() {
    let src = r#"
int main() {
    int count = 0;
    #pragma omp parallel num_threads(4)
    {
        #pragma omp critical
        { count = count + 1; }
        #pragma omp barrier
    }
    return count;
}
"#;
    let (_, v) = run_app("hostcrit", src);
    assert_eq!(v, Value::I32(4));
}

/// `if` clause false: the region runs on the host instead.
#[test]
fn target_if_clause_host_fallback() {
    let src = r#"
int main() {
    int n = 100;
    float v[100];
    for (int i = 0; i < n; i++) v[i] = 1.0f;
    int use_gpu = 0;
    #pragma omp target teams distribute parallel for if(use_gpu) map(tofrom: v[0:n])
    for (int i = 0; i < n; i++)
        v[i] = v[i] + 1.0f;
    int bad = 0;
    for (int i = 0; i < n; i++)
        if (v[i] != 2.0f) bad++;
    return bad;
}
"#;
    let (runner, v) = run_app("ifclause", src);
    assert_eq!(v, Value::I32(0));
    assert_eq!(runner.dev_clock().launches, 0, "if(false) must not offload");
}

/// Device-side scheduling: dynamic schedule on a combined construct.
#[test]
fn combined_dynamic_schedule() {
    let src = r#"
int main() {
    int n = 500;
    float v[500];
    for (int i = 0; i < n; i++) v[i] = (float) i;
    #pragma omp target teams distribute parallel for schedule(dynamic, 7) \
            map(tofrom: v[0:n]) num_teams(1) num_threads(128)
    for (int i = 0; i < n; i++)
        v[i] = v[i] + 100.0f;
    int bad = 0;
    for (int i = 0; i < n; i++)
        if (v[i] != (float) i + 100.0f) bad++;
    return bad;
}
"#;
    let (_, v) = run_app("dynsched", src);
    assert_eq!(v, Value::I32(0));
}

/// Two parallel regions in one target region (worker pool reuse) plus
/// sequential master code between them.
#[test]
fn two_regions_with_master_code() {
    let src = r#"
int main() {
    int n = 96;
    float v[96];
    for (int i = 0; i < n; i++) v[i] = 0.0f;
    #pragma omp target map(tofrom: v[0:n]) map(to: n)
    {
        int i;
        #pragma omp parallel for
        for (i = 0; i < n; i++)
            v[i] = 10.0f;
        /* master-only sequential code */
        v[0] = v[0] + 5.0f;
        #pragma omp parallel for
        for (i = 0; i < n; i++)
            v[i] = v[i] + 1.0f;
    }
    // v[0] = 16, others 11.
    if (v[0] != 16.0f) return 1;
    for (int i = 1; i < n; i++)
        if (v[i] != 11.0f) return 2;
    return 0;
}
"#;
    let (_, v) = run_app("tworegions", src);
    assert_eq!(v, Value::I32(0));
}

/// Shared master-local scalar (Fig. 3 shape: pushed to shared memory).
#[test]
fn shared_master_local() {
    let src = r#"
int main() {
    int x[96];
    #pragma omp target map(from: x[0:96])
    {
        int i = 2;
        #pragma omp parallel num_threads(96)
        {
            x[omp_get_thread_num()] = i + 1;
        }
    }
    for (int t = 0; t < 96; t++)
        if (x[t] != 3) return 1 + t;
    return 0;
}
"#;
    let (_, v) = run_app("fig3", src);
    assert_eq!(v, Value::I32(0));
}

/// Generated kernel text has the documented shape (golden-ish test for
/// Fig. 3 codegen).
#[test]
fn fig3_kernel_text_shape() {
    let src = r#"
int main() {
    int x[96];
    #pragma omp target map(from: x[0:96])
    {
        int i = 2;
        #pragma omp parallel num_threads(96)
        {
            x[omp_get_thread_num()] = i + 1;
        }
    }
    return 0;
}
"#;
    let cc = Ompicc::new(workdir("fig3text"));
    let app = cc.compile(src).unwrap();
    assert_eq!(app.kernels.len(), 1);
    let text = &app.kernels[0].c_text;
    for needle in [
        "cudadev_in_masterwarp",
        "cudadev_is_masterthr",
        "cudadev_push_shmem",
        "cudadev_register_parallel",
        "cudadev_pop_shmem",
        "cudadev_exit_target",
        "cudadev_workerfunc",
        "__global__",
        "__device__",
    ] {
        assert!(text.contains(needle), "kernel text must contain `{needle}`:\n{text}");
    }
    assert!(app.kernels[0].master_worker);
}

/// Combined kernels carry the two-phase chunk distribution of §3.1.
#[test]
fn combined_kernel_text_shape() {
    let src = r#"
int main() {
    int n = 32;
    float v[32];
    #pragma omp target teams distribute parallel for map(tofrom: v[0:n])
    for (int i = 0; i < n; i++)
        v[i] = 1.0f;
    return 0;
}
"#;
    let cc = Ompicc::new(workdir("combtext"));
    let app = cc.compile(src).unwrap();
    let text = &app.kernels[0].c_text;
    assert!(text.contains("cudadev_get_distribute_chunk"));
    assert!(text.contains("cudadev_get_static_chunk"));
    assert!(!app.kernels[0].master_worker);
}

/// Functions called from the target region are cloned into the kernel file
/// (the call-graph closure of §3).
#[test]
fn kernel_call_closure() {
    let src = r#"
float square(float v) { return v * v; }
float plus_sq(float v) { return square(v) + 1.0f; }

int main() {
    int n = 64;
    float v[64];
    for (int i = 0; i < n; i++) v[i] = 2.0f;
    #pragma omp target teams distribute parallel for map(tofrom: v[0:n])
    for (int i = 0; i < n; i++)
        v[i] = plus_sq(v[i]);
    int bad = 0;
    for (int i = 0; i < n; i++)
        if (v[i] != 5.0f) bad++;
    return bad;
}
"#;
    let (_, v) = run_app("closure", src);
    assert_eq!(v, Value::I32(0));
    let cc = Ompicc::new(workdir("closure2"));
    let app = cc.compile(src).unwrap();
    let text = &app.kernels[0].c_text;
    assert!(text.contains("__device__ float square"));
    assert!(text.contains("__device__ float plus_sq"));
}

/// Missing map clause for a referenced pointer is a translation error.
#[test]
fn missing_map_is_an_error() {
    let src = r#"
void f(float *v, int n) {
    #pragma omp target
    {
        int i;
        #pragma omp parallel for
        for (i = 0; i < n; i++) v[i] = 0.0f;
    }
}
int main() { return 0; }
"#;
    let cc = Ompicc::new(workdir("nomap"));
    assert!(cc.compile(src).is_err());
}

/// Virtual clock: bigger problems take more simulated time.
#[test]
fn virtual_time_scales() {
    let src = |n: u32| {
        format!(
            r#"
int main() {{
    int n = {n};
    float v[{n}];
    for (int i = 0; i < n; i++) v[i] = 1.0f;
    #pragma omp target teams distribute parallel for map(tofrom: v[0:n])
    for (int i = 0; i < n; i++)
        v[i] = v[i] * 2.0f + 1.0f;
    return 0;
}}
"#
        )
    };
    let (r1, _) = run_app("time_small", &src(256));
    let (r2, _) = run_app("time_big", &src(8192));
    let t1 = r1.dev_clock().total_s();
    let t2 = r2.dev_clock().total_s();
    assert!(t2 > t1, "larger problem must take longer: {t1} vs {t2}");
}

/// The master/worker ablation (DESIGN §5): the same 4096-float loop as the
/// combined construct (§3.1) and as a stand-alone `parallel for` inside
/// `target` (§3.2), both loaded from cubins. Both are correct, and the
/// master/worker scheme costs strictly more simulated time — the reason
/// the paper recommends combined constructs for loops.
#[test]
fn master_worker_costs_more_than_the_combined_construct() {
    const COMBINED: &str = r#"
int main() {
    int n = 4096;
    float v[4096];
    for (int i = 0; i < n; i++) v[i] = 1.0f;
    #pragma omp target teams distribute parallel for map(tofrom: v[0:n]) num_threads(128)
    for (int i = 0; i < n; i++)
        v[i] = v[i] * 2.0f + 1.0f;
    int bad = 0;
    for (int i = 0; i < n; i++)
        if (v[i] != 3.0f)
            bad++;
    return bad;
}
"#;
    const MASTER_WORKER: &str = r#"
int main() {
    int n = 4096;
    float v[4096];
    for (int i = 0; i < n; i++) v[i] = 1.0f;
    #pragma omp target map(tofrom: v[0:n]) map(to: n)
    {
        int i;
        #pragma omp parallel for
        for (i = 0; i < n; i++)
            v[i] = v[i] * 2.0f + 1.0f;
    }
    int bad = 0;
    for (int i = 0; i < n; i++)
        if (v[i] != 3.0f)
            bad++;
    return bad;
}
"#;
    let sim_s = |tag: &str, src: &str| {
        let app = Ompicc::new(workdir(tag)).with_mode(nvccsim::BinMode::Cubin).compile(src);
        let runner = Runner::new(&app.unwrap(), &RunnerConfig::default()).expect("runner");
        assert_eq!(runner.run_main().unwrap(), Value::I32(0), "{tag}: every v[i] must be 3.0f");
        runner.dev_clock().total_s()
    };
    let combined = sim_s("mw_combined", COMBINED);
    let master_worker = sim_s("mw_master_worker", MASTER_WORKER);
    assert!(
        master_worker > combined,
        "master/worker must cost more than combined: {master_worker} vs {combined}"
    );
}

/// Guided schedule on a combined construct.
#[test]
fn combined_guided_schedule() {
    let src = r#"
int main() {
    int n = 600;
    float v[600];
    for (int i = 0; i < n; i++) v[i] = (float) i;
    #pragma omp target teams distribute parallel for schedule(guided) \
            map(tofrom: v[0:n]) num_teams(1) num_threads(128)
    for (int i = 0; i < n; i++)
        v[i] = v[i] + 7.0f;
    int bad = 0;
    for (int i = 0; i < n; i++)
        if (v[i] != (float) i + 7.0f) bad++;
    return bad;
}
"#;
    let (_, v) = run_app("guided", src);
    assert_eq!(v, Value::I32(0));
}

/// Static schedule with an explicit chunk on the device.
#[test]
fn combined_static_chunked() {
    let src = r#"
int main() {
    int n = 500;
    float v[500];
    for (int i = 0; i < n; i++) v[i] = 0.0f;
    #pragma omp target teams distribute parallel for schedule(static, 4) \
            map(tofrom: v[0:n]) num_teams(2) num_threads(64)
    for (int i = 0; i < n; i++)
        v[i] = v[i] + 1.0f;
    // static,chunk returns each thread's first cyclic chunk: coverage may
    // be partial by design at this teams/threads shape — but no element
    // may be written twice.
    int over = 0;
    for (int i = 0; i < n; i++)
        if (v[i] > 1.5f) over++;
    return over;
}
"#;
    let (_, v) = run_app("staticchunk", src);
    assert_eq!(v, Value::I32(0));
}

/// Multiple target regions in one function get distinct kernel files.
#[test]
fn multiple_kernels_per_function() {
    let src = r#"
int main() {
    int n = 64;
    float v[64];
    for (int i = 0; i < n; i++) v[i] = 1.0f;
    #pragma omp target teams distribute parallel for map(tofrom: v[0:n])
    for (int i = 0; i < n; i++)
        v[i] = v[i] + 1.0f;
    #pragma omp target teams distribute parallel for map(tofrom: v[0:n])
    for (int i = 0; i < n; i++)
        v[i] = v[i] * 3.0f;
    return (int) v[10];
}
"#;
    let cc = Ompicc::new(workdir("multik"));
    let app = cc.compile(src).unwrap();
    assert_eq!(app.kernels.len(), 2);
    assert_ne!(app.kernels[0].module_name, app.kernels[1].module_name);
    let runner = Runner::new(&app, &RunnerConfig::default()).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(6));
}

/// firstprivate on a device parallel region: threads get copies.
#[test]
fn device_firstprivate_copies() {
    let src = r#"
int main() {
    int base = 7;
    int out[96];
    #pragma omp target map(from: out[0:96]) map(to: base)
    {
        #pragma omp parallel num_threads(96) firstprivate(base)
        {
            base = base + omp_get_thread_num();
            out[omp_get_thread_num()] = base;
        }
    }
    for (int t = 0; t < 96; t++)
        if (out[t] != 7 + t) return 1 + t;
    return 0;
}
"#;
    let (_, v) = run_app("devfp", src);
    assert_eq!(v, Value::I32(0));
}
