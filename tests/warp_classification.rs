//! Which real kernels run without a thread per warp: every kernel of the
//! six UniBench apps (OMPi and CUDA) and a served tenant's combined
//! construct cannot wait on a sibling warp; the master/worker scheme and
//! `__syncthreads()` can.

use std::path::{Path, PathBuf};

use ompi_nano::cudadev::{exports, CudaDeviceLib};
use ompi_nano::gpusim::waits::can_wait;
use ompi_nano::{sptx, unibench, Ompicc};

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ompinano-classify-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn load(kernel_dir: &Path, module: &str) -> sptx::Module {
    let path = kernel_dir.join(format!("{module}.cubin"));
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    sptx::cubin::decode(&bytes).unwrap()
}

/// `(kernel, can it wait?)` for every kernel entry of `m`.
fn classify(m: &sptx::Module) -> Vec<(String, bool)> {
    let lib = CudaDeviceLib::new(0);
    let kernels = m.functions.iter().enumerate().filter(|(_, f)| f.is_kernel);
    kernels.map(|(i, f)| (f.name.clone(), can_wait(m, i as u32, &lib))).collect()
}

/// Compile `src` with ompicc and classify the kernels of all its modules.
fn classify_omp(src: &str, tag: &str) -> Vec<(String, bool)> {
    let dir = work_dir(tag);
    let app = Ompicc::new(&dir).compile(src).unwrap();
    let modules = app.kernels.iter().map(|k| load(&app.kernel_dir, &k.module_name));
    let all = modules.flat_map(|m| classify(&m)).collect();
    let _ = std::fs::remove_dir_all(&dir);
    all
}

#[test]
fn unibench_kernels_never_wait() {
    let dir = work_dir("apps");
    for app in unibench::all_apps() {
        let omp = unibench::compile_omp(&app, &dir);
        let cuda = unibench::compile_cuda(&app, &dir);
        let mut kernels = classify(&load(&cuda.kernel_dir, &cuda.module_name));
        for k in &omp.kernels {
            assert!(!k.master_worker, "{}: {} is a combined construct", app.name, k.kernel_fn);
            kernels.extend(classify(&load(&omp.kernel_dir, &k.module_name)));
        }
        assert!(kernels.len() >= 2, "{}: {kernels:?}", app.name);
        for (kernel, waits) in kernels {
            assert!(!waits, "{}: kernel `{kernel}` was classified as waiting", app.name);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_served_tenants_combined_construct_never_waits() {
    let src = r#"
int job(int k)
{
    int n = 256;
    float x[256];
    for (int i = 0; i < n; i++) x[i] = (float) ((i + k) % 64);
    #pragma omp target teams distribute parallel for map(tofrom: x[0:n])
    for (int i = 0; i < n; i++)
        x[i] = 2.0f * x[i] + 3.0f;
    int s = 0;
    for (int i = 0; i < n; i++) s = s + (int) x[i];
    return s;
}
int main() { return job(0); }
"#;
    let kernels = classify_omp(src, "tenant");
    assert_eq!(kernels.len(), 1);
    assert!(!kernels[0].1, "{kernels:?}");
}

#[test]
fn the_master_worker_scheme_waits() {
    // The region of examples/master_worker.rs (paper Fig. 3).
    let src = r#"
int main() {
    int x[96];
    #pragma omp target map(tofrom: x[0:96])
    {
        int i = 2;
        #pragma omp parallel num_threads(96)
        {
            x[omp_get_thread_num()] = i + 1;
        }
    }
    return x[95];
}
"#;
    let kernels = classify_omp(src, "mw");
    assert_eq!(kernels.len(), 1);
    assert!(kernels[0].1, "{kernels:?}");
}

#[test]
fn a_dynamic_schedule_waits_on_its_dispenser_reset() {
    let src = r#"
int main() {
    float x[512];
    #pragma omp target teams distribute parallel for schedule(dynamic, 4) map(from: x[0:512])
    for (int i = 0; i < 512; i++)
        x[i] = (float) i;
    return (int) x[511];
}
"#;
    let kernels = classify_omp(src, "dynamic");
    assert!(kernels.iter().all(|(_, waits)| *waits), "{kernels:?}");
}

#[test]
fn syncthreads_waits() {
    let src = r#"
__global__ void reverse(int *x)
{
    __shared__ int tile[128];
    tile[threadIdx.x] = x[threadIdx.x];
    __syncthreads();
    x[threadIdx.x] = tile[127 - threadIdx.x];
}
"#;
    let mut m = ompi_nano::nvccsim::compile_source(src, "reverse").unwrap();
    ompi_nano::nvccsim::link_module(&mut m, &exports()).unwrap();
    assert_eq!(classify(&m), [("reverse".to_string(), true)]);
    assert!(can_wait(&m, 0, &ompi_nano::gpusim::NoLib));
}
