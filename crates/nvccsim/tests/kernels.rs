//! End-to-end tests: CUDA C source → SPTX → execution on the simulated
//! Maxwell SMM.

use gpusim::{launch, Device, ExecMode, LaunchConfig, NoLib};
use nvccsim::{compile_source, link_module, BinMode, Nvcc};

/// Compile + link (no lib symbols) + run on the simulator.
fn run_kernel(
    src: &str,
    kernel: &str,
    grid: [u32; 3],
    block: [u32; 3],
    params: Vec<u64>,
    device: &Device,
) -> gpusim::LaunchStats {
    let mut m = compile_source(src, "test").expect("compile");
    link_module(&mut m, &[]).expect("link");
    let cfg = LaunchConfig { grid, block, params };
    launch(device, &m, kernel, &cfg, &NoLib, ExecMode::Functional).expect("launch")
}

#[test]
fn saxpy_kernel_from_c() {
    let src = r#"
__global__ void saxpy(float a, int n, float *x, float *y) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n)
        y[i] = a * x[i] + y[i];
}
"#;
    let d = Device::new(1 << 20);
    let n = 500u32;
    let x = d.mem_alloc(4 * n as u64).unwrap();
    let y = d.mem_alloc(4 * n as u64).unwrap();
    let xs: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
    d.memcpy_h2d(x, &xs).unwrap();
    d.memset_d8(y, 0, 4 * n as u64).unwrap();
    run_kernel(
        src,
        "saxpy",
        [n.div_ceil(128), 1, 1],
        [128, 1, 1],
        vec![2.0f32.to_bits() as u64, n as u64, x, y],
        &d,
    );
    let mut out = vec![0u8; 4 * n as usize];
    d.memcpy_d2h(&mut out, y).unwrap();
    for i in 0..n as usize {
        let v = f32::from_le_bytes(out[4 * i..4 * i + 4].try_into().unwrap());
        assert_eq!(v, 2.0 * i as f32, "element {i}");
    }
}

#[test]
fn two_d_indexing_and_loops() {
    // Row sums of a matrix, one thread per row with an inner loop.
    let src = r#"
__global__ void rowsum(float *a, float *out, int n, int m) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float s = 0.0f;
        for (int j = 0; j < m; j++)
            s += a[i * m + j];
        out[i] = s;
    }
}
"#;
    let d = Device::new(1 << 20);
    let (n, m) = (37u32, 19u32);
    let a = d.mem_alloc(4 * (n * m) as u64).unwrap();
    let out = d.mem_alloc(4 * n as u64).unwrap();
    let data: Vec<u8> = (0..n * m).flat_map(|k| ((k % 7) as f32).to_le_bytes()).collect();
    d.memcpy_h2d(a, &data).unwrap();
    run_kernel(src, "rowsum", [2, 1, 1], [32, 1, 1], vec![a, out, n as u64, m as u64], &d);
    let mut raw = vec![0u8; 4 * n as usize];
    d.memcpy_d2h(&mut raw, out).unwrap();
    for i in 0..n {
        let expect: f32 = (0..m).map(|j| ((i * m + j) % 7) as f32).sum();
        let got = f32::from_le_bytes(raw[4 * i as usize..4 * i as usize + 4].try_into().unwrap());
        assert_eq!(got, expect, "row {i}");
    }
}

#[test]
fn break_continue_in_kernel_loops() {
    let src = r#"
__global__ void bc(int *out) {
    int t = threadIdx.x;
    int s = 0;
    for (int j = 0; j < 20; j++) {
        if (j == 14) break;
        if (j % 2 == 1) continue;
        s += j;
    }
    out[t] = s;
}
"#;
    let d = Device::new(1 << 20);
    let out = d.mem_alloc(4 * 32).unwrap();
    run_kernel(src, "bc", [1, 1, 1], [32, 1, 1], vec![out], &d);
    let mut raw = vec![0u8; 4 * 32];
    d.memcpy_d2h(&mut raw, out).unwrap();
    let expect: i32 = (0..14).filter(|j| j % 2 == 0).sum();
    for t in 0..32usize {
        assert_eq!(
            i32::from_le_bytes(raw[4 * t..4 * t + 4].try_into().unwrap()),
            expect,
            "thread {t}"
        );
    }
}

#[test]
fn device_function_and_math() {
    let src = r#"
__device__ float hypotenuse(float a, float b) {
    return sqrtf(a * a + b * b);
}
__global__ void k(float *out) {
    int t = threadIdx.x;
    out[t] = hypotenuse((float) t, 4.0f);
}
"#;
    let d = Device::new(1 << 20);
    let out = d.mem_alloc(4 * 32).unwrap();
    run_kernel(src, "k", [1, 1, 1], [32, 1, 1], vec![out], &d);
    let mut raw = vec![0u8; 4 * 32];
    d.memcpy_d2h(&mut raw, out).unwrap();
    for t in 0..32usize {
        let got = f32::from_le_bytes(raw[4 * t..4 * t + 4].try_into().unwrap());
        let expect = ((t * t) as f32 + 16.0).sqrt();
        assert!((got - expect).abs() < 1e-5, "thread {t}: {got} vs {expect}");
    }
}

#[test]
fn shared_memory_and_syncthreads() {
    let src = r#"
__global__ void rev(int *data) {
    __shared__ int buf[64];
    int t = threadIdx.x;
    buf[t] = data[t];
    __syncthreads();
    data[t] = buf[63 - t];
}
"#;
    let d = Device::new(1 << 20);
    let buf = d.mem_alloc(4 * 64).unwrap();
    let init: Vec<u8> = (0..64i32).flat_map(|i| i.to_le_bytes()).collect();
    d.memcpy_h2d(buf, &init).unwrap();
    run_kernel(src, "rev", [1, 1, 1], [64, 1, 1], vec![buf], &d);
    let mut raw = vec![0u8; 4 * 64];
    d.memcpy_d2h(&mut raw, buf).unwrap();
    for t in 0..64usize {
        assert_eq!(i32::from_le_bytes(raw[4 * t..4 * t + 4].try_into().unwrap()), 63 - t as i32);
    }
}

#[test]
fn atomic_add_from_c() {
    let src = r#"
__global__ void hist(int *count) {
    atomicAdd(count, 2);
}
"#;
    let d = Device::new(1 << 20);
    let c = d.mem_alloc(4).unwrap();
    run_kernel(src, "hist", [3, 1, 1], [64, 1, 1], vec![c], &d);
    let mut raw = [0u8; 4];
    d.memcpy_d2h(&mut raw, c).unwrap();
    assert_eq!(i32::from_le_bytes(raw), 3 * 64 * 2);
}

#[test]
fn address_taken_local_spills() {
    let src = r#"
__device__ void bump(int *p) { *p = *p + 7; }
__global__ void k(int *out) {
    int v = threadIdx.x;
    bump(&v);
    out[threadIdx.x] = v;
}
"#;
    let d = Device::new(1 << 20);
    let out = d.mem_alloc(4 * 32).unwrap();
    run_kernel(src, "k", [1, 1, 1], [32, 1, 1], vec![out], &d);
    let mut raw = vec![0u8; 4 * 32];
    d.memcpy_d2h(&mut raw, out).unwrap();
    for t in 0..32usize {
        assert_eq!(i32::from_le_bytes(raw[4 * t..4 * t + 4].try_into().unwrap()), t as i32 + 7);
    }
}

#[test]
fn ternary_and_logical_ops() {
    let src = r#"
__global__ void k(int *out, int n) {
    int t = threadIdx.x;
    int v = (t < n && t % 2 == 0) ? t * 100 : -t;
    out[t] = v;
}
"#;
    let d = Device::new(1 << 20);
    let out = d.mem_alloc(4 * 32).unwrap();
    run_kernel(src, "k", [1, 1, 1], [32, 1, 1], vec![out, 10], &d);
    let mut raw = vec![0u8; 4 * 32];
    d.memcpy_d2h(&mut raw, out).unwrap();
    for t in 0..32i32 {
        let expect = if t < 10 && t % 2 == 0 { t * 100 } else { -t };
        assert_eq!(
            i32::from_le_bytes(raw[4 * t as usize..4 * t as usize + 4].try_into().unwrap()),
            expect,
            "thread {t}"
        );
    }
}

#[test]
fn double_precision_math() {
    let src = r#"
__global__ void k(double *out) {
    int t = threadIdx.x;
    double x = (double) t / 8.0;
    out[t] = x * x + 0.5;
}
"#;
    let d = Device::new(1 << 20);
    let out = d.mem_alloc(8 * 32).unwrap();
    run_kernel(src, "k", [1, 1, 1], [32, 1, 1], vec![out], &d);
    let mut raw = vec![0u8; 8 * 32];
    d.memcpy_d2h(&mut raw, out).unwrap();
    for t in 0..32usize {
        let got = f64::from_le_bytes(raw[8 * t..8 * t + 8].try_into().unwrap());
        let x = t as f64 / 8.0;
        assert_eq!(got, x * x + 0.5);
    }
}

#[test]
fn local_array_per_thread() {
    let src = r#"
__global__ void k(int *out) {
    int t = threadIdx.x;
    int tmp[4];
    for (int i = 0; i < 4; i++)
        tmp[i] = t * 10 + i;
    out[t] = tmp[0] + tmp[3];
}
"#;
    let d = Device::new(1 << 20);
    let out = d.mem_alloc(4 * 32).unwrap();
    run_kernel(src, "k", [1, 1, 1], [32, 1, 1], vec![out], &d);
    let mut raw = vec![0u8; 4 * 32];
    d.memcpy_d2h(&mut raw, out).unwrap();
    for t in 0..32i32 {
        assert_eq!(
            i32::from_le_bytes(raw[4 * t as usize..4 * t as usize + 4].try_into().unwrap()),
            (t * 10) + (t * 10 + 3),
            "thread {t}"
        );
    }
}

#[test]
fn ptx_and_cubin_artifacts() {
    let src = "__global__ void k(float *a) { a[threadIdx.x] = 1.0f; }";
    let dir = std::env::temp_dir().join(format!("nvccsim-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let ptx = Nvcc::new(BinMode::Ptx, &dir, vec![]);
    let p = ptx.compile_kernel_source("k_ptx", src).unwrap();
    assert!(p.extension().unwrap() == "sptx");
    let text = std::fs::read_to_string(&p).unwrap();
    let parsed = sptx::text::parse_module(&text).unwrap();
    assert!(!parsed.device_lib_linked, "PTX artifacts are unlinked");

    let cub = Nvcc::new(BinMode::Cubin, &dir, vec![]);
    let c = cub.compile_kernel_source("k_cub", src).unwrap();
    assert!(c.extension().unwrap() == "cubin");
    let decoded = sptx::cubin::decode(&std::fs::read(&c).unwrap()).unwrap();
    assert!(decoded.device_lib_linked, "cubin artifacts are pre-linked");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn link_rejects_unknown_symbols() {
    let src = "__global__ void k(void) { cudadev_exit_target(); }";
    let mut m = compile_source(src, "m").unwrap();
    assert!(link_module(&mut m, &[]).is_err());
    link_module(&mut m, &["cudadev_exit_target".to_string()]).unwrap();
    assert!(m.device_lib_linked);
}

#[test]
fn omp_pragma_in_kernel_rejected() {
    let src = "__global__ void k(void) {\n#pragma omp barrier\n}";
    assert!(compile_source(src, "m").is_err());
}

#[test]
fn device_printf_via_compiler() {
    let src = r#"
__global__ void k(void) {
    if (threadIdx.x == 0)
        printf("v=%d f=%f\n", 7, 2.5f);
}
"#;
    let d = Device::new(1 << 20);
    run_kernel(src, "k", [1, 1, 1], [32, 1, 1], vec![], &d);
    assert_eq!(d.take_printf_output(), "v=7 f=2.500000\n");
}

#[test]
fn vla_style_2d_param() {
    // `float a[n][n]` parameter — stride computed at run time.
    let src = r#"
__global__ void diag(int n, float a[n][n], float *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n)
        out[i] = a[i][i];
}
"#;
    let d = Device::new(1 << 20);
    let n = 20u32;
    let a = d.mem_alloc(4 * (n * n) as u64).unwrap();
    let out = d.mem_alloc(4 * n as u64).unwrap();
    let data: Vec<u8> = (0..n * n).flat_map(|k| (k as f32).to_le_bytes()).collect();
    d.memcpy_h2d(a, &data).unwrap();
    run_kernel(src, "diag", [1, 1, 1], [32, 1, 1], vec![n as u64, a, out], &d);
    let mut raw = vec![0u8; 4 * n as usize];
    d.memcpy_d2h(&mut raw, out).unwrap();
    for i in 0..n {
        let got = f32::from_le_bytes(raw[4 * i as usize..][..4].try_into().unwrap());
        assert_eq!(got, (i * n + i) as f32, "diag {i}");
    }
}

/// A lock hand-off between warps of one block: warp 0 spins on `atomicCAS`
/// until warp 3 stores the flag. The spinning loop yields at its back-edge
/// whenever its CAS finds the flag unchanged, so warps 1–3 get to run on
/// the block's one thread and the wait ends.
#[test]
fn a_cas_spin_waits_for_a_later_warp() {
    let src = r#"
__global__ void handoff(int *flag, int *out) {
    if (threadIdx.x == 0) {
        while (atomicCAS(flag, 1, 2) != 1);
        out[0] = 42;
    }
    if (threadIdx.x == 96)
        atomicExch(flag, 1);
}
"#;
    let d = Device::new(1 << 20);
    let flag = d.mem_alloc(4).unwrap();
    let out = d.mem_alloc(4).unwrap();
    d.memset_d8(flag, 0, 4).unwrap();
    d.memset_d8(out, 0, 4).unwrap();
    run_kernel(src, "handoff", [1, 1, 1], [128, 1, 1], vec![flag, out], &d);
    let mut raw = [0u8; 8];
    d.memcpy_d2h(&mut raw[..4], out).unwrap();
    d.memcpy_d2h(&mut raw[4..], flag).unwrap();
    assert_eq!(i32::from_le_bytes(raw[..4].try_into().unwrap()), 42);
    assert_eq!(i32::from_le_bytes(raw[4..].try_into().unwrap()), 2, "warp 0 took the flag");
}
