//! Guest programs the benchmark owns, each with an independent Rust
//! reference. They are `unibench::App` values so the same
//! `build_variant_cfg` / `measure` / `run_host_once` path runs them as runs
//! the six UniBench apps; inputs are fixed by formula like UniBench's own.

use minic::interp::{IResult, Machine};
use unibench::{read_f32, App};
use vmcommon::{addr, Value};

/// Elements `xfer_map` and the strided kernels touch.
const TOUCHED: usize = 1024;
/// `target update` round trips in `xfer_update`.
const UPDATE_ROUNDS: usize = 16;
/// Elements the `xfer_update` kernel rewrites each round.
const UPDATE_KERNEL_ELEMS: usize = 256;
/// Stand-alone `parallel for` regions inside `mw_region`'s target.
const MW_ROUNDS: usize = 4;

/// `unibench::alloc_f32` converts element by element; the transfer ops
/// move tens of MiB, so fill guest buffers from ready-made bytes instead
/// and keep the harness's share of the op small.
fn alloc_bytes(m: &Machine, bytes: &[u8]) -> IResult<Value> {
    let off = m.heap.lock().alloc(bytes.len().max(4) as u64)?;
    m.mem.write_bytes(off, bytes)?;
    Ok(Value::Ptr(addr::make(addr::Space::Host, off)))
}

/// `len` floats cycling through `pattern`.
fn patterned(len: usize, pattern: &[f32]) -> Vec<u8> {
    let unit: Vec<u8> = pattern.iter().flat_map(|v| v.to_le_bytes()).collect();
    unit.iter().copied().cycle().take(len * 4).collect()
}

fn pattern_at(pattern: &[f32], i: usize) -> f32 {
    pattern[i % pattern.len()]
}

const X_PATTERN: [f32; 4] = [0.5, 1.25, -2.0, 3.0];
const Y_PATTERN: [f32; 8] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];

fn owned(name: &'static str, omp_src: &'static str) -> App {
    App {
        name,
        omp_src,
        cuda_src: "",
        paper_sizes: &[],
        test_size: 0,
        bench_size: 0,
        tolerance: 1e-5,
        footprint: |n| 8 * n as u64,
        setup: |_, _| Ok(Vec::new()),
        outputs: |_, _, _| Ok(Vec::new()),
        reference: |_| Vec::new(),
    }
}

// -------------------------------------------------------------- host_vm

/// Call-heavy: the VM's frame push/pop and argument passing dominate.
pub fn calls_fib() -> App {
    App {
        footprint: |_| 64,
        setup: |m, n| Ok(vec![Value::I32(n as i32), alloc_bytes(m, &[0u8; 8])?]),
        outputs: |m, args, _| read_f32(m, args[1], 2),
        reference: |n| {
            fn fib(n: i32) -> i32 {
                if n < 2 {
                    n
                } else {
                    fib(n - 1) + fib(n - 2)
                }
            }
            vec![fib(n as i32) as f32, fib(n as i32 - 3) as f32]
        },
        ..owned(
            "calls_fib",
            r#"
int fib(int n)
{
    if (n < 2)
        return n;
    return fib(n - 1) + fib(n - 2);
}
void run(int n, float *out)
{
    out[0] = (float) fib(n);
    out[1] = (float) fib(n - 3);
}
"#,
        )
    }
}

/// Branch- and integer-heavy: `while`/`if` chains over an int array, no
/// counted `for` loop and no float arithmetic.
pub fn branch_sieve() -> App {
    App {
        footprint: |n| 4 * (n as u64 + 1) + 64,
        setup: |m, n| {
            Ok(vec![
                Value::I32(n as i32),
                alloc_bytes(m, &[0u8; 8])?,
                alloc_bytes(m, &vec![0u8; 4 * (n as usize + 1)])?,
            ])
        },
        outputs: |m, args, _| read_f32(m, args[1], 2),
        reference: |n| {
            let n = n as usize;
            let mut flags = vec![true; n + 1];
            let mut i = 2;
            while i * i <= n {
                if flags[i] {
                    let mut j = i * i;
                    while j <= n {
                        flags[j] = false;
                        j += i;
                    }
                }
                i += 1;
            }
            let (mut count, mut h) = (0i32, 7i32);
            for (i, _) in flags.iter().enumerate().skip(2).filter(|(_, &f)| f) {
                count += 1;
                h = (h * 31 + i as i32) % 1_000_003;
            }
            vec![count as f32, h as f32]
        },
        ..owned(
            "branch_sieve",
            r#"
void run(int n, float *out, int *flags)
{
    int i = 2;
    while (i <= n) {
        flags[i] = 1;
        i = i + 1;
    }
    i = 2;
    while (i * i <= n) {
        if (flags[i]) {
            int j = i * i;
            while (j <= n) {
                flags[j] = 0;
                j = j + i;
            }
        }
        i = i + 1;
    }
    int count = 0;
    int h = 7;
    i = 2;
    while (i <= n) {
        if (flags[i]) {
            count = count + 1;
            h = (h * 31 + i) % 1000003;
        }
        i = i + 1;
    }
    out[0] = (float) count;
    out[1] = (float) h;
}
"#,
        )
    }
}

// ---------------------------------------------------------- dev_kernels

fn xy_setup(m: &Machine, n: u32) -> IResult<Vec<Value>> {
    let n = n as usize;
    Ok(vec![
        Value::I32(n as i32),
        alloc_bytes(m, &patterned(n, &X_PATTERN))?,
        alloc_bytes(m, &patterned(n, &Y_PATTERN))?,
    ])
}

/// The paper's Fig. 3 scheme: a `target` region whose master thread runs
/// sequential code and hands stand-alone `parallel for` regions to the
/// worker warps through the shared-memory stack and named barriers.
pub fn mw_region() -> App {
    App {
        setup: xy_setup,
        outputs: |m, args, n| read_f32(m, args[2], n as usize),
        reference: |n| {
            (0..n as usize)
                .map(|i| {
                    let x = pattern_at(&X_PATTERN, i);
                    (0..MW_ROUNDS).fold(pattern_at(&Y_PATTERN, i), |y, r| 0.5 * y + x + r as f32)
                })
                .collect()
        },
        ..owned(
            "mw_region",
            r#"
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
"#,
        )
    }
}

// ---------------------------------------------------------- dev_runtime

/// Map/unmap cost with almost no kernel: two `n`-float arrays go up, one
/// comes back, and the kernel touches 1024 strided elements.
pub fn xfer_map() -> App {
    App {
        setup: xy_setup,
        outputs: |m, args, n| read_f32(m, args[2], n as usize),
        reference: |n| {
            let n = n as usize;
            let stride = n / TOUCHED;
            (0..n)
                .map(|i| {
                    let y = pattern_at(&Y_PATTERN, i);
                    if i % stride == 0 && i / stride < TOUCHED {
                        2.0 * pattern_at(&X_PATTERN, i) + y
                    } else {
                        y
                    }
                })
                .collect()
        },
        ..owned(
            "xfer_map",
            r#"
void run(int n, float *x, float *y)
{
    int stride = n / 1024;
    #pragma omp target teams distribute parallel for num_threads(256) \
            map(to: x[0:n]) map(tofrom: y[0:n])
    for (int i = 0; i < 1024; i++)
        y[i * stride] = 2.0f * x[i * stride] + y[i * stride];
}
"#,
        )
    }
}

/// `target update` cost: one resident array, sixteen host-edit → update-to
/// → small kernel → update-from round trips.
pub fn xfer_update() -> App {
    App {
        footprint: |n| 4 * n as u64,
        setup: |m, n| {
            Ok(vec![Value::I32(n as i32), alloc_bytes(m, &patterned(n as usize, &Y_PATTERN))?])
        },
        outputs: |m, args, n| read_f32(m, args[1], n as usize),
        reference: |n| {
            let mut v: Vec<f32> = (0..n as usize).map(|i| pattern_at(&Y_PATTERN, i)).collect();
            for r in 0..UPDATE_ROUNDS {
                v[r] += 1.0;
                for e in &mut v[..UPDATE_KERNEL_ELEMS] {
                    *e = *e * 1.5 + 1.0;
                }
            }
            v
        },
        ..owned(
            "xfer_update",
            r#"
void run(int n, float *v)
{
    #pragma omp target data map(tofrom: v[0:n])
    {
        for (int r = 0; r < 16; r++) {
            v[r] = v[r] + 1.0f;
            #pragma omp target update to(v[0:n])
            #pragma omp target teams distribute parallel for num_threads(256) \
                    map(tofrom: v[0:n])
            for (int i = 0; i < 256; i++)
                v[i] = v[i] * 1.5f + 1.0f;
            #pragma omp target update from(v[0:n])
        }
    }
}
"#,
        )
    }
}

/// One row-sliced mat-vec: every mapped array is indexed by the distributed
/// loop variable, so under a capped device arena the governor can tile the
/// whole region instead of falling back to the host.
pub fn row_matvec() -> App {
    App {
        footprint: |n| 4 * (n as u64 * n as u64 + 2 * n as u64),
        setup: |m, n| {
            let n = n as usize;
            Ok(vec![
                Value::I32(n as i32),
                alloc_bytes(m, &patterned(n * n, &Y_PATTERN))?,
                alloc_bytes(m, &patterned(n, &X_PATTERN))?,
                alloc_bytes(m, &vec![0u8; 4 * n])?,
            ])
        },
        outputs: |m, args, n| read_f32(m, args[3], n as usize),
        reference: |n| {
            let n = n as usize;
            (0..n)
                .map(|i| {
                    (0..n).fold(0.0f32, |t, j| {
                        t + pattern_at(&Y_PATTERN, i * n + j) * pattern_at(&X_PATTERN, j)
                    })
                })
                .collect()
        },
        ..owned(
            "row_matvec",
            r#"
void run(int n, float *a, float *x, float *y)
{
    #pragma omp target teams distribute parallel for num_threads(64) \
            map(to: a[0:n*n], x[0:n]) map(from: y[0:n])
    for (int i = 0; i < n; i++) {
        float t = 0.0f;
        for (int j = 0; j < n; j++)
            t += a[i * n + j] * x[j];
        y[i] = t;
    }
}
"#,
        )
    }
}

// --------------------------------------------------------- serve_closed

/// One tenant's job program: a small host loop, one offloaded region over
/// `n` floats, a host reduction. `c` makes the three tenants' programs (and
/// their kernel modules) distinct.
pub fn tenant_source(n: u32, c: u32) -> String {
    format!(
        r#"
int job(int k)
{{
    int n = {n};
    float x[{n}];
    for (int i = 0; i < n; i++) x[i] = (float) ((i + k) % 64);
    #pragma omp target teams distribute parallel for map(tofrom: x[0:n])
    for (int i = 0; i < n; i++)
        x[i] = 2.0f * x[i] + {c}.0f;
    int s = 0;
    for (int i = 0; i < n; i++) s = s + (int) x[i];
    return s;
}}
int main() {{ return job(0); }}
"#
    )
}

/// What `job(k)` of [`tenant_source`]`(n, c)` returns.
pub fn tenant_expected(n: u32, c: u32, k: i32) -> i32 {
    (0..n as i32).map(|i| 2 * ((i + k) % 64) + c as i32).sum()
}

/// A kernel with an empty body: what a launch costs before any warp runs.
pub const EMPTY_KERNEL_CU: &str = r#"
__global__ void empty_kernel(int n)
{
}
"#;
