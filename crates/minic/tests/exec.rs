//! Host-execution semantics, run on BOTH engines (bytecode VM and the
//! tree-walking oracle). Every case asserts the same result for each
//! engine, so this suite is also a fine-grained differential harness for
//! the compiler/VM against the executable specification.

use std::sync::Arc;

use minic::interp::{HookCtx, Hooks, IResult, Interp, InterpError, Machine, NoHooks};
use minic::walker::TreeWalker;
use vmcommon::Value;

/// A fresh execution context over a machine, as a guest-call closure.
type Ctx = Box<dyn FnMut(&str, &[Value]) -> IResult<Value>>;

/// Builds one engine's [`Ctx`]; the first on a machine runs its global
/// initializers.
type Build = fn(Arc<Machine>, Arc<dyn Hooks>) -> IResult<Ctx>;

fn vm(m: Arc<Machine>, hooks: Arc<dyn Hooks>) -> IResult<Ctx> {
    let mut i = Interp::new(m, hooks)?;
    Ok(Box::new(move |name, args| i.call(name, args)))
}

fn walker(m: Arc<Machine>, hooks: Arc<dyn Hooks>) -> IResult<Ctx> {
    let mut w = TreeWalker::new(m, hooks)?;
    Ok(Box::new(move |name, args| w.call(name, args)))
}

const ENGINES: [(&str, Build); 2] = [("vm", vm), ("walker", walker)];

/// Run `main` under one engine on a fresh machine.
fn run_on(build: Build, src: &str) -> (Arc<Machine>, Value) {
    let m = Machine::from_source(src).unwrap();
    let mut i = build(m.clone(), Arc::new(NoHooks)).unwrap();
    let v = i("main", &[]).unwrap();
    (m, v)
}

/// Assert `main` returns `want` and prints `out` under both engines.
fn check(src: &str, want: Value, out: &str) {
    for (e, build) in ENGINES {
        let (m, v) = run_on(build, src);
        assert_eq!(v, want, "return value under {e}");
        assert_eq!(m.take_output(), out, "output under {e}");
    }
}

fn check_ret(src: &str, want: i32) {
    check(src, Value::I32(want), "");
}

/// Assert `main` fails with the SAME error string under both engines.
fn check_err(src: &str) {
    let mut msgs = Vec::new();
    for (_, build) in ENGINES {
        let m = Machine::from_source(src).unwrap();
        let mut i = build(m, Arc::new(NoHooks)).unwrap();
        msgs.push(i("main", &[]).unwrap_err().to_string());
    }
    assert_eq!(msgs[0], msgs[1], "vm and walker error messages differ");
}

#[test]
fn arithmetic_and_control_flow() {
    check_ret("int main() { int s = 0; for (int i = 1; i <= 10; i++) s += i; return s; }", 55);
}

#[test]
fn while_break_continue() {
    check_ret(
        "int main() { int s = 0; int i = 0; while (1) { i++; if (i > 10) break; if (i % 2) continue; s += i; } return s; }",
        30,
    );
}

#[test]
fn do_while() {
    check_ret(
        "int main() { int s = 0; int i = 0; do { s += i; i++; } while (i < 5); return s; }",
        10,
    );
}

#[test]
fn functions_and_recursion() {
    check_ret(
        "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main() { return fib(10); }",
        55,
    );
}

#[test]
fn arrays_pointers_addressof() {
    check_ret(
        r#"
void twice(int *p) { *p = *p * 2; }
int main() {
    int a[4];
    for (int i = 0; i < 4; i++) a[i] = i + 1;
    twice(&a[2]);
    int *p = a;
    return p[0] + p[1] + p[2] + p[3];
}
"#,
        1 + 2 + 6 + 4,
    );
}

#[test]
fn two_d_arrays() {
    check_ret(
        r#"
int main() {
    int m[3][4];
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 4; j++)
            m[i][j] = i * 10 + j;
    return m[2][3];
}
"#,
        23,
    );
}

#[test]
fn vla_param_indexing() {
    check_ret(
        r#"
int get(int n, int a[n][n], int i, int j) { return a[i][j]; }
int main() {
    int m[3][3];
    m[1][2] = 42;
    return get(3, m, 1, 2);
}
"#,
        42,
    );
}

#[test]
fn float_precision_f32() {
    // f32 arithmetic must round to single precision.
    check_ret("int main() { float a = 16777216.0f; float b = a + 1.0f; return b == a; }", 1);
}

#[test]
fn fma_shape_rounds_in_two_steps() {
    // `acc += a * b` must round the product, then the sum — not fuse into
    // one higher-precision step.
    check_ret(
        r#"
int main() {
    float acc = 16777216.0f;
    float a = 0.5f;
    float b = 1.0f;
    acc += a * b;
    return acc == 16777216.0f;
}
"#,
        1,
    );
}

#[test]
fn printf_capture() {
    check(
        r#"int main() { printf("x=%d y=%5.2f %s\n", 3, 1.5, "hi"); return 0; }"#,
        Value::I32(0),
        "x=3 y= 1.50 hi\n",
    );
}

#[test]
fn printf_surplus_args_not_evaluated() {
    // The zip against the conversion list means g() must never run.
    check(
        r#"
int g() { printf("BOOM"); return 1; }
int main() { printf("n=%d\n", 7, g()); return 0; }
"#,
        Value::I32(0),
        "n=7\n",
    );
}

#[test]
fn malloc_free() {
    check_ret(
        r#"
int main() {
    float *p = (float *) malloc(16 * sizeof(float));
    for (int i = 0; i < 16; i++) p[i] = (float) i;
    float s = 0.0f;
    for (int i = 0; i < 16; i++) s += p[i];
    free(p);
    return (int) s;
}
"#,
        120,
    );
}

#[test]
fn globals_with_initializers() {
    check_ret("int g = 7; int arr[3] = {1, 2, 3}; int main() { return g + arr[1]; }", 9);
}

#[test]
fn ternary_and_logical() {
    check_ret(
        "int main() { int a = 5; int b = 3; return (a > b ? a : b) + (a && b) + (0 || 0); }",
        6,
    );
}

#[test]
fn short_circuit_skips_side_effects() {
    check(
        r#"
int noisy() { printf("x"); return 1; }
int main() {
    int a = 0 && noisy();
    int b = 1 || noisy();
    return a + b;
}
"#,
        Value::I32(1),
        "",
    );
}

#[test]
fn pointer_arithmetic_strided() {
    check_ret(
        r#"
int main() {
    double d[4];
    d[0] = 1.5; d[1] = 2.5; d[2] = 3.5; d[3] = 4.5;
    double *p = d + 1;
    p++;
    return (int)(*p * 2.0);
}
"#,
        7,
    );
}

#[test]
fn pointer_difference() {
    check_ret(
        r#"
int main() {
    double d[8];
    double *a = d + 1;
    double *b = d + 6;
    return (int)(b - a);
}
"#,
        5,
    );
}

#[test]
fn compound_assign_through_pointer() {
    check_ret(
        r#"
int main() {
    int a[3];
    a[0] = 1; a[1] = 2; a[2] = 3;
    int *p = a + 1;
    *p *= 10;
    p[1] += 5;
    return a[0] + a[1] + a[2];
}
"#,
        1 + 20 + 8,
    );
}

#[test]
fn incdec_pre_post() {
    check_ret(
        r#"
int main() {
    int i = 5;
    int a = i++;
    int b = ++i;
    int c = i--;
    int d = --i;
    return a * 1000 + b * 100 + c * 10 + d;
}
"#,
        5 * 1000 + 7 * 100 + 7 * 10 + 5,
    );
}

#[test]
fn char_narrowing() {
    check_ret("int main() { char c = 300; return c; }", 44);
}

#[test]
fn comma_and_casts() {
    check_ret("int main() { int x = (1, 2, 3); double d = 7.9; return x + (int)d; }", 10);
}

#[test]
fn omp_pragmas_ignored_sequentially() {
    // Directly executing an OpenMP program = 1-thread semantics.
    check_ret(
        r#"
int main() {
    int s = 0;
    #pragma omp parallel for reduction(+: s)
    for (int i = 0; i < 10; i++)
        s += i;
    return s;
}
"#,
        45,
    );
}

#[test]
fn evaluation_order_lvalue_before_rhs() {
    check(
        r#"
int idx() { printf("i"); return 1; }
int val() { printf("v"); return 9; }
int main() {
    int a[2];
    a[0] = 0; a[1] = 0;
    a[idx()] = val();
    return a[1];
}
"#,
        Value::I32(9),
        "iv",
    );
}

#[test]
fn null_deref_traps() {
    check_err("int main() { int *p = (int*)0; return *p; }");
}

#[test]
fn null_index_traps() {
    check_err("int main() { int *p = (int*)0; return p[3]; }");
}

#[test]
fn division_by_zero_traps() {
    check_err("int main() { int z = 0; return 4 / z; }");
}

#[test]
fn deep_recursion_traps() {
    // The VM runs guest calls on an explicit frame stack and traps within
    // any host thread; the walker oracle recurses on the host stack, whose
    // unoptimized frames outgrow the default 2 MiB test thread before the
    // guest's 200-frame limit — give the comparison room.
    std::thread::Builder::new()
        .stack_size(32 << 20)
        .spawn(|| check_err("int f(int n) { return f(n + 1); } int main() { return f(0); }"))
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn unknown_function_traps() {
    check_err("int main() { return nosuchfn(1); }");
}

#[test]
fn negative_vla_extent_traps() {
    check_err("int main() { int n = -3; return (int)sizeof(int[n]); }");
}

#[test]
fn hooks_receive_unknown_calls() {
    struct H;
    impl Hooks for H {
        fn call(&self, name: &str, args: &[Value], _ctx: &HookCtx<'_>) -> IResult<Option<Value>> {
            if name == "magic" {
                Ok(Some(Value::I32(args[0].as_i32() * 10)))
            } else {
                Ok(None)
            }
        }
    }
    for (_, build) in ENGINES {
        let m = Machine::from_source("int main() { return magic(4); }").unwrap();
        let mut i = build(m, Arc::new(H)).unwrap();
        assert_eq!(i("main", &[]).unwrap(), Value::I32(40));
    }
}

#[test]
fn hook_can_reenter_guest() {
    struct H;
    impl Hooks for H {
        fn call(&self, name: &str, _args: &[Value], ctx: &HookCtx<'_>) -> IResult<Option<Value>> {
            if name == "call_twice" {
                let a = ctx.call_guest("work", &[Value::I32(1)])?;
                let b = ctx.call_guest("work", &[Value::I32(2)])?;
                Ok(Some(Value::I32(a.as_i32() + b.as_i32())))
            } else {
                Ok(None)
            }
        }
    }
    for (_, build) in ENGINES {
        let m = Machine::from_source(
            "int work(int x) { return x * 100; } int main() { return call_twice(); }",
        )
        .unwrap();
        let mut i = build(m, Arc::new(H)).unwrap();
        assert_eq!(i("main", &[]).unwrap(), Value::I32(300));
    }
}

#[test]
fn dim3_variables() {
    check_ret("int main() { dim3 b(32, 8); return b.x + b.y + b.z; }", 41);
}

#[test]
fn concurrent_interps_share_memory() {
    for (_, build) in ENGINES {
        let m = Machine::from_source(
            "int counter; void bump() { counter = counter + 1; } int main() { return 0; }",
        )
        .unwrap();
        let g = m.image().global_addr("counter").unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    let mut i = build(m, Arc::new(NoHooks)).unwrap();
                    i("bump", &[]).unwrap();
                });
            }
        });
        // At least one bump landed; memory is shared and valid.
        let v = m.mem.load_u32(vmcommon::addr::offset(g)).unwrap();
        assert!((1..=4).contains(&v));
    }
}

#[test]
fn string_literal_in_a_global_initializer() {
    check_ret(r#"char *msg = "hello"; int main() { return msg[1]; }"#, 'e' as i32);
}

#[test]
fn globals_larger_than_the_arena_are_a_typed_error() {
    // 4 MiB of globals in a 1 MiB arena: debug builds used to panic on
    // the heap-size subtraction, release builds wrapped it and put the heap
    // past the arena end.
    let src = "float big[1048576]; int main() { return 0; }";
    match Machine::from_source_with_mem(src, 1 << 20).err().expect("must fail") {
        InterpError::ArenaTooSmall { needed, arena } => {
            assert_eq!((needed, arena), (256 + (4 << 20), 1 << 20));
        }
        other => panic!("expected ArenaTooSmall, got {other}"),
    }
}

#[test]
fn sizeof_expressions() {
    check_ret(
        "int main() { float x[10]; return (int)(sizeof(x) + sizeof(long) + sizeof(float*)); }",
        40 + 8 + 8,
    );
}

/// Assert `main` fails with EXACTLY `want` under both engines, after
/// `configure` has set the governor limits on the fresh machine. Limit
/// traps are part of the engine contract: the message names only the
/// configured ceiling (never a consumed count), so both engines must
/// produce it byte for byte even though they meter at different
/// granularities.
fn check_limit_err(src: &str, configure: fn(&Machine), want: &str) {
    for (e, build) in ENGINES {
        let m = Machine::from_source(src).unwrap();
        configure(&m);
        let mut i = build(m, Arc::new(NoHooks)).unwrap();
        let got = i("main", &[]).unwrap_err().to_string();
        assert_eq!(got, want, "limit trap under {e}");
    }
}

#[test]
fn fuel_exhaustion_message_is_engine_identical() {
    check_limit_err(
        "int main() { int i = 0; while (1) { i = i + 1; } return i; }",
        |m| m.limits().set_fuel(Some(5000)),
        "guest limit: guest fuel exhausted (budget 5000 instructions)",
    );
}

#[test]
fn stack_limit_message_is_engine_identical() {
    // A host thread big enough for the walker to recurse 25 guest frames
    // is the default test stack; no spawn needed at this shallow limit.
    check_limit_err(
        "int f(int n) { return f(n + 1); } int main() { return f(0); }",
        |m| m.limits().set_stack_limit(25),
        "guest limit: guest stack overflow (recursion deeper than 25 frames)",
    );
}

#[test]
fn guest_mem_limit_message_is_engine_identical() {
    // Leak allocations until the governor's ceiling trips; the ceiling is
    // far below the heap arena, so only the governor can be the trapper.
    check_limit_err(
        "int main() { while (1) { void* p = malloc(4096); } return 0; }",
        |m| m.limits().set_mem_limit(Some(65536)),
        "guest limit: guest memory limit exceeded (65536-byte ceiling)",
    );
}

/// A global initializer that fails (here: runs out of fuel) leaves the
/// globals partly written. The failing call reports the fuel error; every
/// later call on that machine must be the typed `InitFailed`, never a run
/// on the zeroed global.
#[test]
fn failed_global_initializer_poisons_the_machine() {
    let src = "int spin() { while (1); return 1; } int g = spin(); int main() { return g; }";
    for (e, build) in ENGINES {
        let m = Machine::from_source(src).unwrap();
        m.limits().set_fuel(Some(50_000));
        let first = build(m.clone(), Arc::new(NoHooks)).and_then(|mut i| i("main", &[]));
        assert_eq!(
            first.unwrap_err().to_string(),
            "guest limit: guest fuel exhausted (budget 50000 instructions)",
            "first call under {e}"
        );
        m.limits().set_fuel(None);
        for call in 2..4 {
            let later = build(m.clone(), Arc::new(NoHooks)).and_then(|mut i| i("main", &[]));
            assert!(
                matches!(later, Err(InterpError::InitFailed)),
                "call {call} under {e} must be InitFailed, got {later:?}"
            );
        }
    }
}

#[test]
fn frontend_errors_are_typed() {
    // Satellite fix: parse/sema failures surface stage + position instead
    // of a flattened trap string.
    let e = Machine::from_source("int main() { return 1 +; }").err().expect("must fail");
    let s = e.to_string();
    assert!(s.starts_with("parse error at 1:"), "got: {s}");
    let e = Machine::from_source("int main() { return nope; }x").err().expect("must fail");
    assert!(e.to_string().contains("error at"), "got: {e}");
    match Machine::from_source(
        "int f() { return 0; } int f(int x) { return x; } int main() { int y = f(1); return y; }",
    ) {
        Ok(_) => {}
        Err(e) => panic!("shadowed redefinition should still load: {e}"),
    }
}

// Address arithmetic wraps in 64 bits, as in the C the guest was written
// in: `2^62 * sizeof(int)` is 0. Debug builds used to panic the host with
// "attempt to multiply with overflow" instead.

#[test]
fn huge_index_wraps_instead_of_panicking() {
    check_ret(
        r#"
int main() {
    int a[4];
    a[0] = 5;
    long i = 1073741824;
    i = i * 1073741824 * 4;
    return a[i];
}
"#,
        5,
    );
}

#[test]
fn huge_pointer_offset_wraps() {
    check_ret(
        r#"
int main() {
    int a[4];
    int *p = a;
    long i = 1073741824;
    i = i * 1073741824 * 4;
    p = p + i;
    int *q = i + p;
    p = p - i;
    return (p == a) + (q == a) * 2;
}
"#,
        3,
    );
}

#[test]
fn pointer_difference_wraps() {
    // (2^62 - (-2^62)) overflows i64 to -2^63; / 4 = -2^61.
    check_ret(
        r#"
int main() {
    long h = 1073741824;
    h = h * 1073741824 * 4;
    int *p = (int *) h;
    int *q = (int *) (-h);
    return (int) ((p - q) % 1000);
}
"#,
        -952,
    );
}

// Shapes the VM's specialisation pass must leave generic, or whose typed
// form must wrap exactly like `apply_binop`.

#[test]
fn char_increment_narrows() {
    check_ret(
        "int main() { char c = 127; c++; char d = -128; d--; return c * 1000 + d; }",
        -128 * 1000 + 127,
    );
}

#[test]
fn int_increment_wraps_at_int_max() {
    check_ret(
        r#"
int main() {
    int i = 2147483647;
    i++;
    int j = 2147483647;
    j = j + 1;
    int k = -2147483647 - 1;
    k--;
    int m = 2147483647;
    m += 1;
    return (i == j) + (k == 2147483647) * 2 + (m == i) * 4 + (i < 0) * 8;
}
"#,
        15,
    );
}

#[test]
fn mixed_tag_ternary_in_arithmetic() {
    // The ternary's tag is decided at run time: I32(1) / 2 is integer
    // division, F64(2.5) / 2 is not.
    check_ret(
        r#"
int main() {
    int c = 1;
    int d = 0;
    double x = (c ? 1 : 2.5) / 2;
    double y = (d ? 1 : 2.5) / 2;
    float f = (c ? 3 : 0.5f) * 2;
    return (int) (x * 100) + (int) (y * 100) * 1000 + (int) f * 1000000;
}
"#,
        125_000 + 6_000_000,
    );
}

#[test]
fn long_loop_counters() {
    check_ret(
        r#"
int main() {
    long s = 0;
    for (long i = 0; i < 100; i++)
        s += i;
    long j = 2147483647;
    j++;
    return (int) (s + (j > 2147483647) * 100000);
}
"#,
        4950 + 100_000,
    );
}

#[test]
fn float_compared_with_long() {
    check_ret(
        r#"
int main() {
    float f = 2.5f;
    long l = 2;
    int n = 0;
    if (f > l) n += 1;
    if (l < f) n += 2;
    while (f < l + 3) {
        f = f + 1.0f;
        n += 4;
    }
    float z = 0.0f;
    float q = z / z;
    if (q < 1.0f) n += 100;
    if (q != q) n += 1000;
    if (!(q >= 1.0f)) n += 10000;
    return n;
}
"#,
        3 + 3 * 4 + 1000 + 10000,
    );
}

#[test]
fn division_by_zero_inside_a_specialised_loop() {
    let src = r#"
int main() {
    int s = 0;
    for (int i = 0; i < 10; i++) {
        s = s + i * 3;
        s = s + 100 / (5 - i);
    }
    return s;
}
"#;
    check_err(src);
    let m = Machine::from_source(src).unwrap();
    let err = Interp::new(m, Arc::new(NoHooks)).unwrap().run_main().unwrap_err();
    assert_eq!(err.to_string(), "trap: integer division by zero");
}
