#!/usr/bin/env sh
# Repo-wide quality gate: formatting, lints (warnings are errors), tests.
# Run from anywhere; operates on the workspace root.
set -eu

cd "$(dirname "$0")/.."

echo "== module size ratchet (core, obs, serve, gpusim, cudadev host/, minic execution engine, guest arena; 900 lines) =="
# The transform monolith was split into a pass pipeline; keep it split.
# The obs crate starts split (trace/metrics/profile/json, plus the PR-8
# flight recorder and hotspots modules, covered by the same find); keep
# it that way.
# The minic execution engine starts split too (interp machine / walker
# oracle / bytecode / compile/{mod,expr,specialize,loops,fuse} / vm{,/regs} / rt, plus the
# PR-9 guest resource governor and the fuzz generator); keep each layer
# under the cap rather than letting the VM regrow into a monolith. (The parser
# predates the ratchet and is exempt until it gets the same treatment.)
# gpusim's warp interpreter was split on its seams (warp/{mod,alu,mem,frames}.rs:
# control flow, lane arithmetic, memory + coalescing, calls + waits); keep
# it split.
# cudadev's host submodules (governor, recovery, stream, transfer) joined
# when the transfer path moved out of the governor; host.rs itself is still
# exempt. minic's program image (image.rs) and vmcommon's guest arena
# (mem.rs) joined when a job became an instance of a shared image.
minic_engine="
crates/minic/src/image.rs
crates/minic/src/interp.rs
crates/minic/src/walker.rs
crates/minic/src/bytecode.rs
crates/minic/src/compile/mod.rs
crates/minic/src/compile/expr.rs
crates/minic/src/compile/specialize.rs
crates/minic/src/compile/loops.rs
crates/minic/src/compile/fuse.rs
crates/minic/src/vm.rs
crates/minic/src/vm/regs.rs
crates/minic/src/rt.rs
crates/minic/src/limits.rs
crates/minic/src/fuzzgen.rs
crates/vmcommon/src/mem.rs
"
oversized=0
for f in $(find crates/core/src crates/obs/src crates/serve/src crates/gpusim/src \
    crates/cudadev/src/host -name '*.rs') $minic_engine; do
    lines=$(wc -l < "$f")
    if [ "$lines" -gt 900 ]; then
        echo "FAIL: $f has $lines lines (limit 900)"
        oversized=1
    fi
done
[ "$oversized" -eq 0 ] || exit 1

echo "== environment access (config.rs reads OMP_NUM_THREADS; tests/env_reads.rs is the tier-1 twin) =="
# Configuration is RunnerConfig (and fig4's flags, which set it). The one
# environment read under crates/*/src, fig4 included, is the OpenMP
# specification's initializer of nthreads-var; the OMPI_* second spellings
# of config fields and their precedence layer stay deleted. (The fuzz
# harness's OMPI_FUZZ_* variables live in crates/minic/tests.)
if grep -rnE 'env::var|var_os|set_var|remove_var' crates/*/src --include='*.rs' \
    | grep -v '^crates/core/src/runner/config.rs:[0-9]*: .*env::var("OMP_NUM_THREADS")'; then
    echo "FAIL: take the value from RunnerConfig; only config.rs reads OMP_NUM_THREADS"
    exit 1
fi
if grep -rn 'OMPI_' crates/*/src src examples; then
    echo "FAIL: the library has no OMPI_* variables; configure through RunnerConfig or fig4's flags"
    exit 1
fi
if grep -rnwE 'resolve_cuda|or_env|env_size|env_bool|env_ms|env_int|parse_bool' \
    crates/*/src src tests examples --include='*.rs'; then
    echo "FAIL: the env precedence layer stays deleted"
    exit 1
fi

echo "== warp threads (one cooperative scheduler; std::thread::scope only in crates/gpusim/src/launch.rs) =="
# Block workers only: every block's warps run on its worker's thread, so
# launch.rs is the one place gpusim spawns, and nothing spawns per warp.
if grep -rn 'thread::scope' crates/gpusim/src --include='*.rs' \
    | grep -v '^crates/gpusim/src/launch.rs:'; then
    echo "FAIL: gpusim spawns threads only in launch.rs"
    exit 1
fi
if grep -rn 'thread::spawn' crates/gpusim/src --include='*.rs'; then
    echo "FAIL: gpusim spawns no thread but its block workers"
    exit 1
fi
# The thread-per-warp path and its machinery stay deleted: the condvar
# barrier and its host timeout, the block abort, the wait classifier.
if grep -rnE 'NamedBarrier|BARRIER_HOST_TIMEOUT|BlockAborted|can_wait|may_wait|inline_warps|Condvar' \
    crates/gpusim/src crates/cudadev/src --include='*.rs'; then
    echo "FAIL: warps yield to the block's scheduler; they do not park host threads"
    exit 1
fi

echo "== gpusim stays safe Rust (#![forbid(unsafe_code)] in its lib.rs) =="
# The lowering's folds and the warp-wide lane loops are plain safe code;
# a speed-up that needs unsafe is out of bounds for the simulator.
if ! grep -qx '#!\[forbid(unsafe_code)\]' crates/gpusim/src/lib.rs; then
    echo "FAIL: crates/gpusim/src/lib.rs must keep #![forbid(unsafe_code)]"
    exit 1
fi

echo "== warp programs (the tree walk is a test oracle; costs are attached when lowering) =="
# gpusim lowers each function once (crates/gpusim/src/program.rs) and warps
# step the flat ops; the structured walk survives only as the control-flow
# oracle under warp/tests/, and no step re-derives an instruction's cost.
if grep -rnE 'exec_nodes|FlowMasks|fn exec_inst' crates/gpusim/src --include='*.rs' \
    | grep -v '^crates/gpusim/src/warp/tests/'; then
    echo "FAIL: the structured tree walk belongs to the tests in crates/gpusim/src/warp/tests/"
    exit 1
fi
if grep -rn 'inst_cost(' crates src tests --include='*.rs' \
    | grep -v -e '^crates/gpusim/src/program.rs:' -e '^crates/gpusim/src/timing.rs:' \
        -e '^crates/gpusim/src/warp/tests'; then
    echo "FAIL: timing::inst_cost is called by the lowering (and tests) only"
    exit 1
fi

echo "== transfer reuse is an exact compare (no content hash in crates/cudadev/src) =="
if grep -rnE 'fnv64|synced_hash' crates/cudadev/src --include='*.rs'; then
    echo "FAIL: transfer reuse compares the device and host ranges, it does not hash them"
    exit 1
fi

echo "== guest arenas and program images (one allocator, one compile site, no AST clones) =="
# MemArena chooses heap or anonymous mapping by size in one place; a host
# program compiles once, in its shared minic::Image; a runner instantiates
# the image and never copies the program.
if grep -rnE 'alloc_zeroed|fn mmap|fn munmap' crates src tests examples --include='*.rs' \
    | grep -v '^crates/vmcommon/src/mem.rs:'; then
    echo "FAIL: guest memory is allocated by MemArena::new (crates/vmcommon/src/mem.rs) only"
    exit 1
fi
if grep -rn 'compile::compile(' crates src tests examples --include='*.rs' \
    | grep -v '^crates/minic/src/image.rs:'; then
    echo "FAIL: minic::compile::compile is called by Image::compiled only"
    exit 1
fi
if grep -rnE 'host(_info)?\.clone\(\)' crates/core/src/runner; then
    echo "FAIL: runners instantiate the shared image; they do not clone the host program"
    exit 1
fi

echo "== one way to build a runner (Runner::new, Runner::on; one app type; one fault-plan source) =="
# Both app kinds are a CompiledApp (a CUDA baseline has a cuda_module), a
# runner is built by Runner::new or viewed over a registry by Runner::on,
# and a fault plan comes from RunnerConfig::fault_spec text only.
if grep -rnwE 'new_cuda|with_shared_registry|CompiledCudaApp|fault_env' \
    crates src tests examples --include='*.rs'; then
    echo "FAIL: the collapsed runner constructors, app type and fault-plan source stay deleted"
    exit 1
fi

echo "== one device type (the registry holds CudaDevs; the initial device is None) =="
# cudadev is the device module: the registry resolves a device number to an
# Arc<CudaDev>, or to None for the initial device, whose regions run their
# host fallback body. No trait object or host-device stand-in sits between.
if grep -rnwE 'DeviceModule|DeviceKind|HostDevice' crates src tests examples --include='*.rs'; then
    echo "FAIL: the device-module trait and the host-device shim stay deleted"
    exit 1
fi

echo "== one host engine (Interp is the VM; tests build the walker oracle directly) =="
# Production runs every guest call on the bytecode VM; the tree walker is a
# reference implementation that only tests construct, so no engine switch
# or enum arm may bring it back into the production build.
if grep -rnE 'set_engine|Engine::Vm|Engine::Walker|Interp::Walker' \
    crates src tests examples --include='*.rs'; then
    echo "FAIL: the engine selector stays deleted; tests build TreeWalker::new directly"
    exit 1
fi

echo "== split register file (no Value-typed register stack in crates/minic/src/vm.rs) =="
# The VM keeps 64-bit payloads and 1-byte tags in two parallel arrays: a
# register read as a 16-byte Value waits for the two narrower stores that
# wrote it, because the core cannot forward from them. Argument packs that
# hand &[Value] to builtins and hooks are not registers and stay allowed.
regfile=$(awk '/^pub struct Interp \{/,/^\}/; /^    fn (run|new_frame)\(/,/\) -> /' \
    crates/minic/src/vm.rs)
for item in 'pub struct Interp' 'fn run(' 'fn new_frame('; do
    case "$regfile" in
    *"$item"*) ;;
    *) echo "FAIL: the register-file guard cannot find \`$item\` in crates/minic/src/vm.rs"; exit 1 ;;
    esac
done
if printf '%s\n' "$regfile" | grep -n 'Vec<Value>'; then
    echo "FAIL: Interp, run and new_frame hold registers as payload and tag arrays, not Vec<Value>"
    exit 1
fi

echo "== one measuring harness (the repo benchmark, fig4 and the tests) =="
# Wall time per layer is the benchmark's, the paper's simulated numbers are
# fig4's, behaviour is the tests'. The stopwatch benches, the second soak
# driver and unibench's positional variant builders stay deleted.
if grep -rnE 'crates/[a-z]+/benches|serve_soak|fn timeit|build_variant_obs|fn build_variant\(' \
    crates src tests examples .github; then
    echo "FAIL: measure in benchmark/, fig4 or a test; build variants with build_variant_cfg"
    exit 1
fi

echo "== every Fig. 4 number is simulated (no launch estimator, one fig4 mode) =="
# A launch is always simulated: the estimator's history stays deleted, the
# refused RunnerConfig::launch_sampling field lives only where it is
# refused, block sampling (ExecMode::Sampled) only in gpusim, and fig4 has
# no switch back to a sampled run. (benchmark/ still spells both names
# until its next definition change.)
if grep -rnI --exclude-dir=target 'launch_hist' crates src tests examples benchmark .github; then
    echo "FAIL: launches are simulated, not estimated from a launch history"
    exit 1
fi
if grep -rn 'launch_sampling' crates src tests examples .github \
    | grep -v -e '^crates/core/src/runner/mod.rs:' -e '^crates/core/src/runner/config.rs:'; then
    echo "FAIL: launch_sampling is a refused RunnerConfig field; nothing else may name it"
    exit 1
fi
if grep -rn 'Sampled {' crates src tests examples .github | grep -v '^crates/gpusim/src/'; then
    echo "FAIL: fig4, the tests and the examples run ExecMode::Functional"
    exit 1
fi
if grep -rnE -- '--full|--max-blocks' crates/unibench/src/bin README.md .github/workflows/ci.yml; then
    echo "FAIL: fig4 has one execution mode"
    exit 1
fi

echo "== one driver copy per transfer (no staging rung, one copy path) =="
# Every host<->device copy, the CUDA baseline's included, is one retried
# driver copy booked by cudadev's transfer path. (benchmark/ keeps its
# always-zero pressure.stage slot until its next definition change.)
if grep -rnIE --exclude-dir=target 'staging_bytes|staged_chunks|fn stage\(|record_memcpy' \
    crates src tests examples .github; then
    echo "FAIL: copies are not chunked; cudaMemcpy goes through CudaDev::h2d_copy/d2h_copy"
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace) =="
cargo test --workspace --quiet

echo "All checks passed."
