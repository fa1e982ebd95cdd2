//! Can a kernel make one warp wait for a sibling warp of its block?
//!
//! A [`crate::Program`] asks this once per kernel, when it lowers the
//! module: a kernel that cannot wait needs no concurrency between its
//! warps, so each block's warps run one after another on the block worker's
//! thread (see [`crate::launch`]). The answer is a property of the code
//! alone.

use sptx::{AtomOp, Inst};

use crate::warp::DeviceLib;

/// Walk the call graph from `entry` and report whether it reaches anything
/// a warp can block on until a sibling acts:
///
/// * a `bar.sync`;
/// * an `atom.cas` or `atom.exch` — how a hand-written lock or flag hand-off
///   is spelled: the warp that loses spins until the holder, a sibling,
///   stores again;
/// * a library call the device library declares blocking
///   ([`DeviceLib::may_wait`]).
///
/// Everything else (ALU, `ld`/`st`, the fetch-and-op atomics) completes on
/// its own. A function index out of range is not followed: executing the
/// call traps.
pub fn can_wait(module: &sptx::Module, entry: u32, lib: &dyn DeviceLib) -> bool {
    let mut seen = vec![false; module.functions.len()];
    let mut todo = vec![entry];
    let mut waits = false;
    while let Some(f) = todo.pop() {
        let Some(func) = module.functions.get(f as usize) else { continue };
        if std::mem::replace(&mut seen[f as usize], true) {
            continue;
        }
        sptx::visit_insts(&func.body, &mut |i| match i {
            Inst::BarSync { .. }
            | Inst::AtomCas { .. }
            | Inst::Atom { op: AtomOp::CasB32 | AtomOp::ExchB32, .. } => waits = true,
            Inst::Intrinsic { name, .. } => waits |= lib.may_wait(name),
            Inst::Call { func, .. } => todo.push(*func),
            _ => {}
        });
        if waits {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::{LaneVec, NoLib, Warp};
    use crate::ExecError;
    use sptx::builder::{op, FnBuilder};
    use sptx::{BinOp, MemTy, ScalarTy, SpecialReg};

    fn module(functions: Vec<sptx::Function>) -> sptx::Module {
        sptx::Module {
            name: "waits".into(),
            arch: "sm_53".into(),
            functions,
            device_lib_linked: true,
        }
    }

    fn bar() -> Inst {
        Inst::BarSync { id: op::i(1), count: None }
    }

    /// A function whose body is `insts`.
    fn func(name: &str, insts: Vec<Inst>) -> sptx::Function {
        let mut b = FnBuilder::new(name, name == "k");
        for i in insts {
            b.emit(i);
        }
        b.build()
    }

    fn call(func: u32) -> Inst {
        Inst::Call { func, dst: None, args: vec![] }
    }

    fn intr(name: &str) -> Inst {
        Inst::Intrinsic { name: name.into(), dst: None, args: vec![], sargs: vec![] }
    }

    #[test]
    fn bar_sync_in_the_entry() {
        assert!(can_wait(&module(vec![func("k", vec![bar()])]), 0, &NoLib));
    }

    #[test]
    fn bar_sync_behind_two_calls() {
        let m = module(vec![
            func("k", vec![call(1)]),
            func("mid", vec![call(2)]),
            func("leaf", vec![bar()]),
            func("unreached", vec![]),
        ]);
        assert!(can_wait(&m, 0, &NoLib));
        // The same module entered below the barrier's callers.
        assert!(!can_wait(&m, 3, &NoLib));
    }

    #[test]
    fn bar_sync_inside_if_and_loop_bodies() {
        let mut in_else = FnBuilder::new("k", true);
        in_else.begin_if();
        in_else.begin_else();
        in_else.emit(bar());
        in_else.end_if_else(op::i(1));
        assert!(can_wait(&module(vec![in_else.build()]), 0, &NoLib));

        let mut in_loop = FnBuilder::new("k", true);
        in_loop.begin_loop();
        in_loop.begin_if();
        in_loop.emit(bar());
        in_loop.end_if(op::i(1));
        in_loop.brk();
        in_loop.end_loop();
        assert!(can_wait(&module(vec![in_loop.build()]), 0, &NoLib));
    }

    #[test]
    fn recursive_call_graphs_terminate() {
        let selfrec = module(vec![func("k", vec![call(0)])]);
        assert!(!can_wait(&selfrec, 0, &NoLib));

        let mutual = module(vec![
            func("k", vec![call(1)]),
            func("a", vec![call(2)]),
            func("b", vec![call(1), call(7)]),
        ]);
        assert!(!can_wait(&mutual, 0, &NoLib));

        let mutual_with_bar = module(vec![
            func("k", vec![call(1)]),
            func("a", vec![call(2)]),
            func("b", vec![call(1), bar()]),
        ]);
        assert!(can_wait(&mutual_with_bar, 0, &NoLib));
    }

    /// A library that declares `park` blocking and nothing else.
    struct Parks;

    impl DeviceLib for Parks {
        fn call(
            &self,
            name: &str,
            _warp: &mut Warp<'_>,
            _mask: u32,
            _args: &[LaneVec],
            _sargs: &[String],
        ) -> Result<Option<LaneVec>, ExecError> {
            Err(ExecError::UnknownIntrinsic(name.to_string()))
        }

        fn may_wait(&self, name: &str) -> bool {
            name == "park"
        }
    }

    #[test]
    fn blocking_intrinsic_is_the_librarys_word() {
        let parks = module(vec![func("k", vec![call(1)]), func("f", vec![intr("park")])]);
        assert!(can_wait(&parks, 0, &Parks));
        assert!(!can_wait(&parks, 0, &NoLib));
        let other = module(vec![func("k", vec![intr("omp_get_thread_num"), intr("printf")])]);
        assert!(!can_wait(&other, 0, &Parks));
    }

    #[test]
    fn cas_and_exch_count_as_waiting() {
        let mut cas = FnBuilder::new("k", true);
        let p = cas.param("p", ScalarTy::I64);
        let dst = cas.alloc();
        cas.emit(Inst::AtomCas { dst, addr: op::r(p), expected: op::i(0), new: op::i(1) });
        assert!(can_wait(&module(vec![cas.build()]), 0, &NoLib));

        let mut exch = FnBuilder::new("k", true);
        let p = exch.param("p", ScalarTy::I64);
        let dst = exch.alloc();
        exch.emit(Inst::Atom { op: AtomOp::ExchB32, dst, addr: op::r(p), val: op::i(1) });
        assert!(can_wait(&module(vec![exch.build()]), 0, &NoLib));
    }

    #[test]
    fn alu_memory_and_fetch_add_run_inline() {
        let mut b = FnBuilder::new("k", true);
        let p = b.param("p", ScalarTy::I64);
        let t = b.bin(ScalarTy::I32, BinOp::Add, op::sp(SpecialReg::TidX), op::i(1));
        let v = b.ld(MemTy::F32, op::r(p), 0);
        let s = b.bin(ScalarTy::F32, BinOp::Mul, op::r(v), op::f(2.0));
        b.st(MemTy::F32, op::r(s), op::r(p), 4);
        for (atom, val) in [(AtomOp::AddF32, op::r(s)), (AtomOp::AddI32, op::r(t))] {
            let dst = b.alloc();
            b.emit(Inst::Atom { op: atom, dst, addr: op::r(p), val });
        }
        assert!(!can_wait(&module(vec![b.build()]), 0, &NoLib));
    }
}
