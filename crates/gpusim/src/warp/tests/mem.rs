//! What a guest can observe of lane order in memory — faults, same-address
//! stores, float atomics — plus the coalescing model and call frames.

use std::collections::HashSet;

use sptx::{AtomOp, BinOp, Inst, MemTy, Node, Operand, Reg, ScalarTy, SpecialReg};
use vmcommon::addr::{self, Space};
use vmcommon::MemError;

use super::super::*;
use super::{exec, frame_fn, op_val, reg, reg_mut, sentinel, with_env, with_warp};
use super::{LOCAL_SIZE, MASKS, NUM_REGS};
use super::{R0, R1, R2};

fn global_addrs(base: u64) -> LaneVec {
    std::array::from_fn(|lane| base + 4 * lane as u64)
}

#[test]
fn a_faulting_access_reports_the_lowest_faulting_active_lane() {
    with_warp(sptx::Module::default(), |w| {
        let base = w.env.device.mem_alloc(256).unwrap();
        let off = addr::offset(base);
        let arena = w.env.device.global.size() as u64;
        let mut addrs = global_addrs(base);
        addrs[5] = base + 4 * 5 + 2; // misaligned
        addrs[9] = addr::make(Space::Global, arena); // out of bounds
        addrs[12] = addr::make(Space::Host, 64); // not a device space
        let ld = Inst::Ld { ty: MemTy::B32, dst: R2, addr: Operand::Reg(R0), offset: 0 };
        let st =
            Inst::St { ty: MemTy::B32, src: Operand::ImmI(1), addr: Operand::Reg(R0), offset: 0 };
        for inst in [ld, st] {
            let mut fault = |mask: u32| {
                *reg_mut(w, R0) = addrs;
                match exec(w, &inst, mask) {
                    Err(ExecError::Mem(e)) => Some(e),
                    Ok(_) => None,
                    Err(e) => panic!("{e}"),
                }
            };
            let (l5, l9, l12) = (1u32 << 5, 1u32 << 9, 1u32 << 12);
            assert_eq!(fault(u32::MAX), Some(MemError::Misaligned { offset: off + 22, align: 4 }));
            assert_eq!(fault(!l5), Some(MemError::OutOfBounds { offset: arena, size: 4 }));
            assert_eq!(fault(!(l5 | l9)), Some(MemError::BadSpace { addr: addrs[12] }));
            assert_eq!(fault(l12 | l9), Some(MemError::OutOfBounds { offset: arena, size: 4 }));
            assert_eq!(fault(!(l5 | l9 | l12)), None, "the faulting lanes are switched off");
        }
        // Atomics have no local-memory form.
        let atom = Inst::Atom {
            op: AtomOp::AddI32,
            dst: R2,
            addr: Operand::LocalBase,
            val: Operand::ImmI(1),
        };
        let err = exec(w, &atom, 1).unwrap_err();
        assert_eq!(err.to_string(), "device trap: atomic on local memory");
    });
}

#[test]
fn loads_fill_active_lanes_from_every_space() {
    with_warp(sptx::Module::default(), |w| {
        let base = w.env.device.mem_alloc(256).unwrap();
        for lane in 0..32u64 {
            w.env
                .device
                .global
                .store_u32(addr::offset(base) + 4 * lane, 1000 + lane as u32)
                .unwrap();
            w.env.ctx.shared.store_u64(8 * lane, 2000 + lane).unwrap();
        }
        w.local_stack.iter_mut().enumerate().for_each(|(i, b)| *b = i as u8);
        let shared: LaneVec =
            std::array::from_fn(|lane| addr::make(Space::Shared, 8 * lane as u64));
        for mask in MASKS {
            // Global b32 at `r0 + 4`, shared b64, the lane's own local byte 3.
            let lanes =
                |f: fn(u64) -> u64| -> LaneVec { std::array::from_fn(|lane| f(lane as u64)) };
            let cases = [
                (MemTy::F32, Operand::Reg(R0), 4, global_addrs(base - 4), lanes(|l| 1000 + l)),
                (MemTy::B64, Operand::Reg(R0), 0, shared, lanes(|l| 2000 + l)),
                (MemTy::B8, Operand::LocalBase, 3, [0; 32], lanes(|l| (l * LOCAL_SIZE + 3) & 0xff)),
            ];
            for (ty, addr, offset, r0, want) in cases {
                *reg_mut(w, R0) = r0;
                *reg_mut(w, R2) = sentinel();
                let inst = Inst::Ld { ty, dst: R2, addr, offset };
                exec(w, &inst, mask).unwrap();
                let mut expect = sentinel();
                alu::blend(&mut expect, &want, mask);
                assert_eq!(reg(w, R2), expect, "{ty:?} mask {mask:#x}");
            }
        }
    });
}

#[test]
fn of_two_lanes_storing_to_one_address_the_higher_lane_wins() {
    with_warp(sptx::Module::default(), |w| {
        let base = w.env.device.mem_alloc(64).unwrap();
        let inst = Inst::St {
            ty: MemTy::B32,
            src: Operand::Special(SpecialReg::LaneId),
            addr: Operand::ImmI(base as i64),
            offset: 0,
        };
        for mask in MASKS {
            exec(w, &inst, mask).unwrap();
            let got = w.env.device.global.load_u32(addr::offset(base)).unwrap();
            assert_eq!(got, 31 - mask.leading_zeros(), "mask {mask:#x}");
        }
    });
}

#[test]
fn float_atomic_add_accumulates_in_ascending_lane_order() {
    with_warp(sptx::Module::default(), |w| {
        let base = w.env.device.mem_alloc(64).unwrap();
        let word = addr::offset(base);
        // Magnitudes far enough apart that any other order rounds differently.
        let vals: [f32; 32] =
            std::array::from_fn(|lane| [1e8, 1.0, -1e8, 0.25, 3e-3, 7e5, -0.5, 1e-6][lane % 8]);
        let inst = Inst::Atom {
            op: AtomOp::AddF32,
            dst: R2,
            addr: Operand::ImmI(base as i64),
            val: Operand::Reg(R1),
        };
        for mask in MASKS {
            w.env.device.global.store_u32(word, 0.5f32.to_bits()).unwrap();
            *reg_mut(w, R1) = vals.map(|v| v.to_bits() as u64);
            *reg_mut(w, R2) = sentinel();
            exec(w, &inst, mask).unwrap();
            let mut acc = 0.5f32;
            for (lane, v) in vals.iter().enumerate() {
                if mask >> lane & 1 != 0 {
                    assert_eq!(reg(w, R2)[lane], acc.to_bits() as u64, "old value, lane {lane}");
                    acc += v;
                } else {
                    assert_eq!(reg(w, R2)[lane], sentinel()[lane]);
                }
            }
            assert_eq!(
                w.env.device.global.load_u32(word).unwrap(),
                acc.to_bits(),
                "mask {mask:#x}"
            );
        }
        let reversed = vals.iter().rev().fold(0.5f32, |acc, v| acc + v);
        let ascending = vals.iter().fold(0.5f32, |acc, v| acc + v);
        assert_ne!(reversed.to_bits(), ascending.to_bits(), "the values must tell orders apart");
    });
}

#[test]
fn coalescing_counts_distinct_global_segments() {
    with_warp(sptx::Module::default(), |w| {
        let g = |off: u64| addr::make(Space::Global, 4096 + off);
        let sh = |off: u64| addr::make(Space::Shared, off);
        let patterns: [(&str, LaneVec); 8] = [
            ("unit stride", std::array::from_fn(|l| g(4 * l as u64))),
            ("stride 32 B", std::array::from_fn(|l| g(32 * l as u64))),
            ("stride 12 B", std::array::from_fn(|l| g(12 * l as u64))),
            ("descending", std::array::from_fn(|l| g(4 * (31 - l) as u64))),
            ("permuted", std::array::from_fn(|l| g(4 * ((l * 13 + 5) % 32) as u64))),
            ("duplicated", std::array::from_fn(|l| g(64 * (l % 3) as u64))),
            ("one word", [g(100); 32]),
            (
                "mixed spaces",
                std::array::from_fn(
                    |l| if l % 3 == 0 { sh(8 * l as u64) } else { g(40 * l as u64) },
                ),
            ),
        ];
        for (name, addrs) in patterns {
            for mask in MASKS {
                let want: HashSet<u64> = iter_lanes(mask)
                    .map(|lane| addrs[lane as usize])
                    .filter(|&a| addr::space(a) == Some(Space::Global))
                    .map(|a| addr::offset(a) / timing::TRANSACTION_BYTES)
                    .collect();
                let first = addrs[mask.trailing_zeros() as usize];
                let lat = match addr::space(first) {
                    Some(Space::Global) => timing::GLOBAL_MEM_LAT,
                    _ => timing::SHARED_MEM_LAT,
                };
                let (tx, issue, clock) = (w.stats.mem_transactions, w.issue, w.clock);
                w.coalesce(&addrs, mask);
                let n = want.len() as u64;
                assert_eq!(w.stats.mem_transactions - tx, n, "{name} mask {mask:#x}");
                assert_eq!(w.issue - issue, n, "{name} mask {mask:#x}: one issue cycle each");
                assert_eq!(w.clock - clock, lat, "{name} mask {mask:#x}: first lane's space");
            }
        }
        // 32 consecutive words are 4 segments.
        let tx = w.stats.mem_transactions;
        w.coalesce(&global_addrs(g(0)), u32::MAX);
        assert_eq!(w.stats.mem_transactions - tx, 4);
        // A local access is charged the local latency and no transaction.
        let (tx, clock) = (w.stats.mem_transactions, w.clock);
        w.coalesce(&[addr::make(Space::Local, 0); 32], 0x10);
        assert_eq!((w.stats.mem_transactions - tx, w.clock - clock), (0, timing::LOCAL_MEM_LAT));
    });
}

// ------------------------------------------------------------------ shapes

/// What one access leaves behind: its result, the destination row, its
/// charges (transactions, issue, clock) and every byte of the three
/// memories.
type Access = (Result<(), String>, LaneVec, (u64, u64, u64), Vec<u8>);

/// Run `path` on patterned memory and a sentinel destination row.
fn access(w: &mut Warp<'_>, path: impl FnOnce(&mut Warp<'_>) -> Result<(), ExecError>) -> Access {
    let pattern = |n: usize, salt: u8| -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt)).collect()
    };
    let (global, shared) = (&w.env.device.global, &w.env.ctx.shared);
    global.write_bytes(0, &pattern(global.size(), 7)).unwrap();
    shared.write_bytes(0, &pattern(shared.size(), 11)).unwrap();
    w.local_stack = pattern(w.local_stack.len(), 13);
    *reg_mut(w, R2) = sentinel();
    let before = (w.stats.mem_transactions, w.issue, w.clock);
    let result = path(w).map_err(|e| e.to_string());
    let mut mem = vec![0u8; global.size() + shared.size()];
    let (g, sh) = mem.split_at_mut(global.size());
    global.read_bytes(0, g).unwrap();
    shared.read_bytes(0, sh).unwrap();
    mem.extend_from_slice(&w.local_stack);
    let charges = (w.stats.mem_transactions - before.0, w.issue - before.1, w.clock - before.2);
    (result, reg(w, R2), charges, mem)
}

/// A fused index computes `base + idx * scale + offset` in wrapping 64-bit
/// arithmetic whether the scale is a power of two (a shift) or not.
#[test]
fn an_index_address_shifts_exactly_as_it_multiplies() {
    use crate::program::{Addr, Src};
    let extremes =
        [0, 1, 7, 0x7fff_ffff, 0x8000_0000, 0xffff_ffff, u64::MAX, 1 << 40, 0x1234_5678_9abc];
    with_warp(sptx::Module::default(), |w| {
        let f = Func::lower(&frame_fn(vec![]));
        *reg_mut(w, R0) = std::array::from_fn(|l| 0x1000 * l as u64 + 3);
        *reg_mut(w, R1) = std::array::from_fn(|l| extremes[l % extremes.len()] ^ (l as u64) << 33);
        for scale in [1, 2, 4, 8, 1 << 40, 1 << 62, 0, 3, 12, -4, -8, i64::MIN] {
            for sext in [false, true] {
                let (base, idx) = (Src::Reg(R0.0 * 32), Src::Reg(R1.0 * 32));
                let addrs = w.lane_addrs(&f, Addr::Index { base, idx, sext, scale }, -24);
                let (b, x) = (reg(w, R0), reg(w, R1));
                for (l, (&got, (&b, &x))) in addrs.iter().zip(b.iter().zip(&x)).enumerate() {
                    let x = if sext { x as u32 as i32 as i64 } else { x as i64 };
                    let want = (b as i64).wrapping_add(x.wrapping_mul(scale)).wrapping_sub(24);
                    assert_eq!(got, want as u64, "scale {scale}, sext {sext}, lane {l}");
                }
            }
        }
    });
}

#[test]
fn every_address_shape_matches_the_lane_ordered_path() {
    use super::super::mem::{shape, Shape};
    with_warp(sptx::Module::default(), |w| {
        let arena = w.env.device.global.size() as u64;
        let g = |off: u64| addr::make(Space::Global, off);
        let run = |first: u64, stride: i64| -> LaneVec {
            std::array::from_fn(|l| first.wrapping_add(stride.wrapping_mul(l as i64) as u64))
        };
        let with = |mut a: LaneVec, lane: usize, v: u64| {
            a[lane] = v;
            a
        };
        let (full, odd) = (u32::MAX, 0x5555_5555);
        let wild = run(g(24), 1000);
        let uniform = |a| [a; 32];
        // (name, type, addresses, mask, shape: 'u'niform, 'a'ffine, 'o'ther)
        let cases: Vec<(&str, MemTy, LaneVec, u32, char)> = vec![
            ("uniform, full mask", MemTy::B32, uniform(g(100)), full, 'u'),
            ("uniform, partial mask", MemTy::B64, with(with(wild, 0, g(64)), 2, g(64)), 0b101, 'u'),
            ("uniform, one lane", MemTy::B8, wild, 1 << 9, 'u'),
            ("uniform, every other lane", MemTy::F32, run(g(40), 0), odd, 'u'),
            ("unit stride", MemTy::B32, run(g(256), 4), full, 'a'),
            ("unit stride, bytes", MemTy::B8, run(g(3), 1), full, 'a'),
            ("stride 8", MemTy::B64, run(g(512), 8), full, 'a'),
            ("stride 12", MemTy::F32, run(g(4), 12), full, 'a'),
            ("stride 32", MemTy::B32, run(g(96), 32), full, 'a'),
            ("stride 3072", MemTy::F64, run(g(8), 3072), full, 'a'),
            ("stride not a multiple of the width", MemTy::B32, run(g(16), 6), full, 'a'),
            ("b64 at a 4-byte stride", MemTy::B64, run(g(16), 4), full, 'a'),
            ("negative stride", MemTy::B32, run(g(1024), -4), full, 'o'),
            ("affine under a partial mask", MemTy::B32, run(g(256), 4), odd, 'o'),
            ("past the arena at lane 31", MemTy::B32, run(g(arena - 31 * 4), 4), full, 'a'),
            ("past the arena from lane 10", MemTy::B32, run(g(arena - 10 * 2048), 2048), full, 'a'),
            ("a faulting middle lane", MemTy::B32, with(run(g(256), 4), 17, g(arena)), full, 'o'),
            ("a misaligned middle lane", MemTy::B32, with(run(g(256), 4), 17, g(326)), full, 'o'),
            ("shared, unit stride", MemTy::B64, run(addr::make(Space::Shared, 8), 8), full, 'a'),
            ("shared, uniform", MemTy::B32, uniform(addr::make(Space::Shared, 12)), odd, 'u'),
            ("local", MemTy::B32, run(addr::make(Space::Local, 4), 4), full, 'a'),
            ("local, uniform", MemTy::B32, uniform(addr::make(Space::Local, 8)), full, 'u'),
            ("host", MemTy::B32, run(addr::make(Space::Host, 64), 4), full, 'a'),
            ("host, uniform", MemTy::B32, uniform(addr::make(Space::Host, 64)), odd, 'u'),
            ("tag changes mid-warp", MemTy::B32, run(g((1 << 56) - 64), 4), full, 'a'),
            ("a tag per lane", MemTy::B32, run(g(64), 1 << 56), full, 'a'),
            ("wrapping", MemTy::B32, run(g(64), 1 << 62), full, 'a'),
        ];
        let vals: LaneVec = std::array::from_fn(|l| 0x0102_0304_0506_0708 * (l as u64 + 1));
        let dst = R2.0 * 32;
        for (name, ty, addrs, mask, want_shape) in cases {
            let got_shape = match shape(&addrs, mask) {
                Shape::Uniform(_) => 'u',
                Shape::Affine { .. } => 'a',
                Shape::Other => 'o',
            };
            assert_eq!(got_shape, want_shape, "{name}");
            let want = access(w, |w| w.ld_lanes(ty, dst, &addrs, mask));
            let got = access(w, |w| w.ld_row(ty, dst, &addrs, mask));
            assert!(
                got == want,
                "ld, {name}:\n got {:?}\nwant {:?}",
                (&got.0, &got.2),
                (&want.0, &want.2)
            );
            let want = access(w, |w| w.st_lanes(ty, &addrs, &vals, mask));
            let got = access(w, |w| w.st_row(ty, &addrs, &vals, mask));
            assert!(
                got == want,
                "st, {name}:\n got {:?}\nwant {:?}",
                (&got.0, &got.2),
                (&want.0, &want.2)
            );
        }
    });
}

// ------------------------------------------------------------------- calls

/// `sum(p0..pN) = p0 + … + pN` over i64, calling itself never.
fn sum_fn(nparams: usize) -> sptx::Function {
    let mut b = sptx::builder::FnBuilder::new("sum", false);
    let params: Vec<Reg> = (0..nparams).map(|i| b.param(&format!("p{i}"), ScalarTy::I64)).collect();
    let mut acc = b.mov(Operand::ImmI(0));
    for p in params {
        acc = b.bin(ScalarTy::I64, BinOp::Add, Operand::Reg(acc), Operand::Reg(p));
    }
    b.ret(Some(Operand::Reg(acc)));
    b.build()
}

#[test]
fn calls_pass_short_and_long_argument_packs() {
    for (func, nargs) in [(1u32, 2usize), (2, INLINE_ARGS + 3)] {
        // Arguments cycle through register, immediate and special.
        let args: Vec<Operand> = (0..nargs)
            .map(|i| match i % 3 {
                0 => Operand::Reg(R0),
                1 => Operand::ImmI(10 + i as i64),
                _ => Operand::Special(SpecialReg::LaneId),
            })
            .collect();
        let inst = Inst::Call { func, dst: Some(R2), args: args.clone() };
        let module = sptx::Module {
            name: "calls".into(),
            arch: "sm_53".into(),
            functions: vec![frame_fn(vec![Node::Inst(inst)]), sum_fn(2), sum_fn(INLINE_ARGS + 3)],
            device_lib_linked: true,
        };
        with_env(module, |env| {
            for mask in MASKS {
                let mut w = Warp::new(env, 1);
                w.push_frame(0, &[], mask).unwrap();
                *reg_mut(&mut w, R0) = std::array::from_fn(|lane| 1000 * lane as u64);
                *reg_mut(&mut w, R2) = sentinel();
                let mut expect = sentinel();
                for lane in iter_lanes(mask) {
                    expect[lane as usize] =
                        args.iter().map(|a| op_val(&w, a, lane)).fold(0u64, u64::wrapping_add);
                }
                assert_eq!(w.run().unwrap(), Yield::Done);
                assert_eq!(w.frame().mask, mask);
                assert_eq!(reg(&w, R2), expect, "call of {func} mask {mask:#x}");
                assert!(w.issue > 0 && w.clock > 0 && w.stats.lane_insts > 0);
                // The callee's registers and locals are popped again.
                assert_eq!((w.frames.len(), w.regs.len()), (1, NUM_REGS * 32));
                assert_eq!(w.local_stack.len(), LOCAL_SIZE as usize * 32);
            }
        });
    }
}

#[test]
fn runaway_recursion_traps_at_the_call_depth_limit() {
    // f() { return f(); }
    let mut b = sptx::builder::FnBuilder::new("f", false);
    let r = b.call(0, vec![], true);
    b.ret(r.map(Operand::Reg));
    let module = sptx::Module {
        name: "rec".into(),
        arch: "sm_53".into(),
        functions: vec![b.build()],
        device_lib_linked: true,
    };
    with_env(module, |env| {
        let mut w = Warp::new(env, 1);
        w.push_frame(0, &[], u32::MAX).unwrap();
        let err = w.run().unwrap_err();
        assert_eq!(err.to_string(), "device trap: device call stack overflow");
        assert_eq!(w.frames.len(), 64);
    });
}
