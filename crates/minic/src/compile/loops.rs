//! Loop optimisation: one pass over a chunk's specialised code, run right
//! after [`super::specialize`], so once per [`crate::Image`]. It works on
//! the pure, trap-free typed integer ops only (`AddI`/`SubI`/`MulI`/
//! `AddIK`/`MulIK` without an absorbed `Conv`): the array-index arithmetic
//! that dominates the UniBench loop nests, which the compiler emits once
//! per subscript, exactly as the source spells it.
//!
//! 1. **Value numbering** inside each basic block: a recomputation of a
//!    value a register still holds is deleted and its readers renamed to
//!    the holder. Allowed only if the deleted result is not live out of
//!    the block and the holder is not redefined before the last renamed
//!    read.
//! 2. **Loop-invariant code motion.** A loop is a backward `Jmp` at `b` to
//!    a header `t` (the last such `Jmp` for `t`), entered only by falling
//!    into `t`: no jump from outside `[t, b]` lands inside it. An op whose
//!    operands no op of the loop writes moves to a preheader in front of
//!    `t`, which the back edges skip. It keeps its destination when that
//!    is the register's one definition in the chunk and the register is
//!    not live into the header; otherwise it writes a fresh register above
//!    the chunk's (its readers, all in its own block, are renamed). Inner
//!    loops go first, so values climb out of nests one level per loop;
//!    value numbering then runs once more over the preheaders.
//! 3. **Loop rotation.** A back-edge `Jmp t` whose header is a lone
//!    `Jcmp`/`JcmpIK` exiting to the op after the `Jmp` becomes that
//!    compare with `when` inverted, jumping to the op after the header.
//!
//! 4. **Superinstructions** ([`super::fuse`]) over the rotated code.
//!
//! Every deleted, moved or fused-away op leaves a dropped slot behind, so
//! jump targets stay valid until the one compaction at the end remaps them
//! and the line table (a moved op keeps its own source line).
//!
//! Why moving is safe: the specialisation pass emits these ops only where
//! it proved both operands `I32`, and an operand no loop op writes is a
//! slot register (proven for the whole chunk) or the result of an op
//! hoisted before it. So a hoisted op computes, with the same wrapping
//! arithmetic and without trapping, the value it computed in the loop;
//! when the loop would not have reached it, nothing reads the result.

use super::fuse;
use super::specialize::{def_of, target_mut, uses_of};
use crate::bytecode::{LoopStats, Op, R};

/// Optimise `code` (RLE pc→line table `lines`, `nregs` registers, both
/// updated) and add what was done to `stats`.
pub(super) fn optimize(
    code: Vec<Op>,
    lines: Vec<(u32, u32)>,
    nregs: &mut u16,
    stats: &mut LoopStats,
) -> (Vec<Op>, Vec<(u32, u32)>) {
    let mut p = Pass::new(code, &lines, *nregs);
    if p.code.iter().any(|op| pure(op).is_some()) {
        p.value_number();
        p.hoist_loops();
        p.value_number();
    }
    p.rotate();
    if p.code.iter().any(fuse::leads) {
        let flow = p.flow();
        p.stats.fused = fuse::fuse(&mut p.code, &mut p.keep, &p.line, &flow);
    }
    if p.stats == LoopStats::default() {
        return (p.code, lines);
    }
    stats.removed += p.stats.removed;
    stats.hoisted += p.stats.hoisted;
    stats.rotated += p.stats.rotated;
    stats.fused += p.stats.fused;
    *nregs = p.nregs;
    p.compact()
}

/// The value a pure op computes: kind, first operand, and the second
/// operand register or constant (register operands of a commutative op
/// sorted).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key(u8, R, i64);

/// A pure, trap-free typed integer op: its destination, value and
/// operand registers.
fn pure(op: &Op) -> Option<(R, Key, [Option<R>; 2])> {
    let two = |kind, dst, a: R, b: R, commutes: bool| {
        let (x, y) = if commutes && b < a { (b, a) } else { (a, b) };
        Some((dst, Key(kind, x, y as i64), [Some(a), Some(b)]))
    };
    match *op {
        Op::AddI { dst, a, b, conv: false } => two(0, dst, a, b, true),
        Op::SubI { dst, a, b, conv: false } => two(1, dst, a, b, false),
        Op::MulI { dst, a, b, conv: false } => two(2, dst, a, b, true),
        Op::AddIK { dst, a, k, conv: false } => Some((dst, Key(3, a, k as i64), [Some(a), None])),
        Op::MulIK { dst, a, k, conv: false } => Some((dst, Key(4, a, k as i64), [Some(a), None])),
        _ => None,
    }
}

fn set_dst(op: &mut Op, r: R) {
    match op {
        Op::AddI { dst, .. }
        | Op::SubI { dst, .. }
        | Op::MulI { dst, .. }
        | Op::AddIK { dst, .. }
        | Op::MulIK { dst, .. } => *dst = r,
        _ => unreachable!("set_dst on an impure op"),
    }
}

fn target(op: &Op) -> Option<usize> {
    match *op {
        Op::Jmp { to }
        | Op::Jz { to, .. }
        | Op::Jnz { to, .. }
        | Op::Jcmp { to, .. }
        | Op::JcmpIK { to, .. }
        | Op::IncJcmp { to, .. } => Some(to as usize),
        _ => None,
    }
}

/// Does a basic block end after this op?
fn ends_block(op: &Op) -> bool {
    target(op).is_some() || matches!(op, Op::Ret { .. } | Op::Trap { .. })
}

/// Call `f` on each register operand an op reads one at a time, i.e. every
/// read [`uses_of`] reports except the register runs of calls, `printf`,
/// launches and `Dim3Store`, and the in-place operand of `IncI`/`FmaF`/
/// `FmaAssign`/`FmaIdx`/`IncJcmp`.
fn single_reads_mut(op: &mut Op, mut f: impl FnMut(&mut R)) {
    use Op::*;
    match op {
        Mov { src, .. }
        | Conv { src, .. }
        | StoreSlot { src, .. }
        | StoreAbs { src, .. }
        | Load { addr: src, .. }
        | ChkNull { src }
        | Stride { extent: src, .. }
        | Neg { src, .. }
        | NotL { src, .. }
        | BitNot { src, .. }
        | Truth { src, .. }
        | Jz { cond: src, .. }
        | Jnz { cond: src, .. }
        | Ret { src }
        | DimFix { src, .. }
        | AddIK { a: src, .. }
        | MulIK { a: src, .. }
        | MulKF { a: src, .. }
        | JcmpIK { a: src, .. }
        | PrintfD { fmt: src, .. }
        | IncJcmp { b: src, .. } => f(src),
        Store { addr: a, src: b, .. }
        | LoadIdx { base: a, idx: b, .. }
        | AddrIdx { base: a, idx: b, .. }
        | StrideD { extent: a, elem: b, .. }
        | Bin { a, b, .. }
        | PtrDiff { a, b, .. }
        | AddI { a, b, .. }
        | SubI { a, b, .. }
        | MulI { a, b, .. }
        | AddF { a, b, .. }
        | SubF { a, b, .. }
        | MulF { a, b, .. }
        | Jcmp { a, b, .. }
        | FmaAssign { a, b, .. }
        | FmaF { a, b, .. } => {
            f(a);
            f(b);
        }
        StoreIdx { base, idx, src: c, .. }
        | LoadIdxSum { base, a: idx, b: c, .. }
        | FmaIdx { x: base, base: idx, idx: c, .. }
        | LoadIdxD { base, idx, stride: c, .. }
        | AddrIdxD { base, idx, stride: c, .. }
        | BinD { a: base, b: idx, stride: c, .. }
        | PtrDiffD { a: base, b: idx, stride: c, .. } => {
            f(base);
            f(idx);
            f(c);
        }
        StoreIdxD { base, idx, stride, src, .. }
        | LoadIdxMad { base, i: idx, n: stride, j: src, .. } => {
            f(base);
            f(idx);
            f(stride);
            f(src);
        }
        Const { .. }
        | FrameAddr { .. }
        | LoadSlot { .. }
        | LoadAbs { .. }
        | Dim3Load { .. }
        | Dim3Store { .. }
        | Jmp { .. }
        | Trap { .. }
        | IncI { .. }
        | Call { .. }
        | CallBuiltin { .. }
        | CallHook { .. }
        | Printf { .. }
        | Launch { .. } => {}
    }
}

/// Does `op` read `r`?
fn reads(op: &Op, r: R) -> bool {
    let mut hit = false;
    uses_of(op, |x| hit |= x == r);
    hit
}

/// Does `op` write `r`?
fn writes(op: &Op, r: R) -> bool {
    def_of(op).is_some_and(|(d, n)| (d..d + n).contains(&r))
}

/// Can every read of `r` in `op` be renamed?
fn renamable(op: &mut Op, r: R) -> bool {
    let mut single = 0;
    single_reads_mut(op, |x| single += (*x == r) as u32);
    let mut all = 0;
    uses_of(op, |x| all += (x == r) as u32);
    single == all
}

fn rename(op: &mut Op, from: R, to: R) {
    single_reads_mut(op, |x| {
        if *x == from {
            *x = to;
        }
    });
}

/// Basic blocks and register liveness of the code as it stands.
pub(super) struct Flow {
    /// Block start pcs, then the code length.
    starts: Vec<usize>,
    /// Per pc: its block.
    block: Vec<usize>,
    words: usize,
    /// Per block, `words` u64s each.
    live_in: Vec<u64>,
    live_out: Vec<u64>,
}

impl Flow {
    fn bit(set: &[u64], r: R) -> bool {
        set.get(r as usize / 64).is_some_and(|w| w >> (r % 64) & 1 != 0)
    }

    fn live_in(&self, block: usize, r: R) -> bool {
        Flow::bit(&self.live_in[block * self.words..(block + 1) * self.words], r)
    }

    fn live_out(&self, block: usize, r: R) -> bool {
        Flow::bit(self.live_out_of(block), r)
    }

    /// The registers live out of `block`, as a bitset.
    pub(super) fn live_out_of(&self, block: usize) -> &[u64] {
        &self.live_out[block * self.words..(block + 1) * self.words]
    }

    pub(super) fn blocks(&self) -> usize {
        self.starts.len() - 1
    }

    /// The pcs of `block`, dropped slots included.
    pub(super) fn range(&self, block: usize) -> std::ops::Range<usize> {
        self.starts[block]..self.starts[block + 1]
    }

    /// The pc one past the end of `pc`'s block.
    fn end(&self, pc: usize) -> usize {
        self.starts[self.block[pc] + 1]
    }
}

struct Pass {
    code: Vec<Op>,
    /// Per pc: does the op survive compaction?
    keep: Vec<bool>,
    /// Per pc: its source line.
    line: Vec<u32>,
    nregs: u16,
    stats: LoopStats,
}

impl Pass {
    fn new(code: Vec<Op>, lines: &[(u32, u32)], nregs: u16) -> Pass {
        let n = code.len();
        let mut line = vec![0; n];
        for (i, &(start, l)) in lines.iter().enumerate() {
            let end = lines.get(i + 1).map_or(n, |&(s, _)| (s as usize).min(n));
            line[(start as usize).min(end)..end].fill(l);
        }
        Pass { keep: vec![true; n], line, code, nregs, stats: LoopStats::default() }
    }

    fn kept(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.code.len()).filter(|&pc| self.keep[pc])
    }

    /// Definitions per register among the kept ops in `range`.
    fn defs(&self, range: std::ops::Range<usize>) -> Vec<u32> {
        let mut n = vec![0u32; self.nregs as usize];
        for pc in range.filter(|&pc| self.keep[pc]) {
            if let Some((d, cnt)) = def_of(&self.code[pc]) {
                (d..d + cnt).for_each(|r| n[r as usize] += 1);
            }
        }
        n
    }

    // ------------------------------------------------------------- flow

    fn flow(&self) -> Flow {
        let n = self.code.len();
        let mut leader = vec![false; n + 1];
        leader[0] = true;
        for pc in self.kept() {
            let op = &self.code[pc];
            if let Some(t) = target(op) {
                leader[t.min(n)] = true;
            }
            if ends_block(op) {
                leader[pc + 1] = true;
            }
        }
        let mut starts: Vec<usize> = (0..n).filter(|&pc| leader[pc]).collect();
        let nb = starts.len();
        starts.push(n);
        let mut block = vec![nb; n + 1];
        for b in 0..nb {
            block[starts[b]..starts[b + 1]].fill(b);
        }
        // Successor blocks (`nb`: leaves the chunk).
        let succs: Vec<[usize; 2]> = (0..nb)
            .map(|b| {
                let fall = b + 1;
                let last = (starts[b]..starts[b + 1]).rev().find(|&pc| self.keep[pc]);
                match last.map(|pc| &self.code[pc]) {
                    Some(Op::Jmp { to }) => [block[(*to as usize).min(n)], nb],
                    Some(Op::Ret { .. } | Op::Trap { .. }) => [nb, nb],
                    Some(op) => [target(op).map_or(nb, |t| block[t.min(n)]), fall],
                    None => [fall, nb],
                }
            })
            .collect();
        // Per block: the registers it reads before writing (`used`) and
        // those it writes; then iterate `in = used | (out & !written)`.
        let w = (self.nregs as usize).div_ceil(64).max(1);
        let mut used = vec![0u64; nb * w];
        let mut written = vec![0u64; nb * w];
        for b in 0..nb {
            let (u, d) = (&mut used[b * w..(b + 1) * w], &mut written[b * w..(b + 1) * w]);
            for pc in (starts[b]..starts[b + 1]).rev().filter(|&pc| self.keep[pc]) {
                let op = &self.code[pc];
                if let Some((first, cnt)) = def_of(op) {
                    for r in first..first + cnt {
                        u[r as usize / 64] &= !(1 << (r % 64));
                        d[r as usize / 64] |= 1 << (r % 64);
                    }
                }
                uses_of(op, |r| u[r as usize / 64] |= 1 << (r % 64));
            }
        }
        let mut live_in = vec![0u64; (nb + 1) * w];
        let mut live_out = vec![0u64; nb * w];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..nb).rev() {
                for k in 0..w {
                    let out = succs[b].iter().fold(0, |acc, &s| acc | live_in[s * w + k]);
                    let inn = used[b * w + k] | (out & !written[b * w + k]);
                    live_out[b * w + k] = out;
                    changed |= live_in[b * w + k] != inn;
                    live_in[b * w + k] = inn;
                }
            }
        }
        Flow { starts, block, words: w, live_in, live_out }
    }

    // ---------------------------------------------------- value numbering

    fn value_number(&mut self) {
        let flow = self.flow();
        for b in 0..flow.blocks() {
            // (value, the register holding it)
            let mut table: Vec<(Key, R)> = Vec::new();
            let forget = |table: &mut Vec<(Key, R)>, r: R| {
                table
                    .retain(|&(Key(kind, a, x), h)| h != r && a != r && (kind > 2 || x != r as i64))
            };
            for p in flow.starts[b]..flow.starts[b + 1] {
                if !self.keep[p] {
                    continue;
                }
                let Some((dst, key, srcs)) = pure(&self.code[p]) else {
                    if let Some((d, cnt)) = def_of(&self.code[p]) {
                        (d..d + cnt).for_each(|r| forget(&mut table, r));
                    }
                    continue;
                };
                if let Some(&(_, h)) = table.iter().find(|e| e.0 == key) {
                    if h == dst || self.rename_in_block(p, dst, h, &flow, flow.live_out(b, dst)) {
                        self.keep[p] = false;
                        self.stats.removed += 1;
                        if h != dst {
                            forget(&mut table, dst);
                        }
                        continue;
                    }
                }
                forget(&mut table, dst);
                if !srcs.contains(&Some(dst)) {
                    table.push((key, dst));
                }
            }
        }
    }

    /// Rename to `h` the reads of `d` that the definition at `p` reaches,
    /// if they all lie in `p`'s block (`d` is redefined there, or not
    /// `live_out`) and `h` keeps its value up to the last of them.
    fn rename_in_block(&mut self, p: usize, d: R, h: R, flow: &Flow, live_out: bool) -> bool {
        let mut at = Vec::new();
        let mut clobbered = false;
        let mut redefined = false;
        for q in p + 1..flow.end(p) {
            if !self.keep[q] {
                continue;
            }
            if reads(&self.code[q], d) {
                if clobbered || !renamable(&mut self.code[q], d) {
                    return false;
                }
                at.push(q);
            }
            clobbered |= writes(&self.code[q], h);
            if writes(&self.code[q], d) {
                redefined = true;
                break;
            }
        }
        if !redefined && live_out {
            return false;
        }
        at.into_iter().for_each(|q| rename(&mut self.code[q], d, h));
        true
    }

    // ------------------------------------------------------------- LICM

    /// Structured loops `(t, b)`, innermost first: `b` is the last
    /// backward `Jmp` to `t`, and no jump from outside `[t, b]` lands in
    /// it.
    fn loops(&self) -> Vec<(usize, usize)> {
        let mut back: Vec<(usize, usize)> = Vec::new();
        for b in self.kept() {
            if let Op::Jmp { to } = self.code[b] {
                if to as usize <= b {
                    back.push((to as usize, b));
                }
            }
        }
        back.sort_unstable();
        back.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                earlier.1 = later.1;
            }
            same
        });
        let jumps: Vec<(usize, usize)> =
            self.kept().filter_map(|q| target(&self.code[q]).map(|t| (q, t))).collect();
        back.retain(|&(t, b)| {
            let inside = |x: usize| (t..=b).contains(&x);
            jumps.iter().all(|&(q, to)| inside(q) || !inside(to))
        });
        back.sort_by_key(|&(t, b)| b - t);
        back
    }

    fn hoist_loops(&mut self) {
        let mut loops = self.loops();
        for i in 0..loops.len() {
            let (t, b) = loops[i];
            let moved = self.hoist(t, b);
            let k = moved.len();
            if k == 0 {
                continue;
            }
            // The preheader goes in front of `t`; every jump to `t` or
            // beyond (only the loop's own jumps reach `t`) moves with it.
            for op in &mut self.code {
                if let Some(to) = target_mut(op) {
                    if *to as usize >= t {
                        *to += k as u32;
                    }
                }
            }
            let (ops, lines): (Vec<Op>, Vec<u32>) = moved.into_iter().unzip();
            self.code.splice(t..t, ops);
            self.line.splice(t..t, lines);
            self.keep.splice(t..t, std::iter::repeat_n(true, k));
            for l in &mut loops[i + 1..] {
                l.0 += k * (l.0 >= t) as usize;
                l.1 += k * (l.1 >= t) as usize;
            }
        }
    }

    /// Take the invariant ops out of loop `[t, b]`, in order, with their
    /// lines.
    fn hoist(&mut self, t: usize, b: usize) -> Vec<(Op, u32)> {
        let mut in_loop = self.defs(t..b + 1);
        let invariant = |op: &Op| {
            pure(op).is_some_and(|(_, _, srcs)| {
                srcs.iter().flatten().all(|&r| in_loop[r as usize] == 0)
            })
        };
        if !(t..=b).any(|p| self.keep[p] && invariant(&self.code[p])) {
            return Vec::new();
        }
        let flow = self.flow();
        let mut in_chunk = self.defs(0..self.code.len());
        let mut out = Vec::new();
        for p in t..=b {
            if !self.keep[p] {
                continue;
            }
            let Some((dst, _, srcs)) = pure(&self.code[p]) else { continue };
            if srcs.iter().flatten().any(|&r| in_loop[r as usize] > 0) {
                continue;
            }
            let mut op = self.code[p].clone();
            let sole = in_chunk[dst as usize] == 1 && !flow.live_in(flow.block[t], dst);
            if !sole {
                let fresh = self.nregs;
                let live_out = flow.live_out(flow.block[p], dst);
                if fresh == R::MAX || !self.rename_in_block(p, dst, fresh, &flow, live_out) {
                    continue;
                }
                self.nregs += 1;
                in_loop.push(0);
                in_chunk.push(1);
                in_chunk[dst as usize] -= 1;
                set_dst(&mut op, fresh);
            }
            in_loop[dst as usize] -= 1;
            self.keep[p] = false;
            self.stats.hoisted += 1;
            out.push((op, self.line[p]));
        }
        out
    }

    // --------------------------------------------------------- rotation

    fn rotate(&mut self) {
        let n = self.code.len();
        // The pc a jump to each pc lands on.
        let mut land = vec![n; n + 1];
        for pc in (0..n).rev() {
            land[pc] = if self.keep[pc] { pc } else { land[pc + 1] };
        }
        for at in 0..n {
            let Op::Jmp { to } = self.code[at] else { continue };
            let h = land[to as usize];
            if !self.keep[at] || h > at {
                continue;
            }
            let exits = |x: u32| land[x as usize] == land[at + 1];
            let next = h as u32 + 1;
            self.code[at] = match self.code[h] {
                Op::Jcmp { op, a, b, to, when, float } if exits(to) => {
                    Op::Jcmp { op, a, b, to: next, when: !when, float }
                }
                Op::JcmpIK { op, a, k, to, when } if exits(to) => {
                    Op::JcmpIK { op, a, k, to: next, when: !when }
                }
                _ => continue,
            };
            self.stats.rotated += 1;
        }
    }

    // ------------------------------------------------------- compaction

    /// Drop the deleted and moved-out slots, remap jump targets (a jump to
    /// a dropped slot lands on the next kept op) and re-encode the lines.
    fn compact(self) -> (Vec<Op>, Vec<(u32, u32)>) {
        let mut new_pc = Vec::with_capacity(self.code.len() + 1);
        let mut next = 0u32;
        for &k in &self.keep {
            new_pc.push(next);
            next += k as u32;
        }
        new_pc.push(next);
        let mut out = Vec::with_capacity(next as usize);
        let mut table: Vec<(u32, u32)> = Vec::new();
        for ((mut op, keep), line) in self.code.into_iter().zip(self.keep).zip(self.line) {
            if !keep {
                continue;
            }
            if let Some(to) = target_mut(&mut op) {
                *to = new_pc[*to as usize];
            }
            if table.last().map(|&(_, l)| l) != Some(line) {
                table.push((out.len() as u32, line));
            }
            out.push(op);
        }
        (out, table)
    }
}

#[cfg(test)]
mod tests;
