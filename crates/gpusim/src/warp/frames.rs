//! How a warp goes on across calls and waits. A call pushes a frame that
//! keeps its function, `pc`, active mask and mask-stack base, a return pops
//! it, a device-library call that waits is re-entered phase by phase, and a
//! barrier arrival hands the warp back to its block's scheduler: nothing of
//! a warp lives on the host stack between two [`Warp::run`]s.

use vmcommon::addr::{self, Space};
use vmcommon::fmt::FmtArg;
use vmcommon::Value;

use super::{alu, iter_lanes, Frame, LaneVec, LibStep, Stop, Warp, Yield};
use super::{INLINE_ARGS, LOCAL_STACK_LIMIT};
use crate::barrier::NUM_BARRIERS;
use crate::device::ExecError;
use crate::program::{Func, Op, Src};
use crate::timing;

impl<'a> Warp<'a> {
    /// Arrive at named barrier `id` on behalf of this warp: check the
    /// arrival, charge it, and hand the wait to the scheduler.
    pub(super) fn bar_sync(
        &mut self,
        id: u32,
        expected_threads: u32,
        label: Option<&'static str>,
    ) -> Result<Yield, ExecError> {
        if id as usize >= NUM_BARRIERS {
            return Err(ExecError::Trap(format!("barrier id {id} out of range")));
        }
        if expected_threads == 0 || !expected_threads.is_multiple_of(timing::WARP_SIZE) {
            return Err(ExecError::Trap(format!(
                "bar.sync count {expected_threads} is not a positive multiple of {}",
                timing::WARP_SIZE
            )));
        }
        // More threads than the block's warps hold can never arrive.
        let nthreads = self.env.nthreads;
        if expected_threads > nthreads.next_multiple_of(timing::WARP_SIZE) {
            return Err(ExecError::Trap(format!(
                "bar.sync {id} waits for {expected_threads} threads but the block has \
                 {nthreads}"
            )));
        }
        self.issue += timing::BARRIER_ISSUE;
        self.wait_label = label;
        Ok(Yield::Barrier { id, count: expected_threads })
    }

    /// Go on from a completed barrier at virtual time `cycles`. A wait a
    /// device-library call asked for is traced on the warp's track
    /// (tid = 1 + warp id; tid 0 is the driver stream).
    pub(crate) fn release(&mut self, cycles: u64) {
        let before = std::mem::replace(&mut self.clock, cycles);
        let (Some(label), Some(t)) = (self.wait_label.take(), self.env.device.trace()) else {
            return;
        };
        let hz = self.env.device.props.clock_hz;
        t.obs.tracer.complete(
            t.pid,
            1 + self.warp_id as u64,
            label,
            "barrier",
            t.base_s + before as f64 / hz,
            cycles.saturating_sub(before) as f64 / hz,
            vec![("warp", (self.warp_id as u64).into())],
        );
    }

    /// Enter kernel `func` with `params` (uniform across lanes) on the
    /// lanes of this warp that exist in the block.
    pub(crate) fn start(&mut self, func: u32, params: &[u64]) -> Result<(), ExecError> {
        let args: Vec<LaneVec> = params.iter().map(|&p| [p; 32]).collect();
        let live = (self.env.nthreads - self.warp_id * 32).min(32);
        self.push_frame(func, &args, u32::MAX >> (32 - live))
    }

    /// Push a frame that runs `func` on the lanes in `mask`.
    pub(super) fn push_frame(
        &mut self,
        func: u32,
        args: &[LaneVec],
        mask: u32,
    ) -> Result<(), ExecError> {
        let program = self.env.program;
        let f = program
            .funcs
            .get(func as usize)
            .ok_or_else(|| ExecError::Trap(format!("function index {func} out of range")))?;
        if args.len() != f.params {
            return Err(ExecError::Trap(format!(
                "call to `{}` with {} args (expects {})",
                f.name,
                args.len(),
                f.params
            )));
        }
        if self.frames.len() >= 64 {
            return Err(ExecError::Trap("device call stack overflow".into()));
        }
        let local_base = self.local_stack.len();
        let local_total = f.local_size as usize * 32;
        if local_base + local_total > LOCAL_STACK_LIMIT {
            return Err(ExecError::Trap("local memory exhausted".into()));
        }
        self.local_stack.resize(local_base + local_total, 0);
        // The frame's registers start zeroed, arguments in the first rows.
        let reg_base = self.regs.len();
        self.regs.resize(reg_base + f.num_regs as usize * 32, 0);
        for (i, a) in args.iter().enumerate() {
            self.regs[reg_base + i * 32..reg_base + (i + 1) * 32].copy_from_slice(a);
        }
        self.frames.push(Frame {
            func,
            pc: 0,
            mask,
            ctl_base: self.ctl.len() as u32,
            resume: None,
            reg_base,
            local_base,
            local_row: std::array::from_fn(|lane| {
                addr::make(Space::Local, local_base as u64 + lane as u64 * f.local_size)
            }),
            ret_vals: [0; 32],
        });
        Ok(())
    }

    /// Run the warp until it yields. A call pushes a frame and a return pops
    /// one; a device-library call in progress is re-entered when its frame
    /// goes on. The kernel's own frame stays when it ends.
    pub(crate) fn run(&mut self) -> Result<Yield, ExecError> {
        let program = self.env.program;
        loop {
            let top = self.frame_mut();
            let f = &program.funcs[top.func as usize];
            let (pc, mask, base) = (top.pc as usize, top.mask, top.ctl_base as usize);
            let stop = match top.resume.take() {
                Some(phase) => match self.lib_step(f, pc - 1, mask, phase)? {
                    Some(stop) => stop,
                    None => continue,
                },
                None => self.step(f, pc, mask, base)?,
            };
            match stop {
                Stop::Switched => {}
                Stop::Yield(y) => return Ok(y),
                Stop::End if self.frames.len() == 1 => return Ok(Yield::Done),
                Stop::End => {
                    let done = self.frames.pop().expect("callee frame");
                    self.regs.truncate(done.reg_base);
                    self.local_stack.truncate(done.local_base);
                    let &Frame { func, pc, mask, .. } = self.frame();
                    if let Op::Call { dst: Some(d), .. } =
                        program.funcs[func as usize].ops[pc as usize - 1].op
                    {
                        self.set_row(d, &done.ret_vals, mask);
                    }
                }
            }
        }
    }

    /// Record where the running frame goes on.
    pub(super) fn save(&mut self, pc: usize, mask: u32) {
        let top = self.frame_mut();
        (top.pc, top.mask) = (pc as u32, mask);
    }

    /// Enter the device-library call at op `at` of the running frame, whose
    /// `pc` and mask are saved, at `phase`. `None` when it returned and the
    /// frame goes on.
    #[inline(never)]
    pub(super) fn lib_step(
        &mut self,
        f: &Func,
        at: usize,
        mask: u32,
        phase: u32,
    ) -> Result<Option<Stop>, ExecError> {
        let Op::Intrinsic(ref i) = f.ops[at].op else {
            unreachable!("a library call resumes at its own op")
        };
        let step = self.with_args(f, &i.args, mask, |w, pack| {
            w.dispatch_intrinsic(&i.name, mask, pack, &i.sargs, phase)
        })?;
        Ok(match step {
            LibStep::Ret(rv) => {
                if let Some(d) = i.dst {
                    self.set_row(d, &rv, mask);
                }
                None
            }
            LibStep::Barrier { id, count, label, next } => {
                self.frame_mut().resume = Some(next);
                Some(Stop::Yield(self.bar_sync(id, count, Some(label))?))
            }
            LibStep::Run { func, arg, mask, next } => {
                self.frame_mut().resume = Some(next);
                self.push_frame(func, &[[arg; 32]], mask)?;
                Some(Stop::Switched)
            }
        })
    }

    /// Evaluate call arguments into rows (active lanes hold the operand,
    /// inactive lanes 0) and run `callee` on them. Up to [`INLINE_ARGS`]
    /// rows live in this frame — kept out of `step`'s, which every op pays
    /// for — and longer packs on the heap.
    #[inline(never)]
    pub(super) fn with_args<R>(
        &mut self,
        f: &Func,
        args: &[Src],
        mask: u32,
        callee: impl FnOnce(&mut Self, &[LaneVec]) -> R,
    ) -> R {
        let mut inline = [[0u64; 32]; INLINE_ARGS];
        let mut spill = Vec::new();
        let rows = if args.len() <= INLINE_ARGS {
            &mut inline[..args.len()]
        } else {
            spill.resize(args.len(), [0; 32]);
            &mut spill[..]
        };
        for (row, a) in rows.iter_mut().zip(args) {
            alu::blend(row, self.read(f, *a), mask);
        }
        callee(self, rows)
    }

    fn dispatch_intrinsic(
        &mut self,
        name: &str,
        mask: u32,
        args: &[LaneVec],
        sargs: &[String],
        phase: u32,
    ) -> Result<LibStep, ExecError> {
        match name {
            "printf" => {
                let fmt = sargs
                    .first()
                    .cloned()
                    .ok_or_else(|| ExecError::Trap("device printf without format".into()))?;
                let kinds = crate::printf_arg_kinds(&fmt);
                let mut out = String::new();
                for lane in iter_lanes(mask) {
                    let mut fargs = Vec::new();
                    for (ai, is_str) in kinds.iter().enumerate() {
                        let bits = args.get(ai).map(|a| a[lane as usize]).unwrap_or(0);
                        if *is_str {
                            fargs.push(FmtArg::Str(self.read_cstr(bits)?));
                        } else {
                            // Device printf promotes f32 to f64 at the call
                            // site (handled by the compiler); raw bits here
                            // are i64 or f64.
                            fargs.push(FmtArg::Val(decode_printf_arg(bits, &fmt, ai)));
                        }
                    }
                    out.push_str(&vmcommon::fmt::format(&fmt, &fargs));
                }
                self.env.device.printf_output.lock().push_str(&out);
                Ok(LibStep::Ret([out.len() as u64; 32]))
            }
            _ => {
                let lib = self.env.lib;
                lib.call(name, self, mask, args, sargs, phase)
            }
        }
    }
}

/// Decode a printf argument from raw bits based on the conversion kind.
fn decode_printf_arg(bits: u64, fmt: &str, index: usize) -> Value {
    // Find the index-th conversion to decide integer vs float.
    let mut seen = 0usize;
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            continue;
        }
        if chars.peek() == Some(&'%') {
            chars.next();
            continue;
        }
        let mut conv = None;
        for c in chars.by_ref() {
            if c.is_ascii_alphabetic() && !matches!(c, 'l' | 'z' | 'h') {
                conv = Some(c);
                break;
            }
        }
        if let Some(conv) = conv {
            if seen == index {
                return match conv {
                    'f' | 'F' | 'e' | 'E' | 'g' | 'G' => Value::F64(f64::from_bits(bits)),
                    'p' | 'x' | 'X' | 'u' => Value::I64(bits as i64),
                    _ => Value::I64(bits as i64),
                };
            }
            seen += 1;
        }
    }
    Value::I64(bits as i64)
}
