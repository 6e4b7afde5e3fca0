//! Concrete interpreter.
//!
//! Executes one packet through an NF program against a [`DataMemory`],
//! reporting every memory access and, one basic block at a time as each
//! block is entered, the instructions it retires to an [`ExecSink`]. The
//! testbed simulator plugs its CPU/cache cost model into that sink; tests
//! usually use `CountingSink` or `NullSink`.
//!
//! The step limit is checked once per block, against the block's whole
//! instruction count: a run still fails exactly when its total executed
//! instructions would exceed the limit, because every block a run enters it
//! runs to its terminator unless the run fails.

use castan_packet::Packet;

use crate::cost::ExecSink;
use crate::inst::{BlockId, FuncId, Inst, Operand, Terminator};
use crate::memory::DataMemory;
use crate::native::NativeRegistry;
use crate::program::Program;

/// The sequence of basic blocks one packet's execution visited, in
/// execution order (every listed block ran to and through its terminator).
/// Ground truth for the static cost analysis: summing the per-block static
/// costs over a trace must reproduce the sink-charged base cycles.
pub type BlockTrace = Vec<(FuncId, BlockId)>;

/// Execution limits guarding against runaway loops (a malformed NF, not an
/// expected condition).
#[derive(Clone, Copy, Debug)]
pub struct RunLimits {
    /// Maximum number of executed instructions (including terminators).
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_call_depth: u32,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_steps: 5_000_000,
            max_call_depth: 64,
        }
    }
}

/// Errors during concrete execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The step limit was exceeded.
    StepLimit,
    /// The call-depth limit was exceeded.
    CallDepth,
    /// A `Native` instruction referenced an unregistered helper.
    UnknownNative(u32),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::StepLimit => f.write_str("execution exceeded the step limit"),
            ExecError::CallDepth => f.write_str("execution exceeded the call-depth limit"),
            ExecError::UnknownNative(id) => write!(f, "unregistered native helper {id}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of executing one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecResult {
    /// Value returned by the entry function (the NF's verdict: typically an
    /// output port number, or a drop sentinel).
    pub return_value: Option<u64>,
    /// Instructions executed.
    pub steps: u64,
}

/// The interpreter. Cheap to construct; borrows the program and the native
/// registry.
pub struct Interpreter<'a> {
    program: &'a Program,
    natives: &'a NativeRegistry,
    limits: RunLimits,
    /// Registers of every function together: what the register stack of a
    /// run without recursion can hold at most, so it is allocated once.
    stack_words: usize,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter over a validated program.
    pub fn new(program: &'a Program, natives: &'a NativeRegistry) -> Self {
        Interpreter {
            program,
            natives,
            limits: RunLimits::default(),
            stack_words: program.functions.iter().map(|f| f.num_regs as usize).sum(),
        }
    }

    /// Overrides the execution limits.
    pub fn with_limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Executes the program's entry function for one packet.
    ///
    /// Generic over the sink, so a concrete sink's `retire_block` and
    /// `mem_access` inline into the dispatch loop; `&mut dyn ExecSink`
    /// works as before.
    pub fn run_packet<S: ExecSink + ?Sized>(
        &self,
        mem: &mut DataMemory,
        packet: &Packet,
        sink: &mut S,
    ) -> Result<ExecResult, ExecError> {
        self.run(mem, packet, sink, None)
    }

    /// Like [`run_packet`](Interpreter::run_packet), but additionally
    /// records the visited-block trace.
    pub fn run_packet_traced<S: ExecSink + ?Sized>(
        &self,
        mem: &mut DataMemory,
        packet: &Packet,
        sink: &mut S,
    ) -> Result<(ExecResult, BlockTrace), ExecError> {
        let mut trace = BlockTrace::new();
        let res = self.run(mem, packet, sink, Some(&mut trace))?;
        Ok((res, trace))
    }

    fn run<S: ExecSink + ?Sized>(
        &self,
        mem: &mut DataMemory,
        packet: &Packet,
        sink: &mut S,
        trace: Option<&mut BlockTrace>,
    ) -> Result<ExecResult, ExecError> {
        let mut env = ExecEnv {
            mem,
            packet,
            sink,
            steps: 0,
            trace,
            stack: Vec::with_capacity(self.stack_words),
        };
        let ret = self.exec_function(self.program.entry, &[], 0, &mut env, 0)?;
        Ok(ExecResult {
            return_value: ret,
            steps: env.steps,
        })
    }

    /// Runs `func_id` in a new frame on top of the register stack, its
    /// leading registers set to `args` evaluated in the caller's frame (the
    /// one at `caller_base`).
    fn exec_function<S: ExecSink + ?Sized>(
        &self,
        func_id: FuncId,
        args: &[Operand],
        caller_base: usize,
        env: &mut ExecEnv<'_, S>,
        depth: u32,
    ) -> Result<Option<u64>, ExecError> {
        if depth >= self.limits.max_call_depth {
            return Err(ExecError::CallDepth);
        }
        let func = &self.program.functions[func_id as usize];
        let costs = self.program.block_costs(func_id);
        let base = env.stack.len();
        env.stack.resize(base + func.num_regs as usize, 0);
        for (i, arg) in args.iter().enumerate() {
            env.stack[base + i] = eval(arg, &env.stack[caller_base..]);
        }

        let mut block = func.entry;
        loop {
            if let Some(trace) = env.trace.as_deref_mut() {
                trace.push((func_id, block));
            }
            let cost = &costs[block as usize];
            env.steps += cost.instructions();
            if env.steps > self.limits.max_steps {
                return Err(ExecError::StepLimit);
            }
            env.sink.retire_block(cost);
            let blk = &func.blocks[block as usize];
            for inst in &blk.insts {
                self.exec_inst(inst, base, env, depth)?;
            }
            let regs = &env.stack[base..];
            match &blk.term {
                Terminator::Jump(target) => block = *target,
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    block = if eval(cond, regs) != 0 {
                        *then_bb
                    } else {
                        *else_bb
                    };
                }
                Terminator::Return(v) => {
                    let ret = v.as_ref().map(|op| eval(op, regs));
                    env.stack.truncate(base);
                    return Ok(ret);
                }
            }
        }
    }

    /// Executes one instruction of the frame at `base` (its retirement was
    /// charged with its block's).
    #[inline]
    fn exec_inst<S: ExecSink + ?Sized>(
        &self,
        inst: &Inst,
        base: usize,
        env: &mut ExecEnv<'_, S>,
        depth: u32,
    ) -> Result<(), ExecError> {
        let regs = &mut env.stack[base..];
        match inst {
            Inst::Mov { dst, src } => {
                regs[*dst as usize] = eval(src, regs);
            }
            Inst::Bin { dst, op, a, b } => {
                regs[*dst as usize] = op.eval(eval(a, regs), eval(b, regs));
            }
            Inst::Cmp { dst, op, a, b } => {
                regs[*dst as usize] = u64::from(op.eval(eval(a, regs), eval(b, regs)));
            }
            Inst::Select {
                dst,
                cond,
                then_v,
                else_v,
            } => {
                regs[*dst as usize] = if eval(cond, regs) != 0 {
                    eval(then_v, regs)
                } else {
                    eval(else_v, regs)
                };
            }
            Inst::Load { dst, addr, width } => {
                let a = eval(addr, regs);
                env.sink.mem_access(a, width.bytes(), false);
                regs[*dst as usize] = env.mem.read(a, width.bytes());
            }
            Inst::Store { addr, value, width } => {
                let a = eval(addr, regs);
                env.sink.mem_access(a, width.bytes(), true);
                env.mem.write(a, eval(value, regs), width.bytes());
            }
            Inst::PacketField { dst, field } => {
                regs[*dst as usize] = env.packet.field(*field);
            }
            Inst::Hash { dst, func, args } => {
                let top = env.push_args(args, base);
                let hash = func.apply(&env.stack[top..]);
                env.stack.truncate(top);
                env.stack[base + *dst as usize] = hash;
            }
            Inst::Call { dst, func, args } => {
                let ret = self.exec_function(*func, args, base, env, depth + 1)?;
                if let (Some(d), Some(v)) = (dst, ret) {
                    env.stack[base + *d as usize] = v;
                }
            }
            Inst::Native { dst, func, args } => {
                let top = env.push_args(args, base);
                let helper = self
                    .natives
                    .get(*func)
                    .ok_or(ExecError::UnknownNative(func.0))?;
                env.sink.native_enter();
                let ret = helper.call(env.mem, &env.stack[top..], &mut env.sink);
                env.sink.native_exit();
                env.stack.truncate(top);
                if let Some(d) = dst {
                    env.stack[base + *d as usize] = ret;
                }
            }
        }
        Ok(())
    }
}

/// The mutable state one packet's execution threads through every frame:
/// the NF's data memory, the packet being parsed, the cost sink, the global
/// step counter, and the register stack.
struct ExecEnv<'e, S: ExecSink + ?Sized> {
    mem: &'e mut DataMemory,
    packet: &'e Packet,
    sink: &'e mut S,
    steps: u64,
    trace: Option<&'e mut BlockTrace>,
    /// Register files of the live frames, innermost last; the running frame
    /// also parks the argument values of a `Hash` or `Native` on top.
    stack: Vec<u64>,
}

impl<S: ExecSink + ?Sized> ExecEnv<'_, S> {
    /// Evaluates `args` in the frame at `base` and pushes the values on the
    /// stack; returns where they start. The caller truncates back to it.
    fn push_args(&mut self, args: &[Operand], base: usize) -> usize {
        let top = self.stack.len();
        for arg in args {
            let v = eval(arg, &self.stack[base..]);
            self.stack.push(v);
        }
        top
    }
}

#[inline]
fn eval(op: &Operand, regs: &[u64]) -> u64 {
    match op {
        Operand::Reg(r) => regs[*r as usize],
        Operand::Imm(v) => *v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use crate::cost::CountingSink;
    use crate::inst::Width;
    use castan_packet::{PacketBuilder, PacketField};

    fn run(program: &Program, mem: &mut DataMemory) -> (ExecResult, CountingSink) {
        let natives = NativeRegistry::new();
        let interp = Interpreter::new(program, &natives);
        let packet = PacketBuilder::new().src_port(7777).build();
        let mut sink = CountingSink::default();
        let res = interp.run_packet(mem, &packet, &mut sink).unwrap();
        (res, sink)
    }

    #[test]
    fn arithmetic_and_memory() {
        let mut f = FunctionBuilder::new("main", 0);
        let x = f.mov(40u64);
        let y = f.add(x, 2u64);
        f.store(0x1000u64, y, Width::W8);
        let z = f.load(0x1000u64, Width::W8);
        f.ret(z);
        let mut pb = ProgramBuilder::new();
        let main = pb.add(f);
        let program = pb.finish(main);

        let mut mem = DataMemory::new();
        let (res, sink) = run(&program, &mut mem);
        assert_eq!(res.return_value, Some(42));
        assert_eq!(mem.read(0x1000, 8), 42);
        assert_eq!(sink.loads, 1);
        assert_eq!(sink.stores, 1);
        assert_eq!(res.steps, 5); // 4 instructions + return terminator
    }

    #[test]
    fn packet_field_and_hash() {
        let mut f = FunctionBuilder::new("main", 0);
        let sport = f.packet_field(PacketField::SrcPort);
        let h = f.hash(crate::HashFunc::Flow16, vec![sport.into()]);
        f.ret(h);
        let mut pb = ProgramBuilder::new();
        let main = pb.add(f);
        let program = pb.finish(main);

        let (res, _) = run(&program, &mut DataMemory::new());
        assert_eq!(
            res.return_value,
            Some(crate::HashFunc::Flow16.apply(&[7777]))
        );
    }

    #[test]
    fn loop_counts_down() {
        // sum = 0; i = 10; while (i != 0) { sum += i; i -= 1; } return sum;
        let mut f = FunctionBuilder::new("main", 0);
        let head = f.new_block();
        let body = f.new_block();
        let done = f.new_block();
        // Use memory cells as mutable variables (no phis in this IR).
        f.store(0x10u64, 10u64, Width::W8); // i
        f.store(0x18u64, 0u64, Width::W8); // sum
        f.jump(head);

        f.switch_to(head);
        let i = f.load(0x10u64, Width::W8);
        let c = f.ne(i, 0u64);
        f.branch(c, body, done);

        f.switch_to(body);
        let i2 = f.load(0x10u64, Width::W8);
        let s = f.load(0x18u64, Width::W8);
        let s2 = f.add(s, i2);
        f.store(0x18u64, s2, Width::W8);
        let i3 = f.sub(i2, 1u64);
        f.store(0x10u64, i3, Width::W8);
        f.jump(head);

        f.switch_to(done);
        let s = f.load(0x18u64, Width::W8);
        f.ret(s);

        let mut pb = ProgramBuilder::new();
        let main = pb.add(f);
        let program = pb.finish(main);
        let (res, sink) = run(&program, &mut DataMemory::new());
        assert_eq!(res.return_value, Some(55));
        assert!(sink.instructions > 60);
    }

    #[test]
    fn traced_run_lists_every_visited_block() {
        // Reuse the count-down loop: entry + 10×(head, body) + head + done.
        let mut f = FunctionBuilder::new("main", 0);
        let head = f.new_block();
        let body = f.new_block();
        let done = f.new_block();
        f.store(0x10u64, 3u64, Width::W8);
        f.jump(head);
        f.switch_to(head);
        let i = f.load(0x10u64, Width::W8);
        let c = f.ne(i, 0u64);
        f.branch(c, body, done);
        f.switch_to(body);
        let i2 = f.load(0x10u64, Width::W8);
        let i3 = f.sub(i2, 1u64);
        f.store(0x10u64, i3, Width::W8);
        f.jump(head);
        f.switch_to(done);
        f.ret(0u64);

        let mut pb = ProgramBuilder::new();
        let main = pb.add(f);
        let program = pb.finish(main);
        let natives = NativeRegistry::new();
        let interp = Interpreter::new(&program, &natives);
        let packet = PacketBuilder::new().build();
        let mut sink = CountingSink::default();
        let (res, trace) = interp
            .run_packet_traced(&mut DataMemory::new(), &packet, &mut sink)
            .unwrap();
        // entry, then 3×(head, body), then head, done.
        assert_eq!(trace.len(), 1 + 3 * 2 + 2);
        assert_eq!(trace[0], (main, 0));
        assert_eq!(*trace.last().unwrap(), (main, done));
        // Every step the sink saw is accounted to some traced block: the
        // per-block instruction counts over the trace sum to res.steps.
        let total: u64 = trace
            .iter()
            .map(|&(fid, bid)| {
                program.functions[fid as usize].blocks[bid as usize]
                    .insts
                    .len() as u64
                    + 1
            })
            .sum();
        assert_eq!(total, res.steps);
        assert_eq!(sink.instructions, res.steps);
    }

    #[test]
    fn function_calls_pass_arguments() {
        let mut pb = ProgramBuilder::new();
        let double = pb.declare("double", 1);
        let main = pb.declare("main", 0);

        let mut db = FunctionBuilder::new("double", 1);
        let out = db.add(db.param(0), db.param(0));
        db.ret(out);
        pb.define(double, db);

        let mut mb = FunctionBuilder::new("main", 0);
        let a = mb.call(double, vec![Operand::Imm(21)]);
        let b = mb.call(double, vec![a.into()]);
        mb.ret(b);
        pb.define(main, mb);

        let program = pb.finish(main);
        let (res, _) = run(&program, &mut DataMemory::new());
        assert_eq!(res.return_value, Some(84));
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let mut f = FunctionBuilder::new("main", 0);
        let spin = f.new_block();
        f.jump(spin);
        f.switch_to(spin);
        f.jump(spin);
        let mut pb = ProgramBuilder::new();
        let main = pb.add(f);
        let program = pb.finish(main);

        let natives = NativeRegistry::new();
        let interp = Interpreter::new(&program, &natives).with_limits(RunLimits {
            max_steps: 1000,
            max_call_depth: 8,
        });
        let packet = PacketBuilder::new().build();
        let err = interp
            .run_packet(&mut DataMemory::new(), &packet, &mut crate::NullSink)
            .unwrap_err();
        assert_eq!(err, ExecError::StepLimit);
        assert!(err.to_string().contains("step limit"));
    }

    #[test]
    fn step_limit_is_exact_at_the_boundary() {
        // main: mov, call double, add, mov, ret (5 steps in one block);
        // double: add, ret (2 steps per call) — 7 steps in all. In execution
        // order the 7th step is main's return, after the call, so a limit of
        // 6 falls inside the block that contains the call.
        let mut pb = ProgramBuilder::new();
        let double = pb.declare("double", 1);
        let main = pb.declare("main", 0);
        let mut db = FunctionBuilder::new("double", 1);
        let out = db.add(db.param(0), db.param(0));
        db.ret(out);
        pb.define(double, db);
        let mut mb = FunctionBuilder::new("main", 0);
        let a = mb.mov(20u64);
        let b = mb.call(double, vec![a.into()]);
        let c = mb.add(b, 2u64);
        let d = mb.mov(c);
        mb.ret(d);
        pb.define(main, mb);
        let program = pb.finish(main);
        assert_eq!(program.functions[main as usize].blocks.len(), 1);

        let natives = NativeRegistry::new();
        let packet = PacketBuilder::new().build();
        let run_with = |max_steps: u64| {
            let interp = Interpreter::new(&program, &natives).with_limits(RunLimits {
                max_steps,
                max_call_depth: 8,
            });
            let mut sink = CountingSink::default();
            interp
                .run_packet(&mut DataMemory::new(), &packet, &mut sink)
                .map(|res| (res, sink))
        };
        let (res, sink) = run_with(7).unwrap();
        assert_eq!((res.return_value, res.steps), (Some(42), 7));
        assert_eq!(sink.instructions, 7);
        assert_eq!(run_with(6).unwrap_err(), ExecError::StepLimit);
        for max_steps in 0..=9 {
            assert_eq!(
                run_with(max_steps).is_ok(),
                max_steps >= 7,
                "limit {max_steps}"
            );
        }
    }

    #[test]
    fn unknown_native_is_an_error() {
        let mut f = FunctionBuilder::new("main", 0);
        let v = f.native(crate::NativeId(99), vec![]);
        f.ret(v);
        let mut pb = ProgramBuilder::new();
        let main = pb.add(f);
        let program = pb.finish(main);
        let natives = NativeRegistry::new();
        let interp = Interpreter::new(&program, &natives);
        let packet = PacketBuilder::new().build();
        let err = interp
            .run_packet(&mut DataMemory::new(), &packet, &mut crate::NullSink)
            .unwrap_err();
        assert_eq!(err, ExecError::UnknownNative(99));
    }

    #[test]
    fn select_behaviour() {
        let mut f = FunctionBuilder::new("main", 0);
        let c = f.eq(3u64, 3u64);
        let v = f.select(c, 111u64, 222u64);
        let c2 = f.eq(3u64, 4u64);
        let w = f.select(c2, 333u64, 444u64);
        let out = f.add(v, w);
        f.ret(out);
        let mut pb = ProgramBuilder::new();
        let main = pb.add(f);
        let program = pb.finish(main);
        let (res, _) = run(&program, &mut DataMemory::new());
        assert_eq!(res.return_value, Some(111 + 444));
    }
}
