//! Ergonomic construction of IR programs.
//!
//! The NF library builds each network function with these builders instead
//! of hand-writing instruction vectors. A [`FunctionBuilder`] tracks the
//! current insertion block and allocates fresh registers; a
//! [`ProgramBuilder`] allocates function ids up front so mutually referring
//! functions can be built in any order.

use castan_packet::PacketField;

use crate::hashes::HashFunc;
use crate::inst::{BinOp, BlockId, CmpOp, FuncId, Inst, Operand, Reg, Terminator, Width};
use crate::native::NativeId;
use crate::program::{Block, Function, Program};

/// Builds a single function.
#[derive(Clone, Debug)]
pub struct FunctionBuilder {
    name: String,
    num_params: u32,
    next_reg: Reg,
    blocks: Vec<PartialBlock>,
    current: BlockId,
}

#[derive(Clone, Debug)]
struct PartialBlock {
    insts: Vec<Inst>,
    term: Option<Terminator>,
}

impl FunctionBuilder {
    /// Starts a function with `num_params` parameters; arguments occupy
    /// registers `0..num_params`. The entry block is block 0 and is the
    /// initial insertion point.
    pub fn new(name: &str, num_params: u32) -> Self {
        FunctionBuilder {
            name: name.to_string(),
            num_params,
            next_reg: num_params,
            blocks: vec![PartialBlock {
                insts: Vec::new(),
                term: None,
            }],
            current: 0,
        }
    }

    /// Register holding parameter `i`.
    pub fn param(&self, i: u32) -> Reg {
        assert!(i < self.num_params, "parameter index out of range");
        i
    }

    /// Allocates a fresh register.
    pub fn fresh(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    /// Creates a new (empty, unterminated) block and returns its id without
    /// changing the insertion point.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(PartialBlock {
            insts: Vec::new(),
            term: None,
        });
        (self.blocks.len() - 1) as BlockId
    }

    /// Moves the insertion point to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!((block as usize) < self.blocks.len(), "unknown block");
        self.current = block;
    }

    /// The current insertion block.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    fn push(&mut self, inst: Inst) {
        let blk = &mut self.blocks[self.current as usize];
        assert!(
            blk.term.is_none(),
            "cannot append to terminated block {} in {}",
            self.current,
            self.name
        );
        blk.insts.push(inst);
    }

    fn terminate(&mut self, term: Terminator) {
        let blk = &mut self.blocks[self.current as usize];
        assert!(
            blk.term.is_none(),
            "block {} in {} already terminated",
            self.current,
            self.name
        );
        blk.term = Some(term);
    }

    // ---- value-producing instructions ------------------------------------

    /// `dst = src`.
    pub fn mov(&mut self, src: impl Into<Operand>) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Mov {
            dst,
            src: src.into(),
        });
        dst
    }

    /// `dst = src` into an *existing* register.
    ///
    /// The IR has no phi nodes; loop variables are modelled as registers
    /// created before the loop and re-assigned inside it with this method.
    pub fn assign(&mut self, dst: Reg, src: impl Into<Operand>) {
        assert!(dst < self.next_reg, "assign to an unallocated register");
        self.push(Inst::Mov {
            dst,
            src: src.into(),
        });
    }

    /// Emits a binary operation and returns the destination register.
    pub fn bin(&mut self, op: BinOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Bin {
            dst,
            op,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Add, a, b)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Sub, a, b)
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Mul, a, b)
    }

    /// Bitwise and.
    pub fn and(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::And, a, b)
    }

    /// Bitwise or.
    pub fn or(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Or, a, b)
    }

    /// Bitwise xor.
    pub fn xor(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Xor, a, b)
    }

    /// Logical shift left.
    pub fn shl(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Shl, a, b)
    }

    /// Logical shift right.
    pub fn shr(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Shr, a, b)
    }

    /// Unsigned remainder.
    pub fn urem(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::URem, a, b)
    }

    /// Emits a comparison producing 0/1.
    pub fn cmp(&mut self, op: CmpOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Cmp {
            dst,
            op,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Equality comparison.
    pub fn eq(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.cmp(CmpOp::Eq, a, b)
    }

    /// Inequality comparison.
    pub fn ne(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.cmp(CmpOp::Ne, a, b)
    }

    /// Unsigned less-than.
    pub fn ult(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.cmp(CmpOp::Ult, a, b)
    }

    /// Unsigned greater-or-equal.
    pub fn uge(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.cmp(CmpOp::Uge, a, b)
    }

    /// Conditional select.
    pub fn select(
        &mut self,
        cond: impl Into<Operand>,
        then_v: impl Into<Operand>,
        else_v: impl Into<Operand>,
    ) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Select {
            dst,
            cond: cond.into(),
            then_v: then_v.into(),
            else_v: else_v.into(),
        });
        dst
    }

    /// Memory load.
    pub fn load(&mut self, addr: impl Into<Operand>, width: Width) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Load {
            dst,
            addr: addr.into(),
            width,
        });
        dst
    }

    /// Memory store.
    pub fn store(&mut self, addr: impl Into<Operand>, value: impl Into<Operand>, width: Width) {
        self.push(Inst::Store {
            addr: addr.into(),
            value: value.into(),
            width,
        });
    }

    /// Packet header field read.
    pub fn packet_field(&mut self, field: PacketField) -> Reg {
        let dst = self.fresh();
        self.push(Inst::PacketField { dst, field });
        dst
    }

    /// Hash-function application (the havoc point for the analysis).
    pub fn hash(&mut self, func: HashFunc, args: Vec<Operand>) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Hash { dst, func, args });
        dst
    }

    /// Call returning a value.
    pub fn call(&mut self, func: FuncId, args: Vec<Operand>) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Call {
            dst: Some(dst),
            func,
            args,
        });
        dst
    }

    /// Call discarding the return value.
    pub fn call_void(&mut self, func: FuncId, args: Vec<Operand>) {
        self.push(Inst::Call {
            dst: None,
            func,
            args,
        });
    }

    /// Native helper call returning a value.
    pub fn native(&mut self, func: NativeId, args: Vec<Operand>) -> Reg {
        let dst = self.fresh();
        self.push(Inst::Native {
            dst: Some(dst),
            func,
            args,
        });
        dst
    }

    // ---- terminators ------------------------------------------------------

    /// Unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.terminate(Terminator::Jump(target));
    }

    /// Conditional branch on `cond != 0`.
    pub fn branch(&mut self, cond: impl Into<Operand>, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(Terminator::Branch {
            cond: cond.into(),
            then_bb,
            else_bb,
        });
    }

    /// Return a value.
    pub fn ret(&mut self, value: impl Into<Operand>) {
        self.terminate(Terminator::Return(Some(value.into())));
    }

    /// Return without a value.
    pub fn ret_void(&mut self) {
        self.terminate(Terminator::Return(None));
    }

    /// Finishes the function.
    ///
    /// # Panics
    /// Panics if any block lacks a terminator.
    pub fn finish(self) -> Function {
        let blocks: Vec<Block> = self
            .blocks
            .into_iter()
            .enumerate()
            .map(|(i, b)| Block {
                insts: b.insts,
                term: b.term.unwrap_or_else(|| {
                    panic!("block {} of function {} lacks a terminator", i, self.name)
                }),
            })
            .collect();
        Function {
            name: self.name,
            num_params: self.num_params,
            num_regs: self.next_reg.max(self.num_params),
            entry: 0,
            blocks,
        }
    }
}

/// Builds a whole program.
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    declared: Vec<(String, u32)>,
    defined: Vec<Option<Function>>,
}

impl ProgramBuilder {
    /// Creates an empty program builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a function, reserving its [`FuncId`] so other functions can
    /// call it before it is defined.
    pub fn declare(&mut self, name: &str, num_params: u32) -> FuncId {
        self.declared.push((name.to_string(), num_params));
        self.defined.push(None);
        (self.declared.len() - 1) as FuncId
    }

    /// Defines a previously declared function.
    ///
    /// # Panics
    /// Panics if the id is unknown, already defined, or if the builder's
    /// name / parameter count disagree with the declaration.
    pub fn define(&mut self, id: FuncId, builder: FunctionBuilder) {
        let idx = id as usize;
        assert!(idx < self.declared.len(), "undeclared function id {id}");
        assert!(self.defined[idx].is_none(), "function {id} defined twice");
        let func = builder.finish();
        assert_eq!(func.name, self.declared[idx].0, "definition name mismatch");
        assert_eq!(
            func.num_params, self.declared[idx].1,
            "definition arity mismatch"
        );
        self.defined[idx] = Some(func);
    }

    /// Declares and defines in one step (for functions nothing refers to
    /// before their definition).
    pub fn add(&mut self, builder: FunctionBuilder) -> FuncId {
        let id = self.declare(&builder.name.clone(), builder.num_params);
        self.define(id, builder);
        id
    }

    /// Finishes the program with the given entry point and validates it.
    ///
    /// # Panics
    /// Panics if any declared function is undefined or validation fails —
    /// programs are built by library code, so malformed IR is a bug, not a
    /// runtime condition.
    pub fn finish(self, entry: FuncId) -> Program {
        let functions: Vec<Function> = self
            .defined
            .into_iter()
            .enumerate()
            .map(|(i, f)| f.unwrap_or_else(|| panic!("function {i} declared but never defined")))
            .collect();
        let program = Program::new(functions, entry);
        if let Err(e) = program.validate() {
            panic!("builder produced an invalid program: {e}");
        }
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_function() {
        let mut f = FunctionBuilder::new("add3", 1);
        let x = f.param(0);
        let y = f.add(x, 3u64);
        f.ret(y);
        let func = f.finish();
        assert_eq!(func.num_params, 1);
        assert_eq!(func.num_regs, 2);
        assert_eq!(func.blocks.len(), 1);
        assert_eq!(func.blocks[0].insts.len(), 1);
    }

    #[test]
    fn diamond_control_flow() {
        let mut f = FunctionBuilder::new("abs_diff", 2);
        let a = f.param(0);
        let b = f.param(1);
        let bigger = f.new_block();
        let smaller = f.new_block();
        let done = f.new_block();
        let c = f.ult(a, b);
        f.branch(c, smaller, bigger);

        f.switch_to(bigger);
        let d1 = f.sub(a, b);
        f.jump(done);
        f.switch_to(smaller);
        let d2 = f.sub(b, a);
        f.jump(done);

        f.switch_to(done);
        // No phi nodes in this IR: the convention is to write results to a
        // shared memory cell or recompute; here we just return a constant to
        // exercise the structure.
        let _ = (d1, d2);
        f.ret(0u64);

        let func = f.finish();
        assert_eq!(func.blocks.len(), 4);
        assert!(matches!(func.blocks[0].term, Terminator::Branch { .. }));
    }

    #[test]
    fn program_builder_forward_references() {
        let mut pb = ProgramBuilder::new();
        let helper = pb.declare("helper", 1);
        let main = pb.declare("main", 0);

        let mut mb = FunctionBuilder::new("main", 0);
        let v = mb.call(helper, vec![Operand::Imm(4)]);
        mb.ret(v);
        pb.define(main, mb);

        let mut hb = FunctionBuilder::new("helper", 1);
        let doubled = hb.add(hb.param(0), hb.param(0));
        hb.ret(doubled);
        pb.define(helper, hb);

        let program = pb.finish(main);
        assert_eq!(program.functions.len(), 2);
        assert!(program.validate().is_ok());
    }

    #[test]
    fn assign_reuses_registers() {
        let mut f = FunctionBuilder::new("main", 0);
        let var = f.mov(0u64);
        let tmp = f.add(var, 5u64);
        f.assign(var, tmp);
        f.ret(var);
        let func = f.finish();
        // mov, add, assign-mov + return
        assert_eq!(func.blocks[0].insts.len(), 3);
    }

    #[test]
    #[should_panic(expected = "unallocated register")]
    fn assign_to_unallocated_register_panics() {
        let mut f = FunctionBuilder::new("main", 0);
        f.assign(5, 1u64);
    }

    #[test]
    #[should_panic(expected = "lacks a terminator")]
    fn unterminated_block_panics() {
        let mut f = FunctionBuilder::new("broken", 0);
        let _ = f.mov(1u64);
        let _ = f.finish();
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminator_panics() {
        let mut f = FunctionBuilder::new("broken", 0);
        f.ret_void();
        f.ret_void();
    }
}
