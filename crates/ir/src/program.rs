//! Programs, functions, and basic blocks, plus structural validation.

use crate::cfg::{class_of, class_of_term};
use crate::cost::BlockCost;
use crate::inst::{BlockId, FuncId, Inst, Operand, Reg, Terminator};

/// A basic block: straight-line instructions plus one terminator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// The block's instructions.
    pub insts: Vec<Inst>,
    /// The block's terminator.
    pub term: Terminator,
}

/// A function.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Function {
    /// Human-readable name (used in diagnostics and the ICFG dump).
    pub name: String,
    /// Number of parameters; arguments arrive in registers `0..num_params`.
    pub num_params: u32,
    /// Total number of registers the function uses.
    pub num_regs: u32,
    /// Entry block (always block 0 for builder-produced functions).
    pub entry: BlockId,
    /// Basic blocks.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Total number of instructions including terminators.
    pub fn node_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len() + 1).sum()
    }
}

/// A whole NF program.
///
/// Built by [`Program::new`] (or a [`ProgramBuilder`](crate::ProgramBuilder)),
/// which derives what each block retires; editing `functions` afterwards
/// does not re-derive it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    /// All functions.
    pub functions: Vec<Function>,
    /// The per-packet entry point.
    pub entry: FuncId,
    /// What each block retires, indexed like `functions[f].blocks[b]`;
    /// derived from the blocks by [`Program::new`].
    costs: Vec<Box<[BlockCost]>>,
}

/// Structural validation failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ValidationError {
    /// The program has no functions or the entry index is out of range.
    BadEntry,
    /// A function has no blocks or its entry block is out of range.
    BadFunctionEntry(FuncId),
    /// A terminator references a non-existent block.
    BadBlockTarget {
        /// Offending function.
        func: FuncId,
        /// Offending block.
        block: BlockId,
        /// The missing target.
        target: BlockId,
    },
    /// A call references a non-existent function.
    BadCallTarget {
        /// Offending function.
        func: FuncId,
        /// The missing callee.
        callee: FuncId,
    },
    /// A call passes a different number of arguments than the callee's
    /// parameter count.
    ArityMismatch {
        /// Offending function.
        func: FuncId,
        /// Callee.
        callee: FuncId,
        /// Arguments passed.
        got: usize,
        /// Parameters expected.
        expected: u32,
    },
    /// An instruction references a register ≥ `num_regs`.
    BadRegister {
        /// Offending function.
        func: FuncId,
        /// The out-of-range register.
        reg: Reg,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::BadEntry => write!(f, "program entry function is missing"),
            ValidationError::BadFunctionEntry(id) => {
                write!(f, "function {id} has no valid entry block")
            }
            ValidationError::BadBlockTarget {
                func,
                block,
                target,
            } => write!(
                f,
                "function {func}, block {block}: jump to non-existent block {target}"
            ),
            ValidationError::BadCallTarget { func, callee } => {
                write!(f, "function {func} calls non-existent function {callee}")
            }
            ValidationError::ArityMismatch {
                func,
                callee,
                got,
                expected,
            } => write!(
                f,
                "function {func} calls function {callee} with {got} args, expected {expected}"
            ),
            ValidationError::BadRegister { func, reg } => {
                write!(f, "function {func} uses out-of-range register {reg}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

impl Program {
    /// Assembles a program and derives what each of its blocks retires.
    pub fn new(functions: Vec<Function>, entry: FuncId) -> Program {
        let costs = functions
            .iter()
            .map(|f| {
                f.blocks
                    .iter()
                    .map(|b| {
                        b.insts
                            .iter()
                            .map(class_of)
                            .chain(std::iter::once(class_of_term(&b.term)))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Program {
            functions,
            entry,
            costs,
        }
    }

    /// What each block of function `func` retires when it runs, indexed by
    /// block.
    #[inline]
    pub(crate) fn block_costs(&self, func: FuncId) -> &[BlockCost] {
        &self.costs[func as usize]
    }

    /// Validates structural well-formedness; the interpreter and the
    /// symbolic engine both assume a validated program.
    pub fn validate(&self) -> Result<(), ValidationError> {
        if self.functions.is_empty() || self.entry as usize >= self.functions.len() {
            return Err(ValidationError::BadEntry);
        }
        for (fid, func) in self.functions.iter().enumerate() {
            let fid = fid as FuncId;
            if func.blocks.is_empty() || func.entry as usize >= func.blocks.len() {
                return Err(ValidationError::BadFunctionEntry(fid));
            }
            for (bid, block) in func.blocks.iter().enumerate() {
                let bid = bid as BlockId;
                for target in block.term.successors() {
                    if target as usize >= func.blocks.len() {
                        return Err(ValidationError::BadBlockTarget {
                            func: fid,
                            block: bid,
                            target,
                        });
                    }
                }
                for inst in &block.insts {
                    self.validate_inst(fid, func, inst)?;
                }
                self.validate_term_regs(fid, func, &block.term)?;
            }
        }
        Ok(())
    }

    fn check_reg(&self, fid: FuncId, func: &Function, r: Reg) -> Result<(), ValidationError> {
        if r >= func.num_regs {
            Err(ValidationError::BadRegister { func: fid, reg: r })
        } else {
            Ok(())
        }
    }

    fn check_op(&self, fid: FuncId, func: &Function, op: &Operand) -> Result<(), ValidationError> {
        match op {
            Operand::Reg(r) => self.check_reg(fid, func, *r),
            Operand::Imm(_) => Ok(()),
        }
    }

    fn validate_term_regs(
        &self,
        fid: FuncId,
        func: &Function,
        term: &Terminator,
    ) -> Result<(), ValidationError> {
        match term {
            Terminator::Branch { cond, .. } => self.check_op(fid, func, cond),
            Terminator::Return(Some(op)) => self.check_op(fid, func, op),
            _ => Ok(()),
        }
    }

    fn validate_inst(
        &self,
        fid: FuncId,
        func: &Function,
        inst: &Inst,
    ) -> Result<(), ValidationError> {
        match inst {
            Inst::Mov { dst, src } => {
                self.check_reg(fid, func, *dst)?;
                self.check_op(fid, func, src)
            }
            Inst::Bin { dst, a, b, .. } | Inst::Cmp { dst, a, b, .. } => {
                self.check_reg(fid, func, *dst)?;
                self.check_op(fid, func, a)?;
                self.check_op(fid, func, b)
            }
            Inst::Select {
                dst,
                cond,
                then_v,
                else_v,
            } => {
                self.check_reg(fid, func, *dst)?;
                self.check_op(fid, func, cond)?;
                self.check_op(fid, func, then_v)?;
                self.check_op(fid, func, else_v)
            }
            Inst::Load { dst, addr, .. } => {
                self.check_reg(fid, func, *dst)?;
                self.check_op(fid, func, addr)
            }
            Inst::Store { addr, value, .. } => {
                self.check_op(fid, func, addr)?;
                self.check_op(fid, func, value)
            }
            Inst::PacketField { dst, .. } => self.check_reg(fid, func, *dst),
            Inst::Hash { dst, args, .. } => {
                self.check_reg(fid, func, *dst)?;
                for a in args {
                    self.check_op(fid, func, a)?;
                }
                Ok(())
            }
            Inst::Call {
                dst,
                func: callee,
                args,
            } => {
                if let Some(d) = dst {
                    self.check_reg(fid, func, *d)?;
                }
                for a in args {
                    self.check_op(fid, func, a)?;
                }
                let callee_fn =
                    self.functions
                        .get(*callee as usize)
                        .ok_or(ValidationError::BadCallTarget {
                            func: fid,
                            callee: *callee,
                        })?;
                if args.len() != callee_fn.num_params as usize {
                    return Err(ValidationError::ArityMismatch {
                        func: fid,
                        callee: *callee,
                        got: args.len(),
                        expected: callee_fn.num_params,
                    });
                }
                Ok(())
            }
            Inst::Native { dst, args, .. } => {
                if let Some(d) = dst {
                    self.check_reg(fid, func, *d)?;
                }
                for a in args {
                    self.check_op(fid, func, a)?;
                }
                Ok(())
            }
        }
    }

    /// The entry function.
    pub fn entry_function(&self) -> &Function {
        &self.functions[self.entry as usize]
    }

    /// Total instruction count across all functions (including terminators).
    pub fn total_nodes(&self) -> usize {
        self.functions.iter().map(Function::node_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{CmpOp, Width};

    fn trivial_function(name: &str) -> Function {
        Function {
            name: name.to_string(),
            num_params: 0,
            num_regs: 2,
            entry: 0,
            blocks: vec![Block {
                insts: vec![Inst::Mov {
                    dst: 0,
                    src: Operand::Imm(1),
                }],
                term: Terminator::Return(Some(Operand::Reg(0))),
            }],
        }
    }

    #[test]
    fn valid_trivial_program() {
        let p = Program::new(vec![trivial_function("f")], 0);
        assert!(p.validate().is_ok());
        assert_eq!(p.total_nodes(), 2);
        assert_eq!(p.entry_function().name, "f");
    }

    #[test]
    fn detects_bad_entry() {
        let p = Program::new(vec![], 0);
        assert_eq!(p.validate(), Err(ValidationError::BadEntry));
        let p2 = Program::new(vec![trivial_function("f")], 5);
        assert_eq!(p2.validate(), Err(ValidationError::BadEntry));
    }

    #[test]
    fn detects_bad_block_target() {
        let mut f = trivial_function("f");
        f.blocks[0].term = Terminator::Jump(9);
        let p = Program::new(vec![f], 0);
        assert!(matches!(
            p.validate(),
            Err(ValidationError::BadBlockTarget { target: 9, .. })
        ));
    }

    #[test]
    fn detects_bad_register() {
        let mut f = trivial_function("f");
        f.blocks[0].insts.push(Inst::Cmp {
            dst: 77,
            op: CmpOp::Eq,
            a: Operand::Reg(0),
            b: Operand::Imm(0),
        });
        let p = Program::new(vec![f], 0);
        assert!(matches!(
            p.validate(),
            Err(ValidationError::BadRegister { reg: 77, .. })
        ));
    }

    #[test]
    fn detects_bad_call_and_arity() {
        let mut caller = trivial_function("caller");
        caller.blocks[0].insts.push(Inst::Call {
            dst: None,
            func: 3,
            args: vec![],
        });
        let p = Program::new(vec![caller.clone(), trivial_function("callee")], 0);
        assert!(matches!(
            p.validate(),
            Err(ValidationError::BadCallTarget { callee: 3, .. })
        ));

        caller.blocks[0].insts.pop();
        caller.blocks[0].insts.push(Inst::Call {
            dst: None,
            func: 1,
            args: vec![Operand::Imm(0)],
        });
        let p = Program::new(vec![caller, trivial_function("callee")], 0);
        assert!(matches!(
            p.validate(),
            Err(ValidationError::ArityMismatch {
                got: 1,
                expected: 0,
                ..
            })
        ));
    }

    #[test]
    fn validation_error_display() {
        let e = ValidationError::BadBlockTarget {
            func: 1,
            block: 2,
            target: 3,
        };
        assert!(e.to_string().contains("non-existent block 3"));
    }

    #[test]
    fn load_store_register_checks() {
        let mut f = trivial_function("f");
        f.blocks[0].insts.push(Inst::Store {
            addr: Operand::Reg(99),
            value: Operand::Imm(0),
            width: Width::W8,
        });
        let p = Program::new(vec![f], 0);
        assert!(matches!(
            p.validate(),
            Err(ValidationError::BadRegister { reg: 99, .. })
        ));
    }
}
