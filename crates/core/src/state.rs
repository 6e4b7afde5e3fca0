//! Symbolic execution states.
//!
//! A state is one partially explored path through the NF over the sequence
//! of N symbolic packets: a call stack of frames with symbolic registers,
//! the copy-on-write symbolic memory, the path constraint, the havoc log,
//! the state of the analysis cache model, and the accumulated cost
//! bookkeeping the searcher ranks by.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use castan_ir::{BlockId, FuncId, Program, Reg};

use crate::cache::CacheModel;
use crate::expr::{AtomId, AtomTable, Constraint, SymExpr};
use crate::havoc::HavocRecord;
use crate::report::PathMetrics;
use crate::solve::{Answer, Model};
use crate::symmem::SymMemory;

/// The path constraint: the constraints a path has assumed, in the order it
/// assumed them, together with their independence slicing and what each
/// slice answered.
///
/// The solver answers a query per *component* — a set of conjuncts connected
/// by shared atoms (KLEE's independence optimisation). A path constraint
/// grows one constraint at a time and is asked about a dozen times in
/// between, so it carries its components instead of having every query
/// re-derive them: [`ConstraintSet::push`] merges the components the new
/// constraint's atoms touch and leaves every other one as it is, and each
/// component has a fill-once slot for its answer, so a query solves only the
/// component its tentative constraint lands in and reads the rest.
///
/// Everything sits behind one `Arc`: a fork is one reference-count bump, and
/// the first `push` after it copies the three index vectors but none of the
/// components — those are shared, answers included, by every state that
/// inherits them, across worker threads. Which
/// state fills a slot first depends on scheduling; what it is filled with
/// does not, because a component's answer is a pure function of its
/// conjuncts and of how wide the atom table says their atoms are. Hence the
/// one rule of use: a set and the sets forked off it are always asked about
/// against tables that agree on the atoms its constraints mention (a
/// state's own, growing table does).
///
/// Reads go through `Deref<Target = [Constraint]>`, so call sites treat it
/// like a slice.
#[derive(Clone, Debug, Default)]
pub struct ConstraintSet(Arc<Sliced>);

#[derive(Debug, Default)]
struct Sliced {
    constraints: Vec<Constraint>,
    /// The connected components of the conjuncts under "shares an atom", in
    /// the order of their first members.
    components: Vec<Arc<PathComponent>>,
    /// By `AtomId` (as far as the constraints mention atoms): the component
    /// the atom belongs to.
    component_of: Vec<u32>,
    /// Some conjunct has no atoms and is false.
    falsified: bool,
}

/// A conjunct of a path constraint by position: the `conjunct`-th of the
/// `constraint`-th constraint. Ordered as the path is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Member {
    pub(crate) constraint: u32,
    pub(crate) conjunct: u32,
}

/// One component of a path constraint.
#[derive(Debug)]
pub(crate) struct PathComponent {
    /// In path order.
    pub(crate) members: Box<[Member]>,
    /// The members' atoms, ascending, each once.
    pub(crate) atoms: Box<[AtomId]>,
    /// What the component answered, once some solver has been asked.
    pub(crate) answer: OnceLock<Arc<Answer>>,
}

const NO_COMPONENT: u32 = u32::MAX;

impl ConstraintSet {
    /// Empty constraint set.
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Appends a constraint, copying the index vectors only when shared and
    /// re-slicing only the components the constraint's atoms touch.
    pub fn push(&mut self, c: Constraint) {
        if Arc::get_mut(&mut self.0).is_none() {
            self.0 = Arc::new(self.0.successor());
        }
        let this = Arc::get_mut(&mut self.0).expect("not shared any more");
        let constraint = this.constraints.len() as u32;
        for (conjunct, asserted) in c.conjuncts().iter().enumerate() {
            let member = Member {
                constraint,
                conjunct: conjunct as u32,
            };
            match asserted.atoms.last() {
                Some(&top) => this.add(member, &asserted.atoms, top),
                // A true concrete conjunct constrains nothing.
                None => this.falsified |= !asserted.holds(&|_| 0),
            }
        }
        this.constraints.push(c);
    }

    /// The components, in the order of their first members.
    pub(crate) fn components(&self) -> &[Arc<PathComponent>] {
        &self.0.components
    }

    /// Index of the component `atom` belongs to, if any constraint mentions
    /// it.
    pub(crate) fn component_of(&self, atom: AtomId) -> Option<usize> {
        match self.0.component_of.get(atom as usize) {
            None | Some(&NO_COMPONENT) => None,
            Some(&c) => Some(c as usize),
        }
    }

    /// True if some conjunct is false whatever the atoms are.
    pub(crate) fn falsified(&self) -> bool {
        self.0.falsified
    }
}

impl Sliced {
    /// A copy to push one constraint onto, with room for that and no more:
    /// a state holds one of these, and hundreds of states are live at once.
    fn successor(&self) -> Sliced {
        let mut constraints = Vec::with_capacity(self.constraints.len() + 1);
        constraints.extend_from_slice(&self.constraints);
        let mut components = Vec::with_capacity(self.components.len() + 1);
        components.extend_from_slice(&self.components);
        Sliced {
            constraints,
            components,
            component_of: self.component_of.clone(),
            falsified: self.falsified,
        }
    }

    /// Puts `member`, over `atoms` (ascending, `top` the last), into the
    /// component its atoms touch — the union of them, if several.
    fn add(&mut self, member: Member, atoms: &[AtomId], top: AtomId) {
        if let Some(more) = (top as usize + 1).checked_sub(self.component_of.len()) {
            self.component_of.reserve_exact(more);
            self.component_of.resize(top as usize + 1, NO_COMPONENT);
        }
        // The union sits where the earliest component it absorbs sat: that
        // one has its first member.
        let home = atoms
            .iter()
            .map(|&a| self.component_of[a as usize])
            .min()
            .expect("the conjunct has atoms");
        let old = self.components.get(home as usize);
        let home = match old {
            Some(_) => home,
            None => self.components.len() as u32,
        };
        let mut members = Vec::with_capacity(old.map_or(0, |old| old.members.len()) + 1);
        let mut comp_atoms = Vec::with_capacity(old.map_or(0, |old| old.atoms.len()) + atoms.len());
        if let Some(old) = old {
            members.extend_from_slice(&old.members);
            comp_atoms.extend_from_slice(&old.atoms);
        }
        let mut absorbed: Vec<u32> = Vec::new();
        for &a in atoms {
            let from = std::mem::replace(&mut self.component_of[a as usize], home);
            if from == NO_COMPONENT {
                comp_atoms.push(a);
            } else if from != home {
                let other = &self.components[from as usize];
                members.extend_from_slice(&other.members);
                comp_atoms.extend_from_slice(&other.atoms);
                for &b in other.atoms.iter() {
                    self.component_of[b as usize] = home;
                }
                absorbed.push(from);
            }
        }
        if !absorbed.is_empty() {
            members.sort_unstable();
        }
        members.push(member);
        comp_atoms.sort_unstable();
        let union = Arc::new(PathComponent {
            members: members.into(),
            atoms: comp_atoms.into(),
            answer: OnceLock::new(),
        });
        match self.components.get_mut(home as usize) {
            Some(old) => *old = union,
            None => self.components.push(union),
        }
        if !absorbed.is_empty() {
            // The components behind an absorbed one move up.
            let mut index = 0;
            self.components.retain(|_| {
                index += 1;
                !absorbed.contains(&(index - 1))
            });
            for (i, component) in self.components.iter().enumerate() {
                for &a in component.atoms.iter() {
                    self.component_of[a as usize] = i as u32;
                }
            }
        }
    }
}

impl Deref for ConstraintSet {
    type Target = [Constraint];

    fn deref(&self) -> &[Constraint] {
        &self.0.constraints
    }
}

impl Extend<Constraint> for ConstraintSet {
    fn extend<I: IntoIterator<Item = Constraint>>(&mut self, constraints: I) {
        for c in constraints {
            self.push(c);
        }
    }
}

impl FromIterator<Constraint> for ConstraintSet {
    fn from_iter<I: IntoIterator<Item = Constraint>>(constraints: I) -> ConstraintSet {
        let mut set = ConstraintSet::new();
        set.extend(constraints);
        set
    }
}

/// One activation record.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The function being executed.
    pub func: FuncId,
    /// Current basic block.
    pub block: BlockId,
    /// Index of the next instruction in the block (== instruction count of
    /// the block when the terminator is next).
    pub inst_idx: usize,
    /// Symbolic register file.
    pub regs: Vec<SymExpr>,
    /// Caller register that receives this frame's return value.
    pub ret_dst: Option<Reg>,
}

impl Frame {
    /// Creates a frame for `func` with zero-initialised registers and the
    /// given arguments in the first registers.
    pub fn call(
        program: &Program,
        func: FuncId,
        args: Vec<SymExpr>,
        ret_dst: Option<Reg>,
    ) -> Frame {
        let f = &program.functions[func as usize];
        let mut regs = vec![SymExpr::constant(0); f.num_regs as usize];
        for (i, a) in args.into_iter().enumerate() {
            regs[i] = a;
        }
        Frame {
            func,
            block: f.entry,
            inst_idx: 0,
            regs,
            ret_dst,
        }
    }
}

/// Why a state stopped being runnable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateStatus {
    /// Still explorable.
    Running,
    /// Processed all N packets.
    Completed,
    /// Became infeasible or hit an execution error and was abandoned.
    Dead,
}

/// One execution state.
#[derive(Clone, Debug)]
pub struct ExecState {
    /// Unique id (diagnostics).
    pub id: u64,
    /// Call stack (empty only transiently at packet boundaries).
    pub frames: Vec<Frame>,
    /// Symbolic data memory.
    pub memory: SymMemory,
    /// Path constraint (copy-on-write across forks).
    pub constraints: ConstraintSet,
    /// Havoced hash applications on this path.
    pub havocs: Vec<HavocRecord>,
    /// Analysis cache model state.
    pub cache: Box<dyn CacheModel>,
    /// Atoms created along this path.
    pub atoms: AtomTable,
    /// Index of the packet currently being processed (0-based).
    pub packet_idx: u32,
    /// Total packets to process.
    pub packets_target: u32,
    /// Metrics of the packet currently being processed.
    pub current: PathMetrics,
    /// L3-miss count at the start of the current packet (to compute deltas).
    pub misses_at_packet_start: u64,
    /// Metrics of completed packets.
    pub completed: Vec<PathMetrics>,
    /// Concrete data addresses this path has accessed (newest last, capped).
    pub recent_addrs: RecentAddrs,
    /// A cached satisfying assignment for the path constraint, maintained by
    /// the engine (atoms missing from it read as 0). Lets feasibility
    /// queries skip the solver when the witness already satisfies the
    /// candidate constraint.
    pub witness: Option<Arc<Model>>,
    /// Life-cycle status.
    pub status: StateStatus,
}

/// Cap on the remembered recent addresses (reuse candidates).
const RECENT_CAP: usize = 512;

/// The last 512 addresses a path accessed, newest last; reads as a slice.
/// An address that falls out of the window is only stepped over — the buffer
/// is compacted once per 512 evictions — and a fork copies the window alone.
#[derive(Debug, Default)]
pub struct RecentAddrs {
    buf: Vec<u64>,
    /// The window is `buf[start..]`.
    start: usize,
}

impl RecentAddrs {
    fn push(&mut self, addr: u64) {
        self.buf.push(addr);
        if self.buf.len() - self.start > RECENT_CAP {
            self.start += 1;
            if self.start == RECENT_CAP {
                self.buf.drain(..self.start);
                self.start = 0;
            }
        }
    }
}

impl Clone for RecentAddrs {
    fn clone(&self) -> RecentAddrs {
        RecentAddrs {
            buf: self.to_vec(),
            start: 0,
        }
    }
}

impl Deref for RecentAddrs {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.buf[self.start..]
    }
}

impl ExecState {
    /// Creates the initial state for an analysis run.
    pub fn initial(
        program: &Program,
        memory: SymMemory,
        cache: Box<dyn CacheModel>,
        packets_target: u32,
    ) -> ExecState {
        ExecState {
            id: 0,
            frames: vec![Frame::call(program, program.entry, vec![], None)],
            memory,
            constraints: ConstraintSet::new(),
            havocs: Vec::new(),
            cache,
            atoms: AtomTable::new(),
            packet_idx: 0,
            packets_target,
            current: PathMetrics::default(),
            misses_at_packet_start: 0,
            completed: Vec::new(),
            recent_addrs: RecentAddrs::default(),
            witness: None,
            status: StateStatus::Running,
        }
    }

    /// The top frame.
    pub fn top(&self) -> &Frame {
        self.frames.last().expect("running state has a frame")
    }

    /// The top frame, mutably.
    pub fn top_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("running state has a frame")
    }

    /// Records a concrete data-address access (for reuse candidates).
    pub fn note_address(&mut self, addr: u64) {
        self.recent_addrs.push(addr);
    }

    /// Adds a path constraint.
    pub fn assume(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// Highest per-packet cost among completed packets.
    pub fn max_completed_cpp(&self) -> u64 {
        self.completed
            .iter()
            .map(|m| m.est_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Closes the current packet's accounting and either rolls over to the
    /// next packet (new entry frame) or marks the state completed.
    pub fn finish_packet(&mut self, program: &Program) {
        let mut m = self.current;
        m.est_l3_misses = self.cache.estimated_misses() - self.misses_at_packet_start;
        self.completed.push(m);
        self.current = PathMetrics::default();
        self.misses_at_packet_start = self.cache.estimated_misses();
        self.packet_idx += 1;
        if self.packet_idx >= self.packets_target {
            self.status = StateStatus::Completed;
        } else {
            self.frames = vec![Frame::call(program, program.entry, vec![], None)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::NoCacheModel;
    use crate::solve::{SolveOutcome, Solver};
    use castan_ir::{CmpOp, DataMemory, FunctionBuilder, ProgramBuilder};
    use castan_packet::PacketField;

    fn tiny_program() -> Program {
        let mut f = FunctionBuilder::new("main", 0);
        f.ret(1u64);
        let mut pb = ProgramBuilder::new();
        let main = pb.add(f);
        pb.finish(main)
    }

    fn fresh_state(packets: u32) -> (Program, ExecState) {
        let p = tiny_program();
        let s = ExecState::initial(
            &p,
            SymMemory::new(Arc::new(DataMemory::new())),
            Box::new(NoCacheModel::default()),
            packets,
        );
        (p, s)
    }

    #[test]
    fn initial_state_has_entry_frame() {
        let (_, s) = fresh_state(3);
        assert_eq!(s.frames.len(), 1);
        assert_eq!(s.top().func, 0);
        assert_eq!(s.status, StateStatus::Running);
        assert_eq!(s.max_completed_cpp(), 0);
    }

    #[test]
    fn packet_rollover_and_completion() {
        let (p, mut s) = fresh_state(2);
        s.current.est_cycles = 100;
        s.finish_packet(&p);
        assert_eq!(s.status, StateStatus::Running);
        assert_eq!(s.packet_idx, 1);
        assert_eq!(s.completed.len(), 1);
        assert_eq!(s.max_completed_cpp(), 100);
        s.current.est_cycles = 40;
        s.finish_packet(&p);
        assert_eq!(s.status, StateStatus::Completed);
        assert_eq!(s.max_completed_cpp(), 100);
    }

    #[test]
    fn recent_addresses_are_capped() {
        let (_, mut s) = fresh_state(1);
        for i in 0..2000u64 {
            s.note_address(i * 64);
        }
        assert_eq!(s.recent_addrs.len(), RECENT_CAP);
        assert_eq!(*s.recent_addrs.last().unwrap(), 1999 * 64);
    }

    #[test]
    fn forked_states_do_not_share_mutable_pieces() {
        let (_, mut s) = fresh_state(1);
        let mut t = s.clone();
        s.assume(Constraint::require_true(SymExpr::constant(1)));
        t.note_address(0x40);
        assert_eq!(s.constraints.len(), 1);
        assert_eq!(t.constraints.len(), 0);
        assert_eq!(s.recent_addrs.len(), 0);
        assert_eq!(t.recent_addrs.len(), 1);

        // Nor the slicing of the path constraint: a fork that assumes more
        // about an atom gets a component of its own, and the one it grew
        // from is the parent's still, answer and all.
        let mut solver = Solver::default();
        s.atoms.field_atom(0, PacketField::DstPort);
        s.assume(pin(0, 80));
        assert!(solver.is_satisfiable(&s.atoms, &s.constraints, &[]));
        let mut t = s.clone();
        let before = shape(&s.constraints);
        t.assume(pin(0, 81));
        assert_eq!(shape(&s.constraints), before);
        assert_eq!(shape(&t.constraints)[0].0.len(), 2);
        assert!(s.constraints.components()[0].answer.get().is_some());
        assert!(t.constraints.components()[0].answer.get().is_none());
        assert!(!solver.is_satisfiable(&t.atoms, &t.constraints, &[]));
        assert!(solver.is_satisfiable(&s.atoms, &s.constraints, &[]));
    }

    fn pin(atom: AtomId, value: u64) -> Constraint {
        Constraint::require_true(SymExpr::cmp(
            CmpOp::Eq,
            SymExpr::atom(atom),
            SymExpr::constant(value),
        ))
    }

    /// A set's components: members, atoms, and whether the slot is filled.
    type Shape = Vec<(Vec<Member>, Vec<AtomId>, bool)>;

    fn shape(set: &ConstraintSet) -> Shape {
        set.components()
            .iter()
            .map(|c| {
                (
                    c.members.to_vec(),
                    c.atoms.to_vec(),
                    c.answer.get().is_some(),
                )
            })
            .collect()
    }

    /// The reference the carried slicing is held against: the components of
    /// `constraints` partitioned from nothing — by the first member, members
    /// in path order, atoms ascending; conjuncts without atoms are in none.
    fn batch_partition(constraints: &[Constraint]) -> Vec<(Vec<Member>, Vec<AtomId>)> {
        let mut components: Vec<(Vec<Member>, Vec<AtomId>)> = Vec::new();
        for (i, c) in constraints.iter().enumerate() {
            for (j, conjunct) in c.conjuncts().iter().enumerate() {
                if conjunct.atoms.is_empty() {
                    continue;
                }
                let shares = |(_, atoms): &(_, Vec<AtomId>)| {
                    atoms.iter().any(|a| conjunct.atoms.contains(a))
                };
                let (mut members, mut atoms) = (Vec::new(), conjunct.atoms.to_vec());
                for (m, a) in components.extract_if(.., |c| shares(c)) {
                    members.extend(m);
                    atoms.extend(a);
                }
                members.push(Member {
                    constraint: i as u32,
                    conjunct: j as u32,
                });
                members.sort_unstable();
                atoms.sort_unstable();
                atoms.dedup();
                components.push((members, atoms));
            }
        }
        components.sort_by_key(|(members, _)| members[0]);
        components
    }

    /// A constraint over a table of eight 16-bit atoms, from four bytes.
    fn constraint_from([kind, a, b, v]: [u8; 4]) -> Constraint {
        let (a, b, v) = (AtomId::from(a % 8), AtomId::from(b % 8), u64::from(v));
        let lt = |x, bound| SymExpr::cmp(CmpOp::Ult, SymExpr::atom(x), SymExpr::constant(bound));
        match kind % 6 {
            0 => pin(a, v),
            1 => Constraint::require_true(lt(a, v + 1)),
            // Joins the components of two atoms.
            2 => Constraint::require_true(SymExpr::cmp(
                CmpOp::Ule,
                SymExpr::atom(a),
                SymExpr::atom(b),
            )),
            // Two conjuncts, each over its own atom.
            3 => Constraint::require_true(SymExpr::bin(
                castan_ir::BinOp::And,
                lt(a, v + 1),
                lt(b, 300),
            )),
            // Atom-free: in no component (true), or the whole path's end.
            4 => Constraint::require_true(SymExpr::constant(u64::from(v % 8 != 0))),
            _ => Constraint::require_false(lt(a, v)),
        }
    }

    proptest::proptest! {
        /// Whatever sequence of pushes, forks and queries a family of path
        /// constraints goes through, each carries exactly the slicing a
        /// batch partition of its constraints finds; growing one never
        /// changes another's components or the slots they have filled; and
        /// an answer found through one is there for all that share the
        /// component.
        #[test]
        fn the_carried_slicing_is_the_batch_partition(
            ops in proptest::collection::vec(proptest::any::<u64>(), 1..40),
        ) {
            let mut table = AtomTable::new();
            for _ in 0..8 {
                table.havoc_atom(16);
            }
            let mut solver = Solver::default();
            let mut family: Vec<(ConstraintSet, Vec<Constraint>)> =
                vec![(ConstraintSet::new(), Vec::new())];
            for [op, who, rest @ .., _, _] in ops.into_iter().map(u64::to_le_bytes) {
                let who = usize::from(who) % family.len();
                let others = |family: &[(ConstraintSet, Vec<Constraint>)]| -> Vec<Shape> {
                    let sets = family.iter().enumerate().filter(|(i, _)| *i != who);
                    sets.map(|(_, (set, _))| shape(set)).collect()
                };
                match op % 4 {
                    // Push.
                    0 | 1 => {
                        let before = others(&family);
                        let c = constraint_from(rest);
                        family[who].0.push(c.clone());
                        family[who].1.push(c);
                        proptest::prop_assert_eq!(others(&family), before);
                    }
                    // Fork, then push on both sides.
                    2 if family.len() < 6 => {
                        let (mut child, mut flat) = family[who].clone();
                        let inherited = shape(&child);
                        let c = constraint_from(rest);
                        child.push(c.clone());
                        flat.push(c);
                        proptest::prop_assert_eq!(shape(&family[who].0), inherited);
                        family.push((child, flat));
                        let before = others(&family);
                        let c = constraint_from([rest[3], rest[2], rest[1], rest[0]]);
                        family[who].0.push(c.clone());
                        family[who].1.push(c);
                        proptest::prop_assert_eq!(others(&family), before);
                    }
                    // Query: every component the extra constraint leaves
                    // alone has answered afterwards (unless the query ended
                    // early), here and wherever else it is shared.
                    _ => {
                        let extra = [constraint_from(rest)];
                        let (set, flat) = &family[who];
                        let outcome = solver.solve_with_extra(&table, set, &extra);
                        let whole: Vec<Constraint> = flat.iter().chain(&extra).cloned().collect();
                        proptest::prop_assert_eq!(
                            &outcome,
                            &Solver::default().solve(&table, &whole)
                        );
                        let left_alone = |c: &PathComponent| {
                            !c.atoms.iter().any(|a| extra[0].atoms().contains(a))
                        };
                        if outcome != SolveOutcome::Unsat {
                            for (other, _) in &family {
                                for c in other.components() {
                                    let shared = set.components().iter().any(|d| Arc::ptr_eq(c, d));
                                    if shared && left_alone(c) {
                                        proptest::prop_assert!(c.answer.get().is_some());
                                    }
                                }
                            }
                        }
                    }
                }
                for (set, flat) in &family {
                    let carried: Vec<_> =
                        shape(set).into_iter().map(|(m, a, _)| (m, a)).collect();
                    proptest::prop_assert_eq!(carried, batch_partition(flat));
                    proptest::prop_assert_eq!(set.len(), flat.len());
                }
            }
        }
    }
}
