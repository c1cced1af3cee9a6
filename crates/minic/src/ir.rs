//! Three-address intermediate representation with an explicit CFG.
//!
//! The optimising compiler's passes (inlining, unrolling, strength
//! reduction, ladderisation) all operate here, and PG32 code generation
//! consumes it. The IR is deliberately *not* SSA: every Mini-C variable
//! gets a stable [`Temp`], which keeps the passes small and auditable —
//! appropriate for a certification-oriented toolchain.
//!
//! An IR-level executor ([`exec_module`]) provides a second semantic
//! oracle between the AST interpreter and the PG32 simulator, so that a
//! differential failure can be localised to lowering, optimisation or code
//! generation.

use crate::ast::{BinOp, UnOp};
use crate::interp::{eval_binop, Ports};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Temp(pub u32);

impl fmt::Display for Temp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An IR operand: virtual register or constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// A virtual register.
    Temp(Temp),
    /// A 32-bit constant.
    Const(i32),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Temp(t) => write!(f, "{t}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<Temp> for Operand {
    fn from(t: Temp) -> Self {
        Operand::Temp(t)
    }
}

/// Base of a memory access.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemBase {
    /// A global symbol (scalar globals are arrays of length 1).
    Global(String),
    /// A function-local array, by index into [`IrFunction::local_arrays`].
    Local(u32),
    /// An array parameter whose base address lives in a temp.
    Param(Temp),
}

impl fmt::Display for MemBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemBase::Global(name) => write!(f, "@{name}"),
            MemBase::Local(id) => write!(f, "%arr{id}"),
            MemBase::Param(t) => write!(f, "*{t}"),
        }
    }
}

/// A call argument: scalar value or array reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CallArg {
    /// Scalar passed by value.
    Value(Operand),
    /// Array passed by reference.
    ArrayRef(MemBase),
}

impl fmt::Display for CallArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallArg::Value(v) => write!(f, "{v}"),
            CallArg::ArrayRef(m) => write!(f, "&{m}"),
        }
    }
}

/// IR instructions (straight-line; control flow lives in [`IrTerm`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IrOp {
    /// `dst = a <op> b`. Logical `&&`/`||` never appear here (they are
    /// lowered to control flow); comparisons produce 0/1.
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination.
        dst: Temp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = <op> a`.
    Un {
        /// Operator.
        op: UnOp,
        /// Destination.
        dst: Temp,
        /// Operand.
        a: Operand,
    },
    /// `dst = src`.
    Copy {
        /// Destination.
        dst: Temp,
        /// Source.
        src: Operand,
    },
    /// `dst = base[index]` (word indexed).
    Load {
        /// Destination.
        dst: Temp,
        /// Array base.
        base: MemBase,
        /// Word index.
        index: Operand,
    },
    /// `base[index] = value`.
    Store {
        /// Array base.
        base: MemBase,
        /// Word index.
        index: Operand,
        /// Stored value.
        value: Operand,
    },
    /// `dst = func(args...)` (or a void call when `dst` is `None`).
    Call {
        /// Result destination.
        dst: Option<Temp>,
        /// Callee.
        func: String,
        /// Arguments.
        args: Vec<CallArg>,
    },
    /// `dst = cond ? t : f` evaluated without a branch — the constant-time
    /// select produced by ladderisation. `cond` is any value; non-zero
    /// selects `t`.
    Select {
        /// Destination.
        dst: Temp,
        /// Condition value (non-zero = take `t`).
        cond: Operand,
        /// Value if non-zero.
        t: Operand,
        /// Value if zero.
        f: Operand,
    },
    /// `dst = __in(port)`.
    In {
        /// Destination.
        dst: Temp,
        /// Port number.
        port: u8,
    },
    /// `__out(port, value)`.
    Out {
        /// Port number.
        port: u8,
        /// Written value.
        value: Operand,
    },
}

impl fmt::Display for IrOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrOp::Bin { op, dst, a, b } => write!(f, "{dst} = {a} {op:?} {b}"),
            IrOp::Un { op, dst, a } => write!(f, "{dst} = {op:?} {a}"),
            IrOp::Copy { dst, src } => write!(f, "{dst} = {src}"),
            IrOp::Load { dst, base, index } => write!(f, "{dst} = {base}[{index}]"),
            IrOp::Store { base, index, value } => write!(f, "{base}[{index}] = {value}"),
            IrOp::Call { dst, func, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = ")?;
                }
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            IrOp::Select {
                dst,
                cond,
                t,
                f: fv,
            } => write!(f, "{dst} = {cond} ? {t} : {fv}"),
            IrOp::In { dst, port } => write!(f, "{dst} = __in({port})"),
            IrOp::Out { port, value } => write!(f, "__out({port}, {value})"),
        }
    }
}

/// IR basic-block index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IrBlockId(pub u32);

impl IrBlockId {
    /// Index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for IrBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IrTerm {
    /// Unconditional jump.
    Jump(IrBlockId),
    /// Two-way branch: `taken` if `cond != 0`.
    Branch {
        /// Condition value.
        cond: Operand,
        /// Successor when non-zero.
        taken: IrBlockId,
        /// Successor when zero.
        fallthrough: IrBlockId,
    },
    /// Function return.
    Ret(Option<Operand>),
}

impl IrTerm {
    /// Successor blocks.
    pub fn successors(&self) -> Vec<IrBlockId> {
        match self {
            IrTerm::Jump(t) => vec![*t],
            IrTerm::Branch {
                taken, fallthrough, ..
            } => vec![*taken, *fallthrough],
            IrTerm::Ret(_) => Vec::new(),
        }
    }
}

/// An IR basic block.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IrBlock {
    /// Straight-line operations.
    pub ops: Vec<IrOp>,
    /// The block's terminator.
    pub term: IrTerm,
}

/// A function parameter in IR form.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IrParam {
    /// Source-level name (for diagnostics and `secret(...)` annotations).
    pub name: String,
    /// Whether the parameter is an array reference.
    pub is_array: bool,
    /// The temp holding the value (or base address).
    pub temp: Temp,
}

/// An IR function.
///
/// Its [`Hash`] is structural over the *body*: every field except the
/// name, with `loop_bounds` walked in block order so the hash does not
/// depend on map iteration order. It agrees with `==` (equal functions
/// have equal bodies) and with [`IrFunction::same_body`], so it keys
/// both exact and name-independent lookups.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IrFunction {
    /// Function name.
    pub name: String,
    /// Parameters in order; their temps are `t0..tN-1`.
    pub params: Vec<IrParam>,
    /// Whether the function returns a value.
    pub returns_value: bool,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<IrBlock>,
    /// Number of temps allocated (temps are `0..temp_count`).
    pub temp_count: u32,
    /// Sizes (in words) of function-local arrays.
    pub local_arrays: Vec<u32>,
    /// Loop bounds: header block → max header executions per loop entry.
    /// Populated from annotations and counted-loop inference.
    pub loop_bounds: HashMap<IrBlockId, u32>,
    /// Raw annotations that preceded the function definition.
    pub annotations: Vec<String>,
}

impl IrFunction {
    /// Allocate a fresh temp.
    pub fn fresh_temp(&mut self) -> Temp {
        let t = Temp(self.temp_count);
        self.temp_count += 1;
        t
    }

    /// Append a new empty block, returning its id.
    pub fn new_block(&mut self) -> IrBlockId {
        self.blocks.push(IrBlock {
            ops: Vec::new(),
            term: IrTerm::Ret(None),
        });
        IrBlockId(self.blocks.len() as u32 - 1)
    }

    /// The entry block id.
    pub fn entry(&self) -> IrBlockId {
        IrBlockId(0)
    }

    /// Validate block references and temp ranges.
    ///
    /// # Errors
    /// Returns a description of the first structural violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err(format!("{}: empty function", self.name));
        }
        let check_temp = |t: Temp| -> Result<(), String> {
            if t.0 >= self.temp_count {
                Err(format!("{}: temp {t} out of range", self.name))
            } else {
                Ok(())
            }
        };
        let check_operand = |o: Operand| match o {
            Operand::Temp(t) => check_temp(t),
            Operand::Const(_) => Ok(()),
        };
        let check_base = |m: &MemBase| match m {
            MemBase::Local(id) => {
                if *id as usize >= self.local_arrays.len() {
                    Err(format!("{}: local array {id} out of range", self.name))
                } else {
                    Ok(())
                }
            }
            MemBase::Param(t) => check_temp(*t),
            MemBase::Global(_) => Ok(()),
        };
        for b in &self.blocks {
            for op in &b.ops {
                match op {
                    IrOp::Bin { dst, a, b, .. } => {
                        check_temp(*dst)?;
                        check_operand(*a)?;
                        check_operand(*b)?;
                    }
                    IrOp::Un { dst, a, .. } => {
                        check_temp(*dst)?;
                        check_operand(*a)?;
                    }
                    IrOp::Copy { dst, src } => {
                        check_temp(*dst)?;
                        check_operand(*src)?;
                    }
                    IrOp::Load { dst, base, index } => {
                        check_temp(*dst)?;
                        check_base(base)?;
                        check_operand(*index)?;
                    }
                    IrOp::Store { base, index, value } => {
                        check_base(base)?;
                        check_operand(*index)?;
                        check_operand(*value)?;
                    }
                    IrOp::Call { dst, args, .. } => {
                        if let Some(d) = dst {
                            check_temp(*d)?;
                        }
                        for a in args {
                            match a {
                                CallArg::Value(v) => check_operand(*v)?,
                                CallArg::ArrayRef(m) => check_base(m)?,
                            }
                        }
                    }
                    IrOp::Select { dst, cond, t, f } => {
                        check_temp(*dst)?;
                        check_operand(*cond)?;
                        check_operand(*t)?;
                        check_operand(*f)?;
                    }
                    IrOp::In { dst, .. } => check_temp(*dst)?,
                    IrOp::Out { value, .. } => check_operand(*value)?,
                }
            }
            for s in b.term.successors() {
                if s.index() >= self.blocks.len() {
                    return Err(format!("{}: branch to out-of-range {s}", self.name));
                }
            }
        }
        Ok(())
    }
}

impl IrFunction {
    /// Whether two functions are equal in everything but their names.
    pub fn same_body(&self, other: &IrFunction) -> bool {
        let IrFunction {
            name: _,
            params,
            returns_value,
            blocks,
            temp_count,
            local_arrays,
            loop_bounds,
            annotations,
        } = self;
        *params == other.params
            && *returns_value == other.returns_value
            && *temp_count == other.temp_count
            && *local_arrays == other.local_arrays
            && *annotations == other.annotations
            && *loop_bounds == other.loop_bounds
            && *blocks == other.blocks
    }
}

impl Hash for IrFunction {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let IrFunction {
            name: _,
            params,
            returns_value,
            blocks,
            temp_count,
            local_arrays,
            loop_bounds,
            annotations,
        } = self;
        params.hash(state);
        returns_value.hash(state);
        blocks.hash(state);
        temp_count.hash(state);
        local_arrays.hash(state);
        let mut bounds: Vec<(IrBlockId, u32)> = loop_bounds.iter().map(|(&b, &n)| (b, n)).collect();
        bounds.sort_unstable();
        bounds.hash(state);
        annotations.hash(state);
    }
}

impl fmt::Display for IrFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{}: {}{}",
                p.temp,
                if p.is_array { "&" } else { "" },
                p.name
            )?;
        }
        writeln!(f, ")")?;
        for (i, b) in self.blocks.iter().enumerate() {
            let bound = self
                .loop_bounds
                .get(&IrBlockId(i as u32))
                .map(|n| format!("  ; loop bound {n}"))
                .unwrap_or_default();
            writeln!(f, "bb{i}:{bound}")?;
            for op in &b.ops {
                writeln!(f, "    {op}")?;
            }
            match &b.term {
                IrTerm::Jump(t) => writeln!(f, "    jump {t}")?,
                IrTerm::Branch {
                    cond,
                    taken,
                    fallthrough,
                } => writeln!(f, "    br {cond} ? {taken} : {fallthrough}")?,
                IrTerm::Ret(Some(v)) => writeln!(f, "    ret {v}")?,
                IrTerm::Ret(None) => writeln!(f, "    ret")?,
            }
        }
        Ok(())
    }
}

/// A lowered module: functions plus global layout.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IrModule {
    /// Functions in source order.
    pub functions: Vec<IrFunction>,
    /// Globals: name → initial words (scalars have length 1).
    pub globals: Vec<(String, Vec<i32>)>,
}

impl IrModule {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&IrFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a function by name, mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut IrFunction> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Validate every function.
    ///
    /// # Errors
    /// Returns the first structural violation.
    pub fn validate(&self) -> Result<(), String> {
        for f in &self.functions {
            f.validate()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// IR execution (testing oracle)
// ---------------------------------------------------------------------

/// Errors from the IR executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrExecError {
    /// Step budget exhausted.
    OutOfFuel,
    /// Out-of-bounds array access.
    OutOfBounds,
    /// Call stack too deep.
    StackOverflow,
    /// Unknown function name.
    UnknownFunction(String),
    /// Entry point has array parameters (not supported by the harness).
    BadEntry(String),
}

impl fmt::Display for IrExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrExecError::OutOfFuel => write!(f, "IR execution fuel exhausted"),
            IrExecError::OutOfBounds => write!(f, "IR array access out of bounds"),
            IrExecError::StackOverflow => write!(f, "IR call stack overflow"),
            IrExecError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            IrExecError::BadEntry(n) => write!(f, "cannot call IR entry `{n}`"),
        }
    }
}

impl std::error::Error for IrExecError {}

struct IrExec<'m, P: Ports> {
    module: &'m IrModule,
    globals: HashMap<&'m str, Vec<i32>>,
    arena: Vec<Vec<i32>>,
    ports: &'m mut P,
    fuel: u64,
}

/// How an array reference is passed between IR frames.
#[derive(Clone, Copy)]
enum ArrRef {
    Global(usize), // index into ordered globals (resolved by name at use)
    Arena(usize),
}

impl<'m, P: Ports> IrExec<'m, P> {
    fn tick(&mut self) -> Result<(), IrExecError> {
        if self.fuel == 0 {
            return Err(IrExecError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn run_function(
        &mut self,
        f: &'m IrFunction,
        args: Vec<ArgVal>,
        depth: usize,
    ) -> Result<Option<i32>, IrExecError> {
        if depth > 128 {
            return Err(IrExecError::StackOverflow);
        }
        let mut temps = vec![0i32; f.temp_count as usize];
        let mut arrays: HashMap<Temp, ArrRef> = HashMap::new();
        for (p, a) in f.params.iter().zip(args) {
            match a {
                ArgVal::Scalar(v) => temps[p.temp.0 as usize] = v,
                ArgVal::Array(r) => {
                    arrays.insert(p.temp, r);
                }
            }
        }
        // Allocate local arrays for this frame.
        let local_refs: Vec<ArrRef> = f
            .local_arrays
            .iter()
            .map(|len| {
                self.arena.push(vec![0; *len as usize]);
                ArrRef::Arena(self.arena.len() - 1)
            })
            .collect();

        let value = |temps: &[i32], o: Operand| -> i32 {
            match o {
                Operand::Temp(t) => temps[t.0 as usize],
                Operand::Const(c) => c,
            }
        };
        // Capture the module reference by value so the closure does not
        // borrow `self` (which the execution loop mutates).
        let module = self.module;
        let resolve = move |arrays: &HashMap<Temp, ArrRef>, base: &MemBase| -> ArrRef {
            match base {
                MemBase::Global(name) => ArrRef::Global(
                    module
                        .globals
                        .iter()
                        .position(|(n, _)| n == name)
                        .expect("validated global"),
                ),
                MemBase::Local(id) => local_refs[*id as usize],
                MemBase::Param(t) => arrays[t],
            }
        };

        let mut bb = f.entry();
        loop {
            let block = &f.blocks[bb.index()];
            for op in &block.ops {
                self.tick()?;
                match op {
                    IrOp::Bin { op, dst, a, b } => {
                        let r = eval_binop(*op, value(&temps, *a), value(&temps, *b));
                        temps[dst.0 as usize] = r;
                    }
                    IrOp::Un { op, dst, a } => {
                        let v = value(&temps, *a);
                        temps[dst.0 as usize] = match op {
                            UnOp::Neg => v.wrapping_neg(),
                            UnOp::BitNot => !v,
                            UnOp::LogNot => (v == 0) as i32,
                        };
                    }
                    IrOp::Copy { dst, src } => temps[dst.0 as usize] = value(&temps, *src),
                    IrOp::Load { dst, base, index } => {
                        let i = value(&temps, *index);
                        let r = resolve(&arrays, base);
                        let v = self.read(r, i)?;
                        temps[dst.0 as usize] = v;
                    }
                    IrOp::Store {
                        base,
                        index,
                        value: v,
                    } => {
                        let i = value(&temps, *index);
                        let val = value(&temps, *v);
                        let r = resolve(&arrays, base);
                        self.write(r, i, val)?;
                    }
                    IrOp::Call { dst, func, args } => {
                        let callee = self
                            .module
                            .function(func)
                            .ok_or_else(|| IrExecError::UnknownFunction(func.clone()))?;
                        let mut vals = Vec::with_capacity(args.len());
                        for a in args {
                            match a {
                                CallArg::Value(v) => vals.push(ArgVal::Scalar(value(&temps, *v))),
                                CallArg::ArrayRef(m) => {
                                    vals.push(ArgVal::Array(resolve(&arrays, m)))
                                }
                            }
                        }
                        let ret = self.run_function(callee, vals, depth + 1)?;
                        if let Some(d) = dst {
                            temps[d.0 as usize] = ret.unwrap_or(0);
                        }
                    }
                    IrOp::Select {
                        dst,
                        cond,
                        t,
                        f: fv,
                    } => {
                        let c = value(&temps, *cond);
                        // Branch-free arithmetic select, exactly as the
                        // hardware `csel` computes it.
                        let mask = if c != 0 { -1i32 } else { 0 };
                        temps[dst.0 as usize] =
                            (value(&temps, *t) & mask) | (value(&temps, *fv) & !mask);
                    }
                    IrOp::In { dst, port } => temps[dst.0 as usize] = self.ports.input(*port),
                    IrOp::Out { port, value: v } => {
                        let val = value(&temps, *v);
                        self.ports.output(*port, val);
                    }
                }
            }
            self.tick()?;
            match &block.term {
                IrTerm::Jump(t) => bb = *t,
                IrTerm::Branch {
                    cond,
                    taken,
                    fallthrough,
                } => {
                    bb = if value(&temps, *cond) != 0 {
                        *taken
                    } else {
                        *fallthrough
                    };
                }
                IrTerm::Ret(v) => return Ok(v.map(|o| value(&temps, o))),
            }
        }
    }

    fn read(&self, r: ArrRef, index: i32) -> Result<i32, IrExecError> {
        let slice: &[i32] = match r {
            ArrRef::Global(g) => &self.globals[self.module.globals[g].0.as_str()],
            ArrRef::Arena(i) => &self.arena[i],
        };
        if index < 0 || index as usize >= slice.len() {
            return Err(IrExecError::OutOfBounds);
        }
        Ok(slice[index as usize])
    }

    fn write(&mut self, r: ArrRef, index: i32, value: i32) -> Result<(), IrExecError> {
        let slice: &mut Vec<i32> = match r {
            ArrRef::Global(g) => self
                .globals
                .get_mut(self.module.globals[g].0.as_str())
                .expect("global present"),
            ArrRef::Arena(i) => &mut self.arena[i],
        };
        if index < 0 || index as usize >= slice.len() {
            return Err(IrExecError::OutOfBounds);
        }
        slice[index as usize] = value;
        Ok(())
    }
}

enum ArgVal {
    Scalar(i32),
    Array(ArrRef),
}

/// Execute `func(args)` in `module` against fresh global state.
///
/// # Errors
/// Propagates fuel exhaustion, bounds violations and call errors.
pub fn exec_module<P: Ports>(
    module: &IrModule,
    func: &str,
    args: &[i32],
    ports: &mut P,
    fuel: u64,
) -> Result<Option<i32>, IrExecError> {
    let f = module
        .function(func)
        .ok_or_else(|| IrExecError::UnknownFunction(func.to_string()))?;
    if f.params.len() != args.len() || f.params.iter().any(|p| p.is_array) {
        return Err(IrExecError::BadEntry(func.to_string()));
    }
    let mut exec = IrExec {
        module,
        globals: module
            .globals
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect(),
        arena: Vec::new(),
        ports,
        fuel,
    };
    let vals = args.iter().map(|v| ArgVal::Scalar(*v)).collect();
    exec.run_function(f, vals, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::RecordingPorts;

    fn tiny_function() -> IrFunction {
        // fn f(x): return x + 1
        IrFunction {
            name: "f".into(),
            params: vec![IrParam {
                name: "x".into(),
                is_array: false,
                temp: Temp(0),
            }],
            returns_value: true,
            blocks: vec![IrBlock {
                ops: vec![IrOp::Bin {
                    op: BinOp::Add,
                    dst: Temp(1),
                    a: Operand::Temp(Temp(0)),
                    b: Operand::Const(1),
                }],
                term: IrTerm::Ret(Some(Operand::Temp(Temp(1)))),
            }],
            temp_count: 2,
            local_arrays: vec![],
            loop_bounds: HashMap::new(),
            annotations: vec![],
        }
    }

    #[test]
    fn validate_accepts_well_formed() {
        tiny_function().validate().expect("well-formed");
    }

    #[test]
    fn validate_rejects_bad_temp() {
        let mut f = tiny_function();
        f.temp_count = 1;
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_branch() {
        let mut f = tiny_function();
        f.blocks[0].term = IrTerm::Jump(IrBlockId(9));
        assert!(f.validate().is_err());
    }

    #[test]
    fn exec_runs_simple_function() {
        let module = IrModule {
            functions: vec![tiny_function()],
            globals: vec![],
        };
        let mut ports = RecordingPorts::new();
        let out = exec_module(&module, "f", &[41], &mut ports, 1000).expect("run");
        assert_eq!(out, Some(42));
    }

    #[test]
    fn exec_select_is_branch_free_mask() {
        let mut f = tiny_function();
        f.blocks[0].ops = vec![IrOp::Select {
            dst: Temp(1),
            cond: Operand::Temp(Temp(0)),
            t: Operand::Const(7),
            f: Operand::Const(9),
        }];
        let module = IrModule {
            functions: vec![f],
            globals: vec![],
        };
        let mut ports = RecordingPorts::new();
        assert_eq!(
            exec_module(&module, "f", &[1], &mut ports, 100).expect("run"),
            Some(7)
        );
        assert_eq!(
            exec_module(&module, "f", &[0], &mut ports, 100).expect("run"),
            Some(9)
        );
        assert_eq!(
            exec_module(&module, "f", &[-5], &mut ports, 100).expect("run"),
            Some(7)
        );
    }

    #[test]
    fn exec_fuel_exhausts() {
        let mut f = tiny_function();
        f.blocks[0].term = IrTerm::Jump(IrBlockId(0));
        let module = IrModule {
            functions: vec![f],
            globals: vec![],
        };
        let mut ports = RecordingPorts::new();
        assert_eq!(
            exec_module(&module, "f", &[0], &mut ports, 100),
            Err(IrExecError::OutOfFuel)
        );
    }

    #[test]
    fn display_renders_ir() {
        let f = tiny_function();
        let text = f.to_string();
        assert!(text.contains("bb0:"), "{text}");
        assert!(text.contains("ret"), "{text}");
    }
}
