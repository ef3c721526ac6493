//! The Core interpreter: a structural operational semantics over Core
//! expressions, parameterised by the memory object model. The driver's
//! [`ReplayOracle`] picks the order of `unseq` siblings.
//!
//! A jump (`run l`) lands only in a scope: a `save`, an `exit` or a
//! procedure body (`Interp::eval_scope`). Every other construct passes it
//! through, so sequences, `let`s and decided branches continue in a loop.

use std::collections::HashMap;

use cerberus_ast::ctype::{Ctype, IntegerType};
use cerberus_ast::ident::Ident;
use cerberus_ast::ub::UbKind;
use cerberus_core::program::CoreProgram;
use cerberus_core::syntax::{Binop, BuiltinFn, Expr, MemAction, PExpr, Pattern, Polarity, PtrOp};
use cerberus_memory::limits::{ResourceKind, ResourceLimits, TimeoutKind};
use cerberus_memory::model::MemoryModel;
use cerberus_memory::state::{AllocKind, MemError};
use cerberus_memory::value::{IntegerValue, PointerValue};

use crate::builtins;
use crate::driver::ReplayOracle;
use crate::value::Value;

/// A terminal, non-value outcome of an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// Undefined behaviour was reached; the execution is terminated and the
    /// UB reported (§5.4).
    Undef {
        /// Which undefined behaviour.
        ub: UbKind,
        /// A human-readable explanation.
        detail: String,
    },
    /// A dynamic error outside the semantics (unsupported construct, failed
    /// `assert`, `abort`).
    Error(String),
    /// The program called `exit(code)`.
    Exit(i128),
    /// A time budget was exhausted: the deterministic step budget (used to
    /// bound exhaustive exploration and to detect non-termination in
    /// differential testing, §6) or the wall-clock watchdog.
    Limit(TimeoutKind),
    /// An allocation, recursion or output budget was exhausted.
    Resource(ResourceKind),
}

impl From<MemError> for Stop {
    fn from(e: MemError) -> Self {
        Stop::Undef {
            ub: e.ub,
            detail: e.detail,
        }
    }
}

/// Control flow produced by evaluating an expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Flow {
    /// A value.
    Value(Value),
    /// A jump to a `save`/`exit` label (`run l`).
    Jump(Ident),
    /// A `return` from the current C function.
    Return(Value),
}

type EResult = Result<Flow, Stop>;
type Env = HashMap<String, Value>;

#[derive(Debug, Clone, Copy)]
struct Access {
    addr: u64,
    len: u64,
    write: bool,
    /// Whether the access came from a negative-polarity action (e.g. the
    /// store of a postfix increment), which weak sequencing does not order
    /// before subsequent actions (§5.6).
    negative: bool,
}

fn access_conflict(x: &Access, y: &Access) -> bool {
    (x.write || y.write) && x.addr < y.addr + y.len && y.addr < x.addr + x.len
}

fn conflicts(a: &[Access], b: &[Access]) -> bool {
    a.iter().any(|x| b.iter().any(|y| access_conflict(x, y)))
}

fn negative_conflicts(a: &[Access], b: &[Access]) -> bool {
    a.iter()
        .filter(|x| x.negative)
        .any(|x| b.iter().any(|y| access_conflict(x, y)))
}

/// Host-stack bytes the guard keeps back from
/// [`ResourceLimits::host_stack_bytes`]. The stack is checked only at each
/// step and each call, so the frames pushed between two checks (a pure
/// expression, an engine operation, a label search) must fit in it. Half of
/// the 1 MiB headroom `host_stack_bytes` adds, so a call depth of 0 still
/// leaves `main` 512 KiB.
const STACK_MARGIN: usize = 512 * 1024;

/// The current host-stack position: the address of a local in this frame.
#[inline(always)]
fn stack_position() -> usize {
    let marker = 0u8;
    std::hint::black_box(std::ptr::addr_of!(marker)) as usize
}

/// The most bytes one execution may print. A `printf` that would take
/// [`Interp::stdout`] past it stops the execution with
/// [`ResourceKind::Output`].
pub const OUTPUT_BYTES: usize = 1 << 16;

/// The interpreter state for one execution, generic over the memory object
/// model it issues its actions against (§5.9).
///
/// The interpreter alone enforces the execution's [`ResourceLimits`]: it
/// counts steps, watches the clock, call depth and host stack, and charges
/// every object it asks the engine for against the heap-byte and
/// live-allocation budgets. Captured output is bounded by [`OUTPUT_BYTES`].
pub struct Interp<'a, M: MemoryModel> {
    program: &'a CoreProgram,
    /// The memory object model state.
    pub mem: M,
    globals: Env,
    /// Bytes written by `printf` during this execution.
    pub stdout: Vec<u8>,
    oracle: &'a mut ReplayOracle,
    steps: u64,
    limits: ResourceLimits,
    /// Bytes allocated so far (`kill` does not refund them) and the
    /// allocations still within their lifetime.
    allocated_bytes: u64,
    live_allocations: usize,
    /// Wall-clock deadline derived from [`ResourceLimits::wall_clock_ms`]
    /// at construction, checked periodically by [`Interp::tick`].
    deadline: Option<std::time::Instant>,
    call_depth: usize,
    /// The host-stack position when the interpreter was built, and how many
    /// bytes beyond it the execution may use before the guard stops it.
    stack_base: usize,
    stack_budget: usize,
    footprints: Vec<Vec<Access>>,
}

impl<'a, M: MemoryModel> Interp<'a, M> {
    /// Build an interpreter for one execution of `program` against `mem`,
    /// bounded by `limits`.
    pub fn new(
        program: &'a CoreProgram,
        mem: M,
        oracle: &'a mut ReplayOracle,
        limits: ResourceLimits,
    ) -> Self {
        let deadline = limits
            .wall_clock_ms
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        let stack_budget = limits.host_stack_bytes().saturating_sub(STACK_MARGIN);
        Interp {
            program,
            mem,
            globals: HashMap::new(),
            stdout: Vec::new(),
            oracle,
            steps: 0,
            limits,
            allocated_bytes: 0,
            live_allocations: 0,
            deadline,
            call_depth: 0,
            stack_base: stack_position(),
            stack_budget,
            footprints: Vec::new(),
        }
    }

    /// Create the static-storage objects (globals, string literals), register
    /// the program's functions, and run the global initialisers in
    /// declaration order.
    pub fn setup(&mut self) -> Result<(), Stop> {
        for (name, bytes) in &self.program.string_literals {
            self.charge(bytes.len() as u64 + 1)?;
            let ptr = self.mem.create_string_literal(bytes)?;
            self.globals
                .insert(name.as_str().to_owned(), Value::Pointer(ptr));
        }
        for proc_name in self.program.procs.keys() {
            self.mem.register_function(&Ident::new(proc_name.clone()));
        }
        for global in &self.program.globals {
            let ptr = self.create(&global.ty, AllocKind::Static, Some(global.name.as_str()))?;
            self.globals
                .insert(global.name.as_str().to_owned(), Value::Pointer(ptr));
        }
        for global in &self.program.globals {
            let mut env = Env::new();
            match self.eval_expr(&mut env, &global.init)? {
                Flow::Value(_) => {}
                Flow::Jump(l) => {
                    return Err(Stop::Error(format!("jump to {l} in a global initialiser")))
                }
                Flow::Return(_) => {
                    return Err(Stop::Error("return in a global initialiser".into()))
                }
            }
        }
        Ok(())
    }

    /// Call a named C function with already-loaded argument values and return
    /// its result value.
    pub fn call_named(&mut self, name: &str, args: Vec<Value>) -> Result<Value, Stop> {
        if let Some(result) = builtins::call_builtin(self, name, &args) {
            return result;
        }
        let program: &'a CoreProgram = self.program;
        let proc = program
            .proc(name)
            .ok_or_else(|| Stop::Error(format!("call to undefined function {name}")))?;
        if self.call_depth > self.limits.call_depth {
            return Err(Stop::Resource(ResourceKind::CallDepth));
        }
        self.check_stack()?;
        self.call_depth += 1;
        let mut env = Env::new();
        let mut param_ptrs = Vec::new();
        for ((sym, ty), arg) in proc.params.iter().zip(args) {
            let ptr = self.create(ty, AllocKind::Automatic, Some(sym.as_str()))?;
            self.mem
                .store(ty, &ptr, &arg.to_mem(ty))
                .map_err(Stop::from)?;
            env.insert(sym.as_str().to_owned(), Value::Pointer(ptr.clone()));
            param_ptrs.push(ptr);
        }
        let flow = self.eval_scope(&mut env, &proc.body, None, None, None);
        for ptr in &param_ptrs {
            let _ = self.kill(ptr, false);
        }
        self.call_depth -= 1;
        match flow? {
            Flow::Return(v) | Flow::Value(v) => Ok(v),
            Flow::Jump(l) => Err(Stop::Error(format!("jump to undefined label {l}"))),
        }
    }

    /// The host-stack guard. The interpreter recurses on the host stack, and
    /// a C frame's share of it grows with how deeply its function nests
    /// blocks, loops and expressions, so counting C frames alone cannot keep
    /// an execution within [`ResourceLimits::host_stack_bytes`]. This check
    /// does: past that size less [`STACK_MARGIN`], the call-depth budget is
    /// exhausted.
    fn check_stack(&self) -> Result<(), Stop> {
        if stack_position().abs_diff(self.stack_base) > self.stack_budget {
            return Err(Stop::Resource(ResourceKind::CallDepth));
        }
        Ok(())
    }

    /// Charge one allocation of `size` bytes against the heap-byte and
    /// live-allocation budgets, before the engine is asked for it.
    fn charge(&mut self, size: u64) -> Result<(), Stop> {
        let total = self.allocated_bytes.saturating_add(size);
        if total > self.limits.heap_bytes {
            return Err(Stop::Resource(ResourceKind::HeapBytes));
        }
        if self.live_allocations >= self.limits.max_live_allocations {
            return Err(Stop::Resource(ResourceKind::LiveAllocations));
        }
        self.allocated_bytes = total;
        self.live_allocations += 1;
        Ok(())
    }

    /// The engine's `create`, charged at the object's size.
    fn create(
        &mut self,
        ty: &Ctype,
        kind: AllocKind,
        name: Option<&str>,
    ) -> Result<PointerValue, Stop> {
        self.charge(self.mem.size_of(ty)?)?;
        Ok(self.mem.create(ty, kind, name)?)
    }

    /// The engine's `alloc` (`malloc`, `calloc`), charged at `size` bytes,
    /// at least one: a zero-size allocation is still a live allocation.
    pub(crate) fn alloc(&mut self, size: u64) -> Result<PointerValue, Stop> {
        self.charge(size.max(1))?;
        let align = self.mem.env().max_align;
        Ok(self.mem.alloc(size, align)?)
    }

    /// The engine's `kill`, releasing one live allocation when it ends a
    /// lifetime (`free(NULL)` ends none).
    pub(crate) fn kill(&mut self, ptr: &PointerValue, dynamic: bool) -> Result<(), MemError> {
        self.mem.kill(ptr, dynamic)?;
        if !(dynamic && ptr.is_null()) {
            self.live_allocations = self.live_allocations.saturating_sub(1);
        }
        Ok(())
    }

    fn tick(&mut self) -> Result<(), Stop> {
        self.steps += 1;
        if self.steps > self.limits.steps {
            return Err(Stop::Limit(TimeoutKind::StepBudget));
        }
        self.check_stack()?;
        // Consult the wall clock only every 4096 steps: `Instant::now` is
        // orders of magnitude more expensive than a step.
        if self.steps & 0xFFF == 0 {
            if let Some(deadline) = self.deadline {
                if std::time::Instant::now() >= deadline {
                    return Err(Stop::Limit(TimeoutKind::WallClock));
                }
            }
        }
        Ok(())
    }

    fn record_access(&mut self, addr: u64, len: u64, write: bool, negative: bool) {
        for collector in &mut self.footprints {
            collector.push(Access {
                addr,
                len,
                write,
                negative,
            });
        }
    }

    fn lookup(&self, env: &Env, name: &Ident) -> Result<Value, Stop> {
        env.get(name.as_str())
            .or_else(|| self.globals.get(name.as_str()))
            .cloned()
            .ok_or_else(|| Stop::Error(format!("unbound Core symbol {name}")))
    }

    // ----- pattern matching ---------------------------------------------------

    fn match_pattern(pat: &Pattern, value: &Value) -> Option<Vec<(String, Value)>> {
        match (pat, value) {
            (Pattern::Wildcard, _) => Some(Vec::new()),
            (Pattern::Sym(name), v) => Some(vec![(name.as_str().to_owned(), v.clone())]),
            (Pattern::Tuple(ps), Value::Tuple(vs)) if ps.len() == vs.len() => {
                let mut out = Vec::new();
                for (p, v) in ps.iter().zip(vs.iter()) {
                    out.extend(Self::match_pattern(p, v)?);
                }
                Some(out)
            }
            (Pattern::Tuple(ps), v) if ps.len() == 1 => Self::match_pattern(&ps[0], v),
            (Pattern::Specified(p), Value::Specified(inner)) => Self::match_pattern(p, inner),
            _ => None,
        }
    }

    fn bind(env: &mut Env, pat: &Pattern, value: Value) -> Result<(), Stop> {
        match Self::match_pattern(pat, &value) {
            Some(bindings) => {
                for (name, v) in bindings {
                    env.insert(name, v);
                }
                Ok(())
            }
            None => Err(Stop::Error(format!(
                "pattern match failure binding {value}"
            ))),
        }
    }

    // ----- pure expressions ----------------------------------------------------

    fn eval_binop(&self, op: Binop, a: Value, b: Value) -> Result<Value, Stop> {
        use Binop::*;
        // Pointer comparisons against integers (null tests generated by the
        // elaboration of scalar conditions) compare addresses.
        let as_num = |v: &Value| -> Option<i128> {
            match v {
                Value::Integer(iv) => Some(iv.value),
                Value::Pointer(p) => Some(p.addr as i128),
                Value::Bool(b) => Some(i128::from(*b)),
                Value::Specified(inner) => match &**inner {
                    Value::Integer(iv) => Some(iv.value),
                    Value::Pointer(p) => Some(p.addr as i128),
                    _ => None,
                },
                _ => None,
            }
        };
        match op {
            Eq | Ne | Lt | Le | Gt | Ge => {
                let (Some(x), Some(y)) = (as_num(&a), as_num(&b)) else {
                    return Err(Stop::Error(format!(
                        "comparison on non-scalar operands {a} and {b}"
                    )));
                };
                let r = match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    _ => x >= y,
                };
                Ok(Value::Bool(r))
            }
            _ => {
                let (Some(ia), Some(ib)) = (a.as_integer_value(), b.as_integer_value()) else {
                    return Err(Stop::Error(format!(
                        "arithmetic on non-integer operands {a} and {b}"
                    )));
                };
                let (x, y) = (ia.value, ib.value);
                let value = match op {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    Div => {
                        if y == 0 {
                            return Err(Stop::Undef {
                                ub: UbKind::DivisionByZero,
                                detail: "division by zero".into(),
                            });
                        }
                        x.wrapping_div(y)
                    }
                    RemT => {
                        if y == 0 {
                            return Err(Stop::Undef {
                                ub: UbKind::DivisionByZero,
                                detail: "remainder by zero".into(),
                            });
                        }
                        x.wrapping_rem(y)
                    }
                    Exp => {
                        let exp = y.clamp(0, 126) as u32;
                        x.wrapping_pow(exp)
                    }
                    BitAnd => x & y,
                    BitOr => x | y,
                    BitXor => x ^ y,
                    _ => unreachable!("handled above"),
                };
                // "Most arithmetic involving one provenanced value and one
                // pure value preserves the provenance" (§5.9).
                Ok(Value::Integer(IntegerValue::with_prov(
                    value,
                    ia.prov.combine(ib.prov),
                )))
            }
        }
    }

    fn eval_builtin(&mut self, f: BuiltinFn, args: &[Value]) -> Result<Value, Stop> {
        let ctype_arg = |i: usize| -> Result<Ctype, Stop> {
            match args.get(i) {
                Some(Value::Ctype(ty)) => Ok(ty.clone()),
                other => Err(Stop::Error(format!(
                    "builtin expected a ctype argument, got {other:?}"
                ))),
            }
        };
        let int_arg = |i: usize| -> Result<IntegerValue, Stop> {
            args.get(i)
                .and_then(Value::as_integer_value)
                .ok_or_else(|| Stop::Error("builtin expected an integer argument".into()))
        };
        let env = self.mem.env().clone();
        match f {
            BuiltinFn::ConvInt => {
                let ty = ctype_arg(0)?;
                let iv = int_arg(1)?;
                let it = ty
                    .as_integer()
                    .ok_or_else(|| Stop::Error("conv_int to non-integer".into()))?;
                Ok(Value::Integer(IntegerValue::with_prov(
                    env.convert_int(iv.value, it),
                    iv.prov,
                )))
            }
            BuiltinFn::IsRepresentable => {
                let ty = ctype_arg(0)?;
                let iv = int_arg(1)?;
                let it = ty
                    .as_integer()
                    .ok_or_else(|| Stop::Error("is_representable on non-integer".into()))?;
                Ok(Value::Bool(env.representable(iv.value, it)))
            }
            BuiltinFn::CtypeWidth => {
                let ty = ctype_arg(0)?;
                let it = ty
                    .as_integer()
                    .ok_or_else(|| Stop::Error("ctype_width of non-integer".into()))?;
                Ok(Value::Integer(IntegerValue::pure(i128::from(
                    env.integer_width(it),
                ))))
            }
            BuiltinFn::AlignOf => {
                let ty = ctype_arg(0)?;
                Ok(Value::Integer(IntegerValue::pure(i128::from(
                    self.mem.align_of(&ty)?,
                ))))
            }
        }
    }

    /// Evaluate a pure expression.
    pub fn eval_pexpr(&mut self, env: &mut Env, pe: &PExpr) -> Result<Value, Stop> {
        match pe {
            PExpr::Sym(name) => self.lookup(env, name),
            PExpr::Unit => Ok(Value::Unit),
            PExpr::Integer(v) => Ok(Value::Integer(IntegerValue::pure(*v))),
            PExpr::CtypeConst(ty) => Ok(Value::Ctype(ty.clone())),
            PExpr::FunctionPtr(name) => Ok(Value::Pointer(self.mem.register_function(name))),
            PExpr::Undef(ub) => Err(Stop::Undef {
                ub: *ub,
                detail: "explicit undef reached".into(),
            }),
            PExpr::Error(msg) => Err(Stop::Error(msg.clone())),
            PExpr::Specified(inner) => Ok(Value::Specified(Box::new(self.eval_pexpr(env, inner)?))),
            PExpr::Unspecified(ty) => Ok(Value::Unspecified(ty.clone())),
            PExpr::Tuple(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval_pexpr(env, item)?);
                }
                Ok(Value::Tuple(out))
            }
            PExpr::Binop(op, a, b) => {
                let va = self.eval_pexpr(env, a)?;
                let vb = self.eval_pexpr(env, b)?;
                self.eval_binop(*op, va, vb)
            }
            PExpr::If(c, t, f) => {
                let cond = self.eval_pexpr(env, c)?;
                match cond.truthiness() {
                    Some(true) => self.eval_pexpr(env, t),
                    Some(false) => self.eval_pexpr(env, f),
                    None => Err(Stop::Error("non-scalar condition in pure if".into())),
                }
            }
            PExpr::Case(scrutinee, arms) => {
                let v = self.eval_pexpr(env, scrutinee)?;
                for (pat, body) in arms {
                    if let Some(bindings) = Self::match_pattern(pat, &v) {
                        for (name, value) in bindings {
                            env.insert(name, value);
                        }
                        return self.eval_pexpr(env, body);
                    }
                }
                Err(Stop::Error(format!("no case arm matches {v}")))
            }
            PExpr::Builtin(f, args) => {
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval_pexpr(env, a)?);
                }
                self.eval_builtin(*f, &vs)
            }
            PExpr::ArrayShift {
                ptr,
                elem_ty,
                index,
            } => {
                let p = self
                    .eval_pexpr(env, ptr)?
                    .as_pointer()
                    .ok_or_else(|| Stop::Error("array_shift on a non-pointer".into()))?;
                let i = self
                    .eval_pexpr(env, index)?
                    .as_int()
                    .ok_or_else(|| Stop::Error("array_shift with a non-integer index".into()))?;
                Ok(Value::Pointer(self.mem.array_shift(&p, elem_ty, i)?))
            }
            PExpr::MemberShift { ptr, tag, member } => {
                let p = self
                    .eval_pexpr(env, ptr)?
                    .as_pointer()
                    .ok_or_else(|| Stop::Error("member_shift on a non-pointer".into()))?;
                Ok(Value::Pointer(self.mem.member_shift(&p, *tag, member)?))
            }
        }
    }

    // ----- memory operations -----------------------------------------------------

    fn pointer_operand(&mut self, v: &Value) -> Result<PointerValue, Stop> {
        if let Some(p) = v.as_pointer() {
            return Ok(p);
        }
        if let Some(iv) = v.as_integer_value() {
            if iv.value == 0 {
                return Ok(PointerValue::null());
            }
            return Ok(self.mem.ptr_from_int(&iv));
        }
        Err(Stop::Error(format!("expected a pointer operand, got {v}")))
    }

    fn eval_memop(&mut self, env: &mut Env, op: PtrOp, args: &[PExpr]) -> EResult {
        let mut values = Vec::with_capacity(args.len());
        for a in args {
            values.push(self.eval_pexpr(env, a)?);
        }
        let specified_int = |v: i128| Flow::Value(Value::specified_int(v));
        match op {
            PtrOp::Eq | PtrOp::Ne => {
                let a = self.pointer_operand(&values[0])?;
                let b = self.pointer_operand(&values[1])?;
                let eq = self.mem.ptr_eq(&a, &b)?;
                let result = if op == PtrOp::Eq { eq } else { !eq };
                Ok(specified_int(i128::from(result)))
            }
            PtrOp::Lt | PtrOp::Gt | PtrOp::Le | PtrOp::Ge => {
                let a = self.pointer_operand(&values[0])?;
                let b = self.pointer_operand(&values[1])?;
                let ord = self.mem.ptr_rel(&a, &b)?;
                let result = match op {
                    PtrOp::Lt => ord == std::cmp::Ordering::Less,
                    PtrOp::Gt => ord == std::cmp::Ordering::Greater,
                    PtrOp::Le => ord != std::cmp::Ordering::Greater,
                    _ => ord != std::cmp::Ordering::Less,
                };
                Ok(specified_int(i128::from(result)))
            }
            PtrOp::Diff => {
                let a = self.pointer_operand(&values[0])?;
                let b = self.pointer_operand(&values[1])?;
                let elem_ty = match &values[2] {
                    Value::Ctype(ty) => ty.clone(),
                    _ => Ctype::integer(IntegerType::Char),
                };
                let size = self.mem.size_of(&elem_ty)?;
                let diff = self.mem.ptr_diff(&a, &b, size)?;
                Ok(Flow::Value(Value::Specified(Box::new(Value::Integer(
                    diff,
                )))))
            }
            PtrOp::IntFromPtr => {
                let p = self.pointer_operand(&values[0])?;
                let target = match &values[1] {
                    Value::Ctype(ty) => ty.clone(),
                    _ => Ctype::integer(IntegerType::UintptrT),
                };
                let iv = self.mem.int_from_ptr(&p);
                let it = target.as_integer().unwrap_or(IntegerType::UintptrT);
                let converted = self.mem.env().convert_int(iv.value, it);
                Ok(Flow::Value(Value::Specified(Box::new(Value::Integer(
                    IntegerValue::with_prov(converted, iv.prov),
                )))))
            }
            PtrOp::PtrFromInt => {
                let iv = values[0]
                    .as_integer_value()
                    .ok_or_else(|| Stop::Error("ptrFromInt of a non-integer".into()))?;
                let p = self.mem.ptr_from_int(&iv);
                Ok(Flow::Value(Value::Specified(Box::new(Value::Pointer(p)))))
            }
        }
    }

    fn eval_action(&mut self, env: &mut Env, action: &MemAction, negative: bool) -> EResult {
        match action {
            MemAction::Create { ty, .. } => {
                let ty = match self.eval_pexpr(env, ty)? {
                    Value::Ctype(ty) => ty,
                    other => return Err(Stop::Error(format!("create of a non-type {other}"))),
                };
                let ptr = self.create(&ty, AllocKind::Automatic, None)?;
                Ok(Flow::Value(Value::Pointer(ptr)))
            }
            MemAction::Kill(ptr) => {
                let p = self.eval_pexpr(env, ptr)?;
                if let Some(p) = p.as_pointer() {
                    // End-of-block kills are lenient: an object whose lifetime
                    // already ended (e.g. after a jump) is left alone.
                    let _ = self.kill(&p, false);
                }
                Ok(Flow::Value(Value::Unit))
            }
            MemAction::Store { ty, ptr, value } => {
                let ty = match self.eval_pexpr(env, ty)? {
                    Value::Ctype(ty) => ty,
                    other => return Err(Stop::Error(format!("store at a non-type {other}"))),
                };
                let p = self.eval_pexpr(env, ptr)?;
                let p = self.pointer_operand(&p)?;
                let v = self.eval_pexpr(env, value)?;
                let len = self.mem.size_of(&ty)?;
                self.mem.store(&ty, &p, &v.to_mem(&ty))?;
                self.record_access(p.addr, len, true, negative);
                Ok(Flow::Value(Value::Unit))
            }
            MemAction::Load { ty, ptr } => {
                let ty = match self.eval_pexpr(env, ty)? {
                    Value::Ctype(ty) => ty,
                    other => return Err(Stop::Error(format!("load at a non-type {other}"))),
                };
                let p = self.eval_pexpr(env, ptr)?;
                let p = self.pointer_operand(&p)?;
                let len = self.mem.size_of(&ty)?;
                let mv = self.mem.load(&ty, &p)?;
                self.record_access(p.addr, len, false, negative);
                Ok(Flow::Value(Value::loaded_from_mem(mv)))
            }
        }
    }

    // ----- scopes and label search -------------------------------------------------

    /// Run the body of a scope, the only place a jump lands: a `save`'s body,
    /// which a jump to `restart` runs again; an `exit`'s, which a jump to
    /// `finish` ends with unit; or a procedure's, which has neither. A jump
    /// to any other label the body holds re-enters the body seeking that
    /// label, and any other flow leaves the scope. The first pass seeks
    /// `seek`, when given. A `save` ticks once per pass.
    fn eval_scope(
        &mut self,
        env: &mut Env,
        body: &Expr,
        restart: Option<&Ident>,
        finish: Option<&Ident>,
        seek: Option<&Ident>,
    ) -> EResult {
        let mut seek = seek.cloned();
        loop {
            if restart.is_some() {
                self.tick()?;
            }
            let flow = match &seek {
                Some(label) => self.eval_seeking(env, body, label)?,
                None => self.eval_expr(env, body)?,
            };
            seek = match flow {
                Flow::Jump(l) if restart == Some(&l) => None,
                Flow::Jump(l) if finish == Some(&l) => return Ok(Flow::Value(Value::Unit)),
                Flow::Jump(l) if body.contains_save(&l) => Some(l),
                other => return Ok(other),
            };
        }
    }

    /// Evaluate `e`, which holds the `save` for `label`, in "seeking" mode:
    /// skip everything until that `save` is reached, run it, then continue
    /// normally with the remainder of `e`. A scope re-enters its body this
    /// way, which realises `goto` and `switch` dispatch.
    fn eval_seeking(&mut self, env: &mut Env, e: &Expr, label: &Ident) -> EResult {
        let not_found = || Stop::Error(format!("label {label} not found while seeking"));
        let mut e = e;
        loop {
            self.tick()?;
            e = match e {
                Expr::Save(l, body) => {
                    return self.eval_scope(env, body, Some(l), None, (l != label).then_some(label))
                }
                Expr::Exit(l, body) => {
                    return self.eval_scope(env, body, None, Some(l), Some(label))
                }
                Expr::Sseq(pat, a, b) | Expr::Wseq(pat, a, b) if a.contains_save(label) => {
                    return match self.eval_seeking(env, a, label)? {
                        Flow::Value(v) => {
                            Self::bind(env, pat, v)?;
                            self.eval_expr(env, b)
                        }
                        other => Ok(other),
                    };
                }
                Expr::Sseq(_, _, b) | Expr::Wseq(_, _, b) | Expr::Let(_, _, b) | Expr::Indet(b) => {
                    b
                }
                Expr::If(_, t, f) => {
                    if t.contains_save(label) {
                        t
                    } else {
                        f
                    }
                }
                Expr::Case(_, arms) => arms
                    .iter()
                    .map(|(_, body)| body)
                    .find(|body| body.contains_save(label))
                    .ok_or_else(not_found)?,
                Expr::Unseq(items) => items
                    .iter()
                    .find(|item| item.contains_save(label))
                    .ok_or_else(not_found)?,
                _ => return Err(not_found()),
            };
        }
    }

    // ----- effectful expressions ------------------------------------------------------

    /// Evaluate an effectful Core expression. The last operand of a sequence,
    /// a `let`, a decided `if` and a decided `case` is a tail position: the
    /// evaluation continues there in a loop, ticking once per step as a
    /// recursive call would, so a block's statements cost no host stack.
    pub fn eval_expr(&mut self, env: &mut Env, e: &Expr) -> EResult {
        let mut e = e;
        loop {
            self.tick()?;
            e = match e {
                Expr::Pure(pe) => return Ok(Flow::Value(self.eval_pexpr(env, pe)?)),
                Expr::Memop(op, args) => return self.eval_memop(env, *op, args),
                Expr::Action(pol, action) => {
                    return self.eval_action(env, action, *pol == Polarity::Negative)
                }
                Expr::Case(scrutinee, arms) => {
                    let v = self.eval_pexpr(env, scrutinee)?;
                    let arm = arms
                        .iter()
                        .find_map(|(pat, body)| Some((Self::match_pattern(pat, &v)?, body)));
                    let Some((bindings, body)) = arm else {
                        return Err(Stop::Error(format!("no case arm matches {v}")));
                    };
                    env.extend(bindings);
                    body
                }
                Expr::Let(pat, value, body) => {
                    let v = self.eval_pexpr(env, value)?;
                    Self::bind(env, pat, v)?;
                    body
                }
                Expr::If(c, t, f) => match self.eval_pexpr(env, c)?.truthiness() {
                    Some(true) => t,
                    Some(false) => f,
                    None => return Err(Stop::Error("non-scalar condition in if".into())),
                },
                Expr::Skip => return Ok(Flow::Value(Value::Unit)),
                Expr::Ccall(f, args) => {
                    let fv = self.eval_pexpr(env, f)?;
                    let name = match fv.as_pointer() {
                        Some(p) => p
                            .function
                            .or_else(|| self.mem.function_at(p.addr).cloned())
                            .ok_or_else(|| Stop::Undef {
                                ub: UbKind::IncompatibleFunctionCall,
                                detail: "call through a pointer that is not a function".into(),
                            })?,
                        None => {
                            return Err(Stop::Error(format!("call of a non-function value {fv}")))
                        }
                    };
                    let mut arg_values = Vec::with_capacity(args.len());
                    for a in args {
                        arg_values.push(self.eval_pexpr(env, a)?);
                    }
                    return Ok(Flow::Value(self.call_named(name.as_str(), arg_values)?));
                }
                Expr::Unseq(items) => return self.eval_unseq(env, items),
                Expr::Wseq(pat, a, b) => {
                    // Weak sequencing orders only the *positive* actions of the
                    // first expression before the second, so a negative action of
                    // the first (e.g. a postfix increment's store) that conflicts
                    // with an access of the second is an unsequenced race (6.5p2).
                    self.footprints.push(Vec::new());
                    let first_flow = self.eval_expr(env, a);
                    let fp_first = self.footprints.pop().unwrap_or_default();
                    let v = match first_flow? {
                        Flow::Value(v) => v,
                        other => return Ok(other),
                    };
                    Self::bind(env, pat, v)?;
                    self.footprints.push(Vec::new());
                    let second_flow = self.eval_expr(env, b);
                    let fp_second = self.footprints.pop().unwrap_or_default();
                    let flow = second_flow?;
                    if negative_conflicts(&fp_first, &fp_second) {
                        return Err(Stop::Undef {
                            ub: UbKind::UnsequencedRace,
                            detail: "a side-effect store is unsequenced with a conflicting access"
                                .into(),
                        });
                    }
                    return Ok(flow);
                }
                Expr::Sseq(pat, a, b) => match self.eval_expr(env, a)? {
                    Flow::Value(v) => {
                        Self::bind(env, pat, v)?;
                        b
                    }
                    other => return Ok(other),
                },
                Expr::Indet(body) => {
                    // The body (a called function's execution) is indeterminately
                    // sequenced with respect to the surrounding expression, not
                    // unsequenced: its accesses do not form unsequenced races with
                    // the siblings, so they are hidden from the active collectors.
                    let saved = std::mem::take(&mut self.footprints);
                    let result = self.eval_expr(env, body);
                    self.footprints = saved;
                    return result;
                }
                Expr::Save(label, body) => {
                    return self.eval_scope(env, body, Some(label), None, None)
                }
                Expr::Exit(label, body) => {
                    return self.eval_scope(env, body, None, Some(label), None)
                }
                Expr::Run(label) => return Ok(Flow::Jump(label.clone())),
                Expr::Return(value) => return Ok(Flow::Return(self.eval_pexpr(env, value)?)),
            };
        }
    }

    fn eval_unseq(&mut self, env: &mut Env, items: &[Expr]) -> EResult {
        let n = items.len();
        if n == 0 {
            return Ok(Flow::Value(Value::Tuple(Vec::new())));
        }
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut results: Vec<Value> = vec![Value::Unit; n];
        let mut footprints: Vec<Vec<Access>> = vec![Vec::new(); n];
        while !remaining.is_empty() {
            let k = if remaining.len() == 1 {
                0
            } else {
                self.oracle.choose(remaining.len())
            };
            let idx = remaining.remove(k);
            self.footprints.push(Vec::new());
            let flow = self.eval_expr(env, &items[idx]);
            let fp = self.footprints.pop().unwrap_or_default();
            footprints[idx] = fp;
            match flow? {
                Flow::Value(v) => results[idx] = v,
                other => return Ok(other),
            }
        }
        // Unsequenced race detection (6.5p2): conflicting accesses between
        // unsequenced siblings are undefined behaviour on every schedule.
        for i in 0..n {
            for j in i + 1..n {
                if conflicts(&footprints[i], &footprints[j]) {
                    return Err(Stop::Undef {
                        ub: UbKind::UnsequencedRace,
                        detail: "conflicting unsequenced accesses to the same object".into(),
                    });
                }
            }
        }
        Ok(Flow::Value(Value::Tuple(results)))
    }
}
