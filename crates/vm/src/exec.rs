//! The execution engine: a frame stack, an operand stack, and the
//! region-arena heap.
//!
//! Observable behaviour — return value, captured prints, [`SpaceStats`],
//! and structured [`RuntimeError`]s with their spans — is identical to
//! the tree-walking interpreter's (`cj_runtime::run_main`); the
//! differential property suite enforces this. `steps` in the returned
//! [`Outcome`] counts *instructions retired*, the VM's native work unit.
//!
//! The deliberate divergences — both reachable only by *unchecked*
//! programs, since the region checker proves such references are never
//! observed (Theorem 1): casting a reference whose region has been
//! deleted reports [`RuntimeError::DanglingAccess`] here (the arena
//! holding the object's class header is gone) where the interpreter's
//! immortal store would still answer, and printing or returning such a
//! reference shows a sentinel serial instead of the original one.

use crate::bytecode::{CallTarget, CompiledMethod, CompiledProgram, Instr, Lit, RegRef, SlotTy};
use crate::heap::{pack_ref, ObjRef, RegionHeap, NULL_WORD};
use cj_frontend::ast::{BinOp, UnOp};
use cj_frontend::span::Span;
use cj_frontend::types::MethodId;
use cj_runtime::store::ObjId;
use cj_runtime::{Outcome, RunConfig, RuntimeError, Value};
use std::fmt;

#[cfg(doc)]
use cj_runtime::SpaceStats;

/// A VM-internal value. `Ref` carries the owning region and arena offset
/// (for access) plus the allocation serial (for observable identity).
#[derive(Debug, Clone, Copy)]
enum VmValue {
    Unit,
    Int(i64),
    Bool(bool),
    Float(f64),
    Null,
    Ref(ObjRef),
}

impl VmValue {
    fn as_int(self) -> i64 {
        match self {
            VmValue::Int(v) => v,
            _ => unreachable!("ill-typed int operand"),
        }
    }

    fn as_bool(self) -> bool {
        match self {
            VmValue::Bool(v) => v,
            _ => unreachable!("ill-typed bool operand"),
        }
    }
}

/// Mirrors `cj_runtime::Value`'s rendering exactly (prints must be
/// byte-identical across engines).
impl fmt::Display for VmValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmValue::Unit => f.write_str("()"),
            VmValue::Int(v) => write!(f, "{v}"),
            VmValue::Bool(v) => write!(f, "{v}"),
            VmValue::Float(v) => write!(f, "{v}"),
            VmValue::Null => f.write_str("null"),
            VmValue::Ref(r) => write!(f, "obj@{}", r.serial),
        }
    }
}

fn lit_value(l: Lit) -> VmValue {
    match l {
        Lit::Unit => VmValue::Unit,
        Lit::Null => VmValue::Null,
        Lit::Int(v) => VmValue::Int(v),
        Lit::Bool(v) => VmValue::Bool(v),
        Lit::Float(v) => VmValue::Float(v),
    }
}

fn to_value(v: VmValue) -> Value {
    match v {
        VmValue::Unit => Value::Unit,
        VmValue::Int(x) => Value::Int(x),
        VmValue::Bool(x) => Value::Bool(x),
        VmValue::Float(x) => Value::Float(x),
        VmValue::Null => Value::Null,
        VmValue::Ref(r) => Value::Ref(ObjId(r.serial)),
    }
}

fn from_value(v: Value) -> Option<VmValue> {
    match v {
        Value::Unit => Some(VmValue::Unit),
        Value::Int(x) => Some(VmValue::Int(x)),
        Value::Bool(x) => Some(VmValue::Bool(x)),
        Value::Float(x) => Some(VmValue::Float(x)),
        Value::Null => Some(VmValue::Null),
        // Foreign object references cannot enter a fresh heap.
        Value::Ref(_) => None,
    }
}

/// Reference-identity equality, exactly the interpreter's `value_eq`.
fn value_eq(a: VmValue, b: VmValue) -> bool {
    match (a, b) {
        (VmValue::Int(x), VmValue::Int(y)) => x == y,
        (VmValue::Bool(x), VmValue::Bool(y)) => x == y,
        (VmValue::Float(x), VmValue::Float(y)) => x == y,
        (VmValue::Null, VmValue::Null) => true,
        (VmValue::Ref(x), VmValue::Ref(y)) => x.region == y.region && x.word == y.word,
        _ => false,
    }
}

/// Encodes a value into a payload word per the slot representation.
#[inline]
fn encode(ty: SlotTy, v: VmValue) -> u64 {
    match (ty, v) {
        (SlotTy::Int, VmValue::Int(x)) => x as u64,
        (SlotTy::Bool, VmValue::Bool(x)) => x as u64,
        (SlotTy::Float, VmValue::Float(x)) => x.to_bits(),
        (SlotTy::Ref, VmValue::Null) => NULL_WORD,
        (SlotTy::Ref, VmValue::Ref(r)) => pack_ref(r),
        _ => unreachable!("ill-typed payload store"),
    }
}

/// Frame bookkeeping: bases into the shared locals/regs/operand stacks.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: u32,
    pc: u32,
    locals: u32,
    regs: u32,
    stack: u32,
}

struct Vm<'a> {
    p: &'a CompiledProgram,
    heap: RegionHeap,
    stack: Vec<VmValue>,
    locals: Vec<VmValue>,
    /// Region slot values (region ids; 0 = heap) for every frame.
    regs: Vec<u32>,
    frames: Vec<Frame>,
    steps: u64,
    limit: u64,
    max_depth: u32,
    erase: bool,
    prints: Vec<String>,
    inst_buf: Vec<u32>,
    reg_buf: Vec<u32>,
    word_buf: Vec<u64>,
}

/// Runs the program's static `main` on the VM.
///
/// # Errors
///
/// Any [`RuntimeError`]; for checked programs, dangling-access errors
/// cannot occur.
pub fn run_main(
    p: &CompiledProgram,
    args: &[Value],
    cfg: RunConfig,
) -> Result<Outcome, RuntimeError> {
    let func = p.main.ok_or(RuntimeError::NoMain)?;
    run_func(p, func, args, cfg)
}

/// Runs an arbitrary method as the entry point (all abstraction region
/// parameters bound to the heap, like the interpreter's `run_static`).
///
/// # Errors
///
/// See [`run_main`].
///
/// # Panics
///
/// Panics when `id` is not part of the program.
pub fn run_static(
    p: &CompiledProgram,
    id: MethodId,
    args: &[Value],
    cfg: RunConfig,
) -> Result<Outcome, RuntimeError> {
    let func = *p.func_of.get(&id).expect("method exists in the program");
    run_func(p, func, args, cfg)
}

fn run_func(
    p: &CompiledProgram,
    func: u32,
    args: &[Value],
    cfg: RunConfig,
) -> Result<Outcome, RuntimeError> {
    let method = &p.methods[func as usize];
    if method.params.len() != args.len() {
        return Err(RuntimeError::BadMainArgs);
    }
    let mut vm = Vm {
        p,
        heap: RegionHeap::new(),
        stack: Vec::with_capacity(64),
        locals: Vec::with_capacity(256),
        regs: Vec::with_capacity(64),
        frames: Vec::with_capacity(64),
        steps: 0,
        limit: cfg.step_limit,
        max_depth: cfg.max_depth,
        erase: cfg.erase_regions,
        prints: Vec::new(),
        inst_buf: Vec::new(),
        reg_buf: Vec::new(),
        word_buf: Vec::new(),
    };
    vm.locals
        .extend(method.defaults.iter().map(|&d| lit_value(d)));
    for (k, &a) in args.iter().enumerate() {
        let v = from_value(a).ok_or(RuntimeError::BadMainArgs)?;
        vm.locals[method.params[k] as usize] = v;
    }
    // Entry-point region parameters are bound to the heap (slot value 0).
    vm.regs.resize(method.region_slots as usize, 0);
    vm.frames.push(Frame {
        func,
        pc: 0,
        locals: 0,
        regs: 0,
        stack: 0,
    });
    let mut span = cj_trace::span("pipeline", "vm-exec");
    let value = vm.run()?;
    span.add("steps", vm.steps);
    Ok(Outcome {
        value: to_value(value),
        space: vm.heap.stats(),
        steps: vm.steps,
        prints: vm.prints,
    })
}

impl Vm<'_> {
    #[inline]
    fn deref(&self, v: VmValue, span: Span) -> Result<ObjRef, RuntimeError> {
        match v {
            VmValue::Ref(r) => {
                if self.heap.is_live(r.region) {
                    Ok(r)
                } else {
                    Err(RuntimeError::DanglingAccess(span))
                }
            }
            _ => Err(RuntimeError::NullPointer(span)),
        }
    }

    #[inline]
    fn resolve(&self, rbase: usize, r: RegRef) -> u32 {
        match r {
            RegRef::Heap => 0,
            RegRef::Slot(s) => self.regs[rbase + s as usize],
        }
    }

    #[inline]
    fn decode(&self, ty: SlotTy, word: u64) -> VmValue {
        match ty {
            SlotTy::Int => VmValue::Int(word as i64),
            SlotTy::Bool => VmValue::Bool(word != 0),
            SlotTy::Float => VmValue::Float(f64::from_bits(word)),
            SlotTy::Ref => match self.heap.unpack_ref(word) {
                Some(r) => VmValue::Ref(r),
                None => VmValue::Null,
            },
        }
    }

    fn run(&mut self) -> Result<VmValue, RuntimeError> {
        // A copy of the program reference, so the current method borrows
        // from the program rather than from `self`.
        let p = self.p;
        'frames: loop {
            let frame = *self.frames.last().expect("active frame");
            let method: &CompiledMethod = &p.methods[frame.func as usize];
            let lbase = frame.locals as usize;
            let rbase = frame.regs as usize;
            let mut pc = frame.pc as usize;
            loop {
                self.steps += 1;
                if self.steps > self.limit {
                    return Err(RuntimeError::StepLimit);
                }
                match method.code[pc] {
                    Instr::Const(i) => self.stack.push(lit_value(method.consts[i as usize])),
                    Instr::LoadVar(v) => self.stack.push(self.locals[lbase + v as usize]),
                    Instr::StoreVar(v) => {
                        let val = self.stack.pop().expect("operand");
                        self.locals[lbase + v as usize] = val;
                    }
                    Instr::ResetVar(v) => {
                        self.locals[lbase + v as usize] = lit_value(method.defaults[v as usize]);
                    }
                    Instr::Pop => {
                        self.stack.pop();
                    }
                    Instr::GetField { var, idx, ty } => {
                        let r = self.deref(self.locals[lbase + var as usize], method.spans[pc])?;
                        let word = self.heap.field(r, idx as usize);
                        self.stack.push(self.decode(ty, word));
                    }
                    Instr::SetField { var, idx, ty } => {
                        let val = self.stack.pop().expect("operand");
                        let r = self.deref(self.locals[lbase + var as usize], method.spans[pc])?;
                        self.heap.set_field(r, idx as usize, encode(ty, val));
                    }
                    Instr::NewObj(s) => {
                        let site = &method.news[s as usize];
                        self.reg_buf.clear();
                        for &r in &site.regions {
                            let id = self.resolve(rbase, r);
                            self.reg_buf.push(id);
                        }
                        self.word_buf.clear();
                        for &(var, ty) in &site.args {
                            self.word_buf
                                .push(encode(ty, self.locals[lbase + var as usize]));
                        }
                        let obj = self.heap.alloc_object(
                            self.reg_buf[0],
                            site.class,
                            &self.reg_buf,
                            &self.word_buf,
                        )?;
                        self.stack.push(VmValue::Ref(obj));
                    }
                    Instr::NewArr(s) => {
                        let site = method.arrays[s as usize];
                        let n = self.stack.pop().expect("operand").as_int();
                        if n < 0 {
                            return Err(RuntimeError::NegativeLength(method.spans[pc]));
                        }
                        let region = self.resolve(rbase, site.region);
                        let obj = self.heap.alloc_array(region, site.elem, n as usize)?;
                        self.stack.push(VmValue::Ref(obj));
                    }
                    Instr::Index { var, ty } => {
                        let i = self.stack.pop().expect("operand").as_int();
                        let r = self.deref(self.locals[lbase + var as usize], method.spans[pc])?;
                        match self.heap.element(r, i as usize) {
                            Some(word) => self.stack.push(self.decode(ty, word)),
                            None => return Err(RuntimeError::IndexOutOfBounds(method.spans[pc])),
                        }
                    }
                    Instr::SetIndex { var, ty } => {
                        let val = self.stack.pop().expect("operand");
                        let i = self.stack.pop().expect("operand").as_int();
                        let r = self.deref(self.locals[lbase + var as usize], method.spans[pc])?;
                        if !self.heap.set_element(r, i as usize, encode(ty, val)) {
                            return Err(RuntimeError::IndexOutOfBounds(method.spans[pc]));
                        }
                    }
                    Instr::ArrayLen(var) => {
                        let r = self.deref(self.locals[lbase + var as usize], method.spans[pc])?;
                        self.stack.push(VmValue::Int(self.heap.array_len(r) as i64));
                    }
                    Instr::RegPush(slot) => {
                        // Region-erasure semantics: the letreg is a no-op
                        // and its region variable denotes the heap.
                        self.regs[rbase + slot as usize] =
                            if self.erase { 0 } else { self.heap.push() };
                    }
                    Instr::RegPop(slot) => {
                        if !self.erase {
                            self.heap.pop(self.regs[rbase + slot as usize])?;
                        }
                    }
                    Instr::Call(s) => {
                        if self.frames.len() as u32 > self.max_depth {
                            return Err(RuntimeError::DepthLimit);
                        }
                        let site = &method.calls[s as usize];
                        self.inst_buf.clear();
                        for &r in &site.inst {
                            let id = self.resolve(rbase, r);
                            self.inst_buf.push(id);
                        }
                        let (func, receiver) = match site.target {
                            CallTarget::Static(f) => (f, None),
                            CallTarget::Virtual { vslot, recv } => {
                                let r = self
                                    .deref(self.locals[lbase + recv as usize], method.spans[pc])?;
                                let class = self.heap.class_of(r);
                                (p.vtables[class as usize][vslot as usize], Some(r))
                            }
                        };
                        let callee = &p.methods[func as usize];
                        let new_lbase = self.locals.len();
                        self.locals
                            .extend(callee.defaults.iter().map(|&d| lit_value(d)));
                        if let Some(r) = receiver {
                            self.locals[new_lbase] = VmValue::Ref(r);
                        }
                        for (k, &a) in site.args.iter().enumerate() {
                            let v = self.locals[lbase + a as usize];
                            self.locals[new_lbase + callee.params[k] as usize] = v;
                        }
                        let new_rbase = self.regs.len();
                        self.regs
                            .resize(new_rbase + callee.region_slots as usize, 0);
                        match receiver {
                            // Instance target: class region parameters come
                            // from the receiver's recorded regions, method
                            // region parameters positionally from the
                            // declared instantiation tail.
                            Some(r) => {
                                let ncp = callee.class_params as usize;
                                for i in 0..ncp {
                                    self.regs[new_rbase + i] = self.heap.region_arg(r, i);
                                }
                                let tail = (site.tail_start as usize).min(self.inst_buf.len());
                                let nmp = callee.abs_params as usize - ncp;
                                for j in 0..nmp {
                                    self.regs[new_rbase + ncp + j] =
                                        self.inst_buf.get(tail + j).copied().unwrap_or(0);
                                }
                            }
                            None => {
                                for i in 0..callee.abs_params as usize {
                                    self.regs[new_rbase + i] =
                                        self.inst_buf.get(i).copied().unwrap_or(0);
                                }
                            }
                        }
                        self.frames.last_mut().expect("frame").pc = (pc + 1) as u32;
                        self.frames.push(Frame {
                            func,
                            pc: 0,
                            locals: new_lbase as u32,
                            regs: new_rbase as u32,
                            stack: self.stack.len() as u32,
                        });
                        continue 'frames;
                    }
                    Instr::Cast(s) => {
                        let site = method.casts[s as usize];
                        let v = self.locals[lbase + site.var as usize];
                        match v {
                            VmValue::Null => self.stack.push(VmValue::Null),
                            VmValue::Ref(r) => {
                                if !self.heap.is_live(r.region) {
                                    // See the module docs: the arena that
                                    // held the class header is gone.
                                    return Err(RuntimeError::DanglingAccess(method.spans[pc]));
                                }
                                let class = self.heap.class_of(r) as usize;
                                if p.subclass[class][site.class as usize] {
                                    self.stack.push(v);
                                } else {
                                    return Err(RuntimeError::CastFailed(method.spans[pc]));
                                }
                            }
                            _ => return Err(RuntimeError::CastFailed(method.spans[pc])),
                        }
                    }
                    Instr::Jump(t) => {
                        pc = t as usize;
                        continue;
                    }
                    Instr::JumpIfFalse(t) => {
                        if !self.stack.pop().expect("operand").as_bool() {
                            pc = t as usize;
                            continue;
                        }
                    }
                    Instr::JumpIfTrue(t) => {
                        if self.stack.pop().expect("operand").as_bool() {
                            pc = t as usize;
                            continue;
                        }
                    }
                    Instr::Unary(op) => {
                        let v = self.stack.pop().expect("operand");
                        self.stack.push(match (op, v) {
                            (UnOp::Neg, VmValue::Int(x)) => VmValue::Int(x.wrapping_neg()),
                            (UnOp::Neg, VmValue::Float(x)) => VmValue::Float(-x),
                            (UnOp::Not, VmValue::Bool(x)) => VmValue::Bool(!x),
                            _ => unreachable!("ill-typed unary"),
                        });
                    }
                    Instr::Binary(op) => {
                        let r = self.stack.pop().expect("operand");
                        let l = self.stack.pop().expect("operand");
                        self.stack.push(binary(op, l, r, method.spans[pc])?);
                    }
                    Instr::Print => {
                        let v = self.stack.pop().expect("operand");
                        self.prints.push(v.to_string());
                    }
                    Instr::Ret => {
                        let value = self.stack.pop().expect("return value");
                        let done = self.frames.pop().expect("frame");
                        self.locals.truncate(done.locals as usize);
                        self.regs.truncate(done.regs as usize);
                        self.stack.truncate(done.stack as usize);
                        if self.frames.is_empty() {
                            return Ok(value);
                        }
                        self.stack.push(value);
                        continue 'frames;
                    }
                }
                pc += 1;
            }
        }
    }
}

fn binary(op: BinOp, l: VmValue, r: VmValue, span: Span) -> Result<VmValue, RuntimeError> {
    use BinOp::*;
    use VmValue::*;
    Ok(match (op, l, r) {
        (Add, Int(x), Int(y)) => Int(x.wrapping_add(y)),
        (Sub, Int(x), Int(y)) => Int(x.wrapping_sub(y)),
        (Mul, Int(x), Int(y)) => Int(x.wrapping_mul(y)),
        (Div, Int(_), Int(0)) => return Err(RuntimeError::DivisionByZero(span)),
        (Div, Int(x), Int(y)) => Int(x.wrapping_div(y)),
        (Rem, Int(_), Int(0)) => return Err(RuntimeError::DivisionByZero(span)),
        (Rem, Int(x), Int(y)) => Int(x.wrapping_rem(y)),
        (Add, Float(x), Float(y)) => Float(x + y),
        (Sub, Float(x), Float(y)) => Float(x - y),
        (Mul, Float(x), Float(y)) => Float(x * y),
        (Div, Float(x), Float(y)) => Float(x / y),
        (Rem, Float(x), Float(y)) => Float(x % y),
        (Lt, Int(x), Int(y)) => Bool(x < y),
        (Le, Int(x), Int(y)) => Bool(x <= y),
        (Gt, Int(x), Int(y)) => Bool(x > y),
        (Ge, Int(x), Int(y)) => Bool(x >= y),
        (Lt, Float(x), Float(y)) => Bool(x < y),
        (Le, Float(x), Float(y)) => Bool(x <= y),
        (Gt, Float(x), Float(y)) => Bool(x > y),
        (Ge, Float(x), Float(y)) => Bool(x >= y),
        (Eq, x, y) => Bool(value_eq(x, y)),
        (Ne, x, y) => Bool(!value_eq(x, y)),
        _ => unreachable!("ill-typed binary"),
    })
}
