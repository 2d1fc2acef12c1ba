//! Semantic analysis.
//!
//! Validates a parsed [`Unit`] and produces a [`Checked`] program:
//!
//! * `#define` constants and index-set definitions are evaluated (index
//!   sets are *constant data items* in UC — §3.1), every definition —
//!   global or function-local — into one table, [`Checked::sets`];
//! * array shapes are computed from constant expressions;
//! * the map section (§4) is checked before any function body: it is
//!   resolved like a body — its sets, each pattern's array and every
//!   identifier of a pattern subscript, which must be an element of those
//!   sets or a `#define` — and each declaration is interpreted as it
//!   resolves (`mapping::interpret_one`): each array's layout is written
//!   on its [`ArrayInfo`], and a second mapping of one array is an error;
//! * every identifier is resolved against the scope rules of the paper,
//!   including index-element shadowing in nested constructs (§3.4):
//!   innermost scope outwards, then the globals, then the `#define`s.
//!   What it denotes is written beside its spelling on the AST — a
//!   [`Ref`] on every identifier and array base, a [`SetId`] for every
//!   index-set name a construct or reduction uses, the [`LocalId`] a
//!   declaration or `seq` introduces, the [`Callee`] of every call — and
//!   [`Checked`] carries the tables those index. This is the only place
//!   names are resolved: the lowerer, the executor and the lints index,
//!   and none looks a spelling up. A scope declares a variable once, a
//!   function's parameters and its outer block being one scope, as in C;
//! * the call graph is recorded as calls resolve, and what `main` reaches
//!   through it — the only code that can run — is
//!   [`Checked::reachable`], which lowering and UC132 read;
//! * every expression gets its rank (`Rank`: a front-end scalar, or one
//!   value per virtual processor), and what only a front-end scalar can do
//!   is checked: be stored to a global or register local (by `=`, `op=` or
//!   `swap`), be passed to a user function;
//! * every access is planned once, by its id ([`ValueInfo::forms`]), and
//!   every histogram marked for §4's processor optimisation
//!   (`ReduceExpr::histogram`): the executor reads both;
//! * what the lints report is recorded as it is checked: every store that
//!   may give one array element distinct values in a step that traps on
//!   them — which steps do is the step table ([`step`]) the executor
//!   reads too — its location judged by the access plan
//!   ([`Checked::races`]); every occurrence of a regular parallel access
//!   the path rule routes under its array's mapping, valued with the
//!   `#define`s, none under a `solve` ([`Checked::routed`]); every
//!   constant-false guard ([`Checked::empty_guards`]); every index set
//!   that anything resolves to ([`IndexSetInfo::used`]); and, in
//!   evaluation order, every read of a scalar local no path has
//!   initialised and every store the next one overwrites unread (`Flow`:
//!   [`Checked::uninit_reads`], [`Checked::dead_stores`]);
//! * UC restrictions are enforced (no `goto` — already a parse error; an
//!   index element is read-only; `solve` arms must be proper assignments
//!   to array elements, without `st`, and a plain `solve`'s right-hand
//!   sides hold no assignment or reduction; `oneof` takes no `others`; no
//!   sequential control flow and no array declaration inside a parallel
//!   construct, and no control flow that would leave a `seq`; a
//!   per-processor local is assigned only at the depth it was declared
//!   at; `swap` is a statement; no function takes a builtin's name;
//!   `main` takes no parameters);
//! * expressions get basic int/float/bool checking with C-style coercion.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use uc_cm::Scalar;

use crate::ast::*;
use crate::diag::Diagnostics;
use crate::ir::Reg;
use crate::mapping::{self, ArrayMapping};
use crate::opt;
use crate::span::Span;
use crate::stdlib::Builtin;

/// Cap on the elements one index-set range may materialise: a hostile
/// `{0..1<<40}` is a diagnostic, not an OOM. Sets are compile-time
/// constants, so this is the only place their size is ever decided.
pub const MAX_CONST_INDEX_SET: u64 = 1 << 22;

/// The most points UC101 values a subscript at to show that two of them
/// share an element ([`Checker::located`]); past it, the subscript tells
/// apart every point it varies along.
const DISTINCT_CAP: usize = 1 << 12;

/// One evaluated index-set definition, global or function-local: ordered
/// constant integers plus the element identifier used to range over it.
/// The elements are shared, so opening a construct over a set or aliasing
/// it never copies them (`Arc<Vec<_>>`, not `Arc<[_]>`: wrapping the
/// collected `Vec` is free, while collecting 65 536 elements straight
/// into an `Arc<[i64]>` costs 85 µs against the `Vec`'s 10).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSetInfo {
    pub name: String,
    pub elem: String,
    pub elements: Arc<Vec<i64>>,
    /// The definition's span.
    pub span: Span,
    /// For `= J` definitions, the set `J` resolved to.
    pub alias_of: Option<SetId>,
    /// Whether a construct, reduction, alias or map section resolves to
    /// it: a set nothing uses only costs processors (UC121).
    pub used: bool,
    /// `lo` if the elements are `lo, lo+1, …`, decided once by
    /// `define_index_set`: a range is contiguous by construction, an alias
    /// is whatever its source is, and only a list is scanned.
    pub(crate) lo: Option<i64>,
}

impl IndexSetInfo {
    /// `lo` if the elements are `lo, lo+1, …` — the sets (`{lo..hi}`)
    /// whose element is `axis coordinate + lo` (`opt::SubForm::Axis`).
    pub fn contiguous_lo(&self) -> Option<i64> {
        self.lo
    }
}

/// `lo` if `elements` are `lo, lo+1, …`: the scan that decides
/// [`IndexSetInfo::contiguous_lo`] for an element list.
pub(crate) fn scan_contiguous_lo(elements: &[i64]) -> Option<i64> {
    let lo = *elements.first()?;
    // `lo + (len - 1)` exists, so no `lo + k` below can overflow.
    lo.checked_add(elements.len() as i64 - 1)?;
    let in_place = |(k, &v): (usize, &i64)| v == lo.wrapping_add(k as i64);
    elements.iter().enumerate().all(in_place).then_some(lo)
}

/// A checked global array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayInfo {
    pub ty: Type,
    pub shape: Vec<usize>,
    /// Its layout on the machine, as the map section decides it.
    pub mapping: ArrayMapping,
}

/// How a function's local lives at run time.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalKind {
    /// A front-end scalar — a parameter, a declaration outside every
    /// iteration space, a `seq` element wherever the `seq` sits: this
    /// register of the activation.
    Reg(Reg),
    /// A scalar declared under an open iteration space: one value per
    /// virtual processor, a machine field.
    PerVp,
    /// A function-local array of this shape, in machine storage.
    Array(Vec<usize>),
}

/// One parameter, declaration or `seq` element of a function.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalInfo {
    pub name: String,
    pub ty: Type,
    pub kind: LocalKind,
}

/// What sema knows about one function's locals; [`Ref::Local`],
/// [`VarDecl::local`] and [`UcStmt::elem`] index `locals`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FuncInfo {
    /// Parameters first, then every declaration and `seq` element in
    /// source order.
    pub locals: Vec<LocalInfo>,
    /// Registers its [`LocalKind::Reg`] locals occupy: `0..regs`, in
    /// `locals` order.
    pub regs: u32,
    /// Registers the lowered body keeps beside them: an iteration counter
    /// per loop or front-end `seq`, and such a `seq`'s flags (`*`: an arm
    /// ran this sweep; `others`: an arm ran for this element).
    pub loop_regs: u32,
    /// Whether any local is machine-backed ([`LocalKind::PerVp`] or
    /// [`LocalKind::Array`]): an activation of a function with none
    /// allocates no table for them.
    pub machine_locals: bool,
}

/// One value the executor may keep (see [`ValueId`]): a distinct array
/// access, or an operator whose result a construct computes more than
/// once. What the executor's caches need to know about
/// it, decided once.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueInfo {
    /// Every array the value reads — an access's base, and any array
    /// inside a subscript or operand (`b[a[i]] + 1` reads `b` and `a`), as
    /// [`Ref::Array`] or [`Ref::Local`]: a write to any of them makes a
    /// kept value stale.
    pub arrays: Vec<Ref>,
    /// Whether it is side-effect-free and deterministic within a step (no
    /// `rand()`, user call, assignment or reduction). An access's
    /// subscripts may fail this; every other value passes it.
    pub cacheable: bool,
    /// Whether it reads only index elements and constants, so it is the
    /// same in every sweep of the `*par` whose predicate computes it: the
    /// first sweep computes it and the construct keeps it.
    pub invariant: bool,
    /// An access's plan: each subscript's shape, an element's axis
    /// counted from the function's outermost construct. The executor, and
    /// sema for UC110/UC111, value it and pick a path from it. Empty for
    /// any other.
    pub forms: Vec<opt::SubForm>,
}

/// What a side-effect-free expression reads, as [`Checker::reads`]
/// finds it.
#[derive(Debug, Clone, Copy, Default)]
struct Reads {
    /// An index element.
    elems: bool,
    /// Anything else that is not a constant: an array, a global, a
    /// register or per-VP local.
    state: bool,
    /// A value that is one per VP: an element, an array element, a per-VP
    /// local, a `?:`.
    parallel: bool,
}

/// A store that may give one array element distinct values in one step
/// (§3.4): its value varies along an open axis that its location neither
/// tells apart nor has pinned by a guard. UC101 reports it; the executor
/// traps on the values it actually stores, naming the same step.
#[derive(Debug, Clone, PartialEq)]
pub struct Race {
    /// The assignment, or the `swap` that stores each operand to the other.
    pub span: Span,
    /// What runs the step, by the step table ([`step`]): the construct's
    /// keyword, or the reduction's operator for a store in a reduction's
    /// operand.
    pub step: &'static str,
    /// The set whose element is such an axis (the first by element name).
    pub elem: SetId,
    /// The location, as written.
    pub target: String,
    /// Whether the location varies along that axis — without telling its
    /// elements apart (`a[i / 2]`) — rather than staying one location.
    pub moves: bool,
}

/// A regular parallel access to a global array that the path rule routes
/// under the array's mapping ([`opt::Routing`]). UC110/UC111 report it.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedAccess {
    pub span: Span,
    /// A [`Ref::Array`] id.
    pub array: u32,
    /// As written.
    pub access: String,
    pub why: opt::Routing,
}

/// A constant-false guard (UC120): what it guards never runs.
#[derive(Debug, Clone, PartialEq)]
pub struct EmptyGuard {
    pub span: Span,
    /// `if`, `while`, `for` or `st`.
    pub what: &'static str,
    /// Whether it guards a reduction's operand rather than a statement.
    pub operand: bool,
}

/// A read or store of a scalar local that UC130 or UC131 reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalUse {
    /// The identifier read, or the assignment or declaration that stores.
    pub span: Span,
    /// Its function, as a position in [`Checked::funcs_in_order`].
    pub func: usize,
    /// The local, in that function's [`FuncInfo::locals`].
    pub local: LocalId,
}

/// The output of semantic analysis, consumed by the executor, the
/// optimizer and the lints.
#[derive(Debug, Clone)]
pub struct Checked {
    /// The unit, with every construct's and reduction's `sets` filled in.
    pub unit: Unit,
    /// Every index-set definition, global or local, in the order sema met
    /// it; a [`SetId`] indexes this table.
    pub sets: Vec<IndexSetInfo>,
    /// Global arrays in name order; a [`Ref::Array`] indexes this.
    pub arrays: Vec<ArrayInfo>,
    /// Their names, in the same order.
    pub array_names: Vec<String>,
    /// Global scalar variables (type, constant initializer if any).
    pub scalars: HashMap<String, (Type, Option<i64>)>,
    /// Global scalar names in name order; a [`Ref::Global`] indexes this
    /// (and `Program`'s values, and the IR's `g0=`).
    pub global_names: Vec<String>,
    /// Which function is `main`, as a [`Callee::Func`] index.
    pub main: usize,
    /// Per function, in [`Checked::funcs_in_order`] order.
    pub func_infos: Vec<FuncInfo>,
    /// Per function, in [`Checked::funcs_in_order`] order: whether `main`
    /// reaches it through user calls — from anywhere in a body, parallel
    /// constructs and reductions included. Nothing else can run: lowering
    /// skips the rest, and UC132 reports them.
    pub reachable: Vec<bool>,
    /// Every value the executor may keep; a [`ValueId`] indexes this.
    pub values: Vec<ValueInfo>,
    /// Every store that may race, in the order sema met it.
    pub races: Vec<Race>,
    /// Every regular access the router serves, per occurrence; none under
    /// a `solve`.
    pub routed: Vec<RoutedAccess>,
    /// Every constant-false guard, in the order sema met it.
    pub empty_guards: Vec<EmptyGuard>,
    /// The first read of each scalar local while it is definitely
    /// uninitialised, in evaluation order.
    pub uninit_reads: Vec<LocalUse>,
    /// Every store to a scalar local that a later store overwrites within
    /// one straight-line run, no read between, in evaluation order.
    pub dead_stores: Vec<LocalUse>,
}

impl Checked {
    /// Function definitions in source order; a [`Callee::Func`] is a
    /// position in it.
    pub fn funcs_in_order(&self) -> impl Iterator<Item = &FuncDef> {
        self.unit.items.iter().filter_map(|it| match it {
            Item::Func(f) => Some(f),
            _ => None,
        })
    }

    /// The global array a [`Ref::Array`] denotes.
    pub fn array(&self, id: u32) -> &ArrayInfo {
        &self.arrays[id as usize]
    }
}

/// Evaluate a compile-time constant integer expression against a constant
/// table (`#define`s), every identifier read by its spelling: for what is
/// evaluated outside any scope — array extents, index-set bounds, global
/// initialisers. Returns the span of the first non-constant
/// subexpression on failure.
pub fn const_eval(e: &Expr, consts: &HashMap<String, i64>) -> Result<i64, Span> {
    int_const(e, |n| consts.get(&*n.text).map(|v| Scalar::Int(*v)))
}

/// [`opt::eval_pure`] restricted to integers — a float literal anywhere,
/// or a non-integer result, is not a constant here.
pub(crate) fn int_const(e: &Expr, names: impl FnMut(&Name) -> Option<Scalar>) -> Result<i64, Span> {
    let value = opt::eval_pure(e, names)?;
    let mut float = None;
    e.any(&mut |x| {
        if let Expr::FloatLit(_, span) = x {
            float = Some(*span);
        }
        float.is_some()
    });
    match (value, float) {
        (Scalar::Int(v), None) => Ok(v),
        (_, span) => Err(span.unwrap_or(e.span())),
    }
}

/// The one front end: parse `src`, apply the `-D` overrides, check.
/// `Program::compile_with_defines` and `analysis::check_source` both
/// start here.
pub fn front_end(src: &str, defines: &[(&str, i64)], diags: &mut Diagnostics) -> Option<Checked> {
    let mut unit = crate::parser::parse(src, diags)?;
    unit.override_defines(defines);
    check(unit, diags)
}

/// Run semantic analysis. Errors are recorded in `diags`; returns `None`
/// if any were produced.
pub fn check(mut unit: Unit, diags: &mut Diagnostics) -> Option<Checked> {
    let mut cx = Checker {
        diags,
        consts: HashMap::new(),
        define_ids: HashMap::new(),
        sets: Vec::new(),
        global_sets: HashMap::new(),
        arrays: HashMap::new(),
        array_names: Vec::new(),
        scalars: HashMap::new(),
        global_names: Vec::new(),
        funcs: HashMap::new(),
        func_infos: Vec::new(),
        callees: Vec::new(),
        values: Vec::new(),
        value_ids: HashMap::new(),
        scopes: Vec::new(),
        nest: Nesting::default(),
        open: Vec::new(),
        pins: Vec::new(),
        local_axes: Vec::new(),
        races: Vec::new(),
        routed: Vec::new(),
        empty_guards: Vec::new(),
        flow: Flow::default(),
        effects: 0,
    };
    cx.run(&mut unit);
    if cx.diags.has_errors() {
        return None;
    }
    let arrays = cx.array_names.iter().map(|n| cx.arrays.remove(n).expect("named")).collect();
    let main = cx.funcs["main"].index as usize;
    Some(Checked {
        unit,
        sets: cx.sets,
        arrays,
        array_names: cx.array_names,
        scalars: cx.scalars,
        global_names: cx.global_names,
        main,
        func_infos: cx.func_infos,
        reachable: reachable(main, &cx.callees),
        values: cx.values,
        races: cx.races,
        routed: cx.routed,
        empty_guards: cx.empty_guards,
        uninit_reads: cx.flow.uninit_reads,
        dead_stores: cx.flow.dead_stores,
    })
}

/// Which functions `main` reaches, given each function's user callees.
fn reachable(main: usize, callees: &[Vec<u32>]) -> Vec<bool> {
    let mut reached = vec![false; callees.len()];
    let mut queue = vec![main];
    while let Some(f) = queue.pop() {
        if !std::mem::replace(&mut reached[f], true) {
            queue.extend(callees[f].iter().map(|&g| g as usize));
        }
    }
    reached
}

/// What a name denotes: beside the [`Ref`] to write on an identifier,
/// what sema itself needs to check its use. A scope of a function body
/// maps a spelling to one; [`Checker::lookup`] also finds the globals.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Denotes {
    /// The element of an open `par`/`oneof`/`solve` or reduction
    /// (read-only integer): the coordinate along its axis of the iteration
    /// space ([`Checker::elem_axis`]).
    Elem,
    /// A `#define` (read-only integer).
    Const,
    /// A scalar of this type, declared under `depth` iteration spaces of
    /// its function ([`Nesting::depth`]): 0 is a front-end scalar,
    /// anything else one value per virtual processor. A `seq` element is
    /// one that cannot be assigned.
    Scalar { ty: Type, depth: usize, read_only: bool },
    Array { ty: Type, rank: usize },
    /// A locally declared index set (not a value).
    IndexSet(SetId),
}

/// What a call site needs to know about a user function.
struct FuncSig {
    ret: Type,
    /// How many parameters it takes; `None` if its list repeats a name.
    params: Option<usize>,
    span: Span,
    /// Position of the definition in [`Checked::funcs_in_order`].
    index: u32,
}

struct Checker<'a> {
    diags: &'a mut Diagnostics,
    consts: HashMap<String, i64>,
    /// `#define` name → position of its (last) definition in `unit.defines`.
    define_ids: HashMap<String, u32>,
    sets: Vec<IndexSetInfo>,
    global_sets: HashMap<String, SetId>,
    arrays: HashMap<String, ArrayInfo>,
    array_names: Vec<String>,
    scalars: HashMap<String, (Type, Option<i64>)>,
    global_names: Vec<String>,
    funcs: HashMap<String, FuncSig>,
    /// One per function checked so far; the last is the one being checked.
    func_infos: Vec<FuncInfo>,
    /// Beside each of them, the user functions its calls resolved to.
    callees: Vec<Vec<u32>>,
    values: Vec<ValueInfo>,
    /// Canonical form of a resolved access or kept value → its id.
    value_ids: HashMap<Vec<u8>, ValueId>,
    /// Scope stack for function bodies: name → binding.
    scopes: Vec<HashMap<String, (Ref, Denotes)>>,
    nest: Nesting,
    /// The set of each axis of the iteration space open here, outermost
    /// first, counted from the function's outermost construct: one per set
    /// an enclosing `par`/`oneof`/`solve` or reduction binds (a `seq`
    /// extends no space).
    open: Vec<SetId>,
    /// The axes the enclosing guards pin: `(axis, along)` where the
    /// element of `axis` equals a value that varies only along the open
    /// axes `along` marks (see [`Checker::pin`]).
    pins: Vec<(usize, Vec<bool>)>,
    /// Per local of the function being checked: the axes open where it was
    /// declared. A per-VP local varies along all of them.
    local_axes: Vec<usize>,
    races: Vec<Race>,
    routed: Vec<RoutedAccess>,
    empty_guards: Vec<EmptyGuard>,
    flow: Flow,
    /// Assignments, `swap`s and user calls checked so far: an expression
    /// writes nothing iff checking it leaves this unchanged (see [`lend`]).
    effects: u32,
}

/// Where the statement being checked sits relative to the enclosing UC
/// constructs of its function — what decides whether sequential control
/// flow, array declarations and stores to per-processor locals are legal
/// there.
#[derive(Default, Clone, Copy)]
struct Nesting {
    /// Inside a `par`/`oneof`/`solve`, directly or through a nested
    /// `seq`: every processor executes every statement, so there is no
    /// front-end control flow (predicates go in `st` clauses).
    parallel: bool,
    /// Inside any construct, front-end `seq` included.
    construct: bool,
    /// Loops opened since the innermost construct: a `break`/`continue`
    /// with none would have to leave the construct.
    loops: usize,
    /// Iteration spaces open here: one per enclosing `par`/`oneof`/`solve`
    /// and per enclosing reduction (a `seq` extends no space).
    depth: usize,
    /// What runs a store here, if it traps on distinct values stored to one
    /// element (§3.4), by the step table ([`step`]): the innermost
    /// construct's keyword — `seq` does not count — or a reduction's
    /// operator. `None` on the front end and in a `*solve`, which stores
    /// without the check.
    step: Option<&'static str>,
    /// Inside a `solve` or `*solve`, whose accesses sema leaves
    /// unclassified ([`RoutedAccess`]).
    solve: bool,
}

/// The dataflow of the function being checked over its declared scalar
/// locals, register or per-VP — not its parameters, which the caller
/// initialises, nor its arrays — applied in evaluation order as sema checks
/// the body (§4's "standard code optimizations" as diagnostics):
///
/// * **UC130** — a read while the local is *definitely* uninitialised, the
///   first per local. At a [`Fork`] each path starts from the fork's state
///   (an `if`'s branches, a loop's body, a construct's arms and `others`),
///   and past the join a local stays uninitialised only if no path
///   initialises it: the path that skips a loop or an `else`-less `if`
///   initialises nothing, so a maybe-initialised read is never reported.
/// * **UC131** — a store that the next store to the local overwrites with
///   no read between, within one straight-line run: every fork, join and
///   `return` drops the stores waiting for a read.
#[derive(Default)]
struct Flow {
    /// Its position in [`Checked::funcs_in_order`].
    func: usize,
    /// Locals `0..params` are the parameters.
    params: LocalId,
    /// Per local: whether it is definitely uninitialised here.
    uninit: Vec<bool>,
    /// Per local: whether UC130 has reported it.
    reported: Vec<bool>,
    /// Each local a store initialised, in order: a path rewinds to its
    /// fork by marking those it initialised uninitialised again.
    inits: Vec<LocalId>,
    /// The stores of this straight-line run that nothing has read yet.
    pending: Vec<(LocalId, Span)>,
    /// While a `for`'s step is checked: its uses, which run after the body.
    deferred: Option<Vec<(Use, LocalId, Span)>>,
    uninit_reads: Vec<LocalUse>,
    dead_stores: Vec<LocalUse>,
}

#[derive(Clone, Copy)]
enum Use {
    Read,
    Store,
}

/// Where control flow branches: the state its paths start from.
struct Fork {
    inits: usize,
    locals: usize,
}

impl Flow {
    /// Begin function `func`, whose first `params` locals are parameters.
    fn start(&mut self, func: usize, params: usize) {
        (self.func, self.params) = (func, params as LocalId);
        self.uninit.clear();
        self.reported.clear();
        self.inits.clear();
        self.pending.clear();
    }

    /// A new local, initialised until a declaration says otherwise.
    fn local(&mut self) {
        self.uninit.push(false);
        self.reported.push(false);
    }

    /// A scalar declaration: a store of its initialiser, if it has one.
    fn declared(&mut self, id: LocalId, init: Option<Span>) {
        match init {
            Some(span) => self.apply(Use::Store, id, span),
            None => self.uninit[id as usize] = true,
        }
    }

    /// A read or store of local `id`, or of a parameter (which nothing
    /// tracks): applied now, or once the body runs if it is in a step.
    fn apply(&mut self, what: Use, id: LocalId, span: Span) {
        if id < self.params {
            return;
        }
        if let Some(deferred) = &mut self.deferred {
            return deferred.push((what, id, span));
        }
        let at = |span| LocalUse { span, func: self.func, local: id };
        let k = id as usize;
        match what {
            Use::Read => {
                self.pending.retain(|&(pending, _)| pending != id);
                if self.uninit[k] && !std::mem::replace(&mut self.reported[k], true) {
                    self.uninit_reads.push(at(span));
                }
            }
            Use::Store => {
                if std::mem::replace(&mut self.uninit[k], false) {
                    self.inits.push(id);
                }
                match self.pending.iter_mut().find(|(pending, _)| *pending == id) {
                    Some((_, last)) => self.dead_stores.push(at(std::mem::replace(last, span))),
                    None => self.pending.push((id, span)),
                }
            }
        }
    }

    /// Open a branch point; the straight-line run ends.
    fn fork(&mut self) -> Fork {
        self.pending.clear();
        Fork { inits: self.inits.len(), locals: self.uninit.len() }
    }

    /// Start a path of `fork` from its state: what the paths since
    /// initialised is uninitialised again, and the locals they declared
    /// are out of scope.
    fn rewind(&mut self, fork: &Fork) {
        self.pending.clear();
        for &id in &self.inits[fork.inits..] {
            self.uninit[id as usize] = true;
        }
        self.uninit[fork.locals..].fill(false);
    }

    /// Close `fork`: what any of its paths initialised is initialised.
    fn join(&mut self, fork: Fork) {
        self.pending.clear();
        for &id in &self.inits[fork.inits..] {
            self.uninit[id as usize] = false;
        }
        self.uninit[fork.locals..].fill(false);
    }
}

/// Whether a value is one front-end scalar or a parallel value, one per
/// virtual processor of the iteration space open where it is computed.
/// With no space open everything is a scalar (an array read fetches one
/// element, a reduction folds to one value). Under one, an index element,
/// a per-processor local, any array read, `rand()`, `?:` and a nested
/// reduction are parallel; a literal, `#define`, global, register local
/// and user call are scalar; operators, `power2`, `abs`, `min` and `max`
/// are parallel iff an operand is; an assignment has its stored value's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rank {
    Scalar,
    Parallel,
}

/// Inferred expression type. `Bool` is C's 0/1 int but tracked so logical
/// contexts are understood; it freely coerces to `Int`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprTy {
    Int,
    Float,
    Bool,
    Void,
}

impl ExprTy {
    fn of(ty: Type) -> ExprTy {
        match ty {
            Type::Int => ExprTy::Int,
            Type::Float => ExprTy::Float,
            Type::Void => ExprTy::Void,
        }
    }

    /// The numeric type of two operands combined: float wins, a bool acts
    /// as an int.
    pub fn join(self, other: ExprTy) -> ExprTy {
        if self == ExprTy::Float || other == ExprTy::Float { ExprTy::Float } else { ExprTy::Int }
    }

    fn is_numeric(self) -> bool {
        matches!(self, ExprTy::Int | ExprTy::Float | ExprTy::Bool)
    }

    fn int_like(self) -> bool {
        matches!(self, ExprTy::Int | ExprTy::Bool)
    }
}

impl<'a> Checker<'a> {
    fn run(&mut self, unit: &mut Unit) {
        for (id, (name, value)) in unit.defines.iter().enumerate() {
            self.define_ids.insert(name.clone(), id as u32);
            self.consts.insert(name.clone(), *value);
        }
        // First pass: collect all top-level declarations so functions can
        // reference globals declared after them.
        let mut functions = 0;
        for it in &unit.items {
            match it {
                Item::IndexSets(defs) => {
                    for def in defs {
                        let id = self.define_index_set(def);
                        // One global namespace holds sets and variables
                        // too; the first definition stays bound.
                        let name = &def.name;
                        if self.scalars.contains_key(name) || self.arrays.contains_key(name) {
                            let msg = format!("`{name}` is already declared as a variable");
                            self.diags.error(def.span, msg);
                            continue;
                        }
                        match self.global_sets.entry(def.name.clone()) {
                            Entry::Vacant(slot) => _ = slot.insert(id),
                            Entry::Occupied(_) => self
                                .diags
                                .error(def.span, format!("index set `{}` redefined", def.name)),
                        }
                    }
                }
                Item::Var(v) => {
                    // One global namespace holds variables and functions,
                    // as in C.
                    if self.funcs.contains_key(&v.name) {
                        let msg = format!("`{}` is already declared as a function", v.name);
                        self.diags.error(v.span, msg);
                    }
                    self.declare_global(v);
                }
                Item::Func(f) => {
                    // A parameter list that repeats a name is an error
                    // there; a call then counts no arguments against it.
                    let repeats = f.params.iter().enumerate().any(|(k, (_, name, _))| {
                        f.params[..k].iter().any(|(_, first, _)| first == name)
                    });
                    let params = (!repeats).then_some(f.params.len());
                    let sig = FuncSig { ret: f.ret, params, span: f.span, index: functions };
                    functions += 1;
                    // A call by that name would never reach the definition.
                    if Builtin::named(&f.name).is_some() {
                        self.diags
                            .error(f.span, format!("function `{}` redefines a builtin", f.name));
                    } else if self.funcs.contains_key(&f.name) {
                        // The first stays bound.
                        self.diags
                            .error(f.span, format!("function `{}` redefined", f.name));
                    } else {
                        if self.scalars.contains_key(&f.name) || self.arrays.contains_key(&f.name) {
                            let msg = format!("`{}` is already declared as a variable", f.name);
                            self.diags.error(f.span, msg);
                        }
                        self.funcs.insert(f.name.clone(), sig);
                    }
                }
                Item::Map(_) => {}
            }
        }
        // A global's id is its position in name order.
        self.global_names = self.scalars.keys().cloned().collect();
        self.global_names.sort_unstable();
        self.array_names = self.arrays.keys().cloned().collect();
        self.array_names.sort_unstable();
        // The map section, then the bodies (resolving their index-set names
        // in place): each access is judged under its array's mapping.
        let mut mapped = vec![false; self.array_names.len()];
        for item in &mut unit.items {
            if let Item::Map(m) = item {
                self.check_map(m, &mut mapped);
            }
        }
        for item in &mut unit.items {
            if let Item::Func(f) = item {
                self.check_func(f);
            }
        }
        match self.funcs.get("main") {
            None => self.diags.error(Span::default(), "program has no `main` function"),
            Some(main) if main.params != Some(0) => {
                self.diags.error(main.span, "`main` takes no parameters");
            }
            Some(_) => {}
        }
    }

    /// Evaluate one definition and enter it in the table. A definition
    /// that fails is entered with no elements, which no valid set has: its
    /// uses (and its element's) then report nothing more, and sema fails
    /// on the error already reported.
    fn define_index_set(&mut self, def: &IndexSetDef) -> SetId {
        let info = self.index_set_info(def).unwrap_or_else(|| IndexSetInfo {
            name: def.name.clone(),
            elem: def.elem.clone(),
            elements: Arc::default(),
            span: def.span,
            alias_of: None,
            used: false,
            lo: None,
        });
        self.sets.push(info);
        self.sets.len() - 1
    }

    /// Evaluate one definition — the only place a set's elements are
    /// computed. A range is checked against [`MAX_CONST_INDEX_SET`] before
    /// anything is materialised. `None` once an error is reported, or
    /// silently for an alias of a failed definition.
    fn index_set_info(&mut self, def: &IndexSetDef) -> Option<IndexSetInfo> {
        let mut alias_of = None;
        let contiguous;
        let elements = match &def.init {
            IndexSetInit::Range(lo, hi) => {
                let (lo, hi) = (self.const_expr(lo)?, self.const_expr(hi)?);
                if hi < lo {
                    self.diags.error(
                        def.span,
                        format!("index-set range {{{lo}..{hi}}} is empty or reversed"),
                    );
                    return None;
                }
                let len = hi.abs_diff(lo).saturating_add(1);
                if len > MAX_CONST_INDEX_SET {
                    self.diags.error(
                        def.span,
                        format!(
                            "index set `{}` materialises {len} elements (limit {MAX_CONST_INDEX_SET})",
                            def.name
                        ),
                    );
                    return None;
                }
                contiguous = Some(lo);
                Arc::new((lo..=hi).collect())
            }
            IndexSetInit::List(items) => {
                let elements: Option<Vec<i64>> = items.iter().map(|e| self.const_expr(e)).collect();
                let elements = elements?;
                contiguous = scan_contiguous_lo(&elements);
                Arc::new(elements)
            }
            IndexSetInit::Alias(src) => match self.lookup_index_set(src) {
                Some(id) if self.sets[id].elements.is_empty() => return None,
                Some(id) => {
                    self.sets[id].used = true;
                    alias_of = Some(id);
                    contiguous = self.sets[id].lo;
                    self.sets[id].elements.clone()
                }
                None => {
                    self.diags
                        .error(def.span, format!("unknown index set `{src}` in alias"));
                    return None;
                }
            },
        };
        if elements.is_empty() {
            self.diags.error(def.span, format!("index set `{}` is empty", def.name));
            return None;
        }
        Some(IndexSetInfo {
            name: def.name.clone(),
            elem: def.elem.clone(),
            elements,
            span: def.span,
            alias_of,
            used: false,
            lo: contiguous,
        })
    }

    /// The definition a set name denotes here: innermost local first,
    /// then the globals.
    fn lookup_index_set(&self, name: &str) -> Option<SetId> {
        for scope in self.scopes.iter().rev() {
            if let Some((_, Denotes::IndexSet(id))) = scope.get(name) {
                return Some(*id);
            }
        }
        self.global_sets.get(name).copied()
    }

    /// Resolve a construct's or reduction's set names, binding each set's
    /// element in a fresh scope. Reuse of a set hides the outer binding,
    /// as in the paper (§3.4).
    fn bind_sets(&mut self, idxs: &[String], span: Span, whose: &str) -> Vec<SetId> {
        let mut scope = HashMap::new();
        let mut sets = Vec::with_capacity(idxs.len());
        for name in idxs {
            match self.lookup_index_set(name) {
                Some(id) => {
                    self.sets[id].used = true;
                    scope.insert(self.sets[id].elem.clone(), (Ref::Elem(id as u32), Denotes::Elem));
                    sets.push(id);
                }
                None => self.diags.error(span, format!("unknown index set `{name}`{whose}")),
            }
        }
        self.scopes.push(scope);
        sets
    }

    /// A variable's declared type. A `void` one is an error, and the
    /// variable is bound as an `int`: its uses report nothing more, and
    /// sema fails on the error.
    fn variable_type(&mut self, v: &VarDecl) -> Type {
        if v.ty != Type::Void {
            return v.ty;
        }
        self.diags.error(v.span, "variables cannot have type void");
        Type::Int
    }

    fn declare_global(&mut self, v: &VarDecl) {
        let ty = self.variable_type(v);
        // Scalars, arrays and index sets share one namespace; the first
        // stays bound.
        let (clash, what) = if self.global_sets.contains_key(&v.name) {
            (true, "an index set")
        } else if v.dims.is_empty() {
            (self.arrays.contains_key(&v.name), "an array")
        } else {
            (self.scalars.contains_key(&v.name), "a variable")
        };
        if clash {
            return self.diags.error(v.span, format!("`{}` is already declared as {what}", v.name));
        }
        if v.dims.is_empty() {
            let init = match &v.init {
                Some(e) => self.const_expr(e),
                None => Some(0),
            };
            // The first stays bound.
            match self.scalars.entry(v.name.clone()) {
                Entry::Vacant(slot) => _ = slot.insert((ty, init)),
                Entry::Occupied(_) => self.diags.error(v.span, format!("variable `{}` redefined", v.name)),
            }
        } else {
            let shape: Option<Vec<usize>> = v.dims.iter().map(|d| self.extent(d)).collect();
            let Some(shape) = shape else {
                // Bound with zero extents, which no valid array has: its
                // uses report nothing more, and sema fails on the error.
                let shape = vec![0; v.dims.len()];
                let poisoned = ArrayInfo { ty, shape, mapping: ArrayMapping::Default };
                self.arrays.entry(v.name.clone()).or_insert(poisoned);
                return;
            };
            if v.init.is_some() {
                self.diags.error(v.span, "array initializers are not supported");
            }
            let info = ArrayInfo { ty, shape, mapping: ArrayMapping::Default };
            match self.arrays.entry(v.name.clone()) {
                Entry::Vacant(slot) => _ = slot.insert(info),
                Entry::Occupied(_) => self.diags.error(v.span, format!("array `{}` redefined", v.name)),
            }
        }
    }

    /// Evaluate a compile-time constant integer expression (`#define`s,
    /// literals, arithmetic). Used for array extents and index-set bounds.
    fn const_expr(&mut self, e: &Expr) -> Option<i64> {
        match const_eval(e, &self.consts) {
            Ok(v) => Some(v),
            Err(span) => {
                self.diags.error(span, "expected a compile-time constant expression");
                None
            }
        }
    }

    /// An array extent: a positive compile-time constant.
    fn extent(&mut self, d: &Expr) -> Option<usize> {
        let n = self.const_expr(d)?;
        if n <= 0 {
            self.diags
                .error(d.span(), format!("array extent must be positive, got {n}"));
            return None;
        }
        Some(n as usize)
    }

    // ---- function bodies ------------------------------------------------

    /// A function's parameters and its body's outer block are one scope,
    /// as in C: a local there may not take a parameter's name.
    fn check_func(&mut self, f: &mut FuncDef) {
        self.func_infos.push(FuncInfo::default());
        self.callees.push(Vec::new());
        self.local_axes.clear();
        self.flow.start(self.func_infos.len() - 1, f.params.len());
        self.scopes.push(HashMap::new());
        for (ty, name, span) in &f.params {
            if *ty == Type::Void {
                self.diags.error(*span, format!("parameter `{name}` cannot be void"));
            }
            let id = self.new_local(name, *ty, None);
            let what = Denotes::Scalar { ty: *ty, depth: 0, read_only: false };
            self.bind_local(name, (Ref::Local(id), what), *span);
        }
        self.nest = Nesting::default();
        for s in &mut f.body.stmts {
            self.check_stmt(s);
        }
        self.scopes.pop();
    }

    /// Bind `name` in the innermost scope; a second declaration there is
    /// an error at `span`, the first stays bound.
    fn bind_local(&mut self, name: &str, binding: (Ref, Denotes), span: Span) {
        let scope = self.scopes.last_mut().expect("inside a scope");
        match scope.entry(name.to_string()) {
            Entry::Vacant(slot) => _ = slot.insert(binding),
            Entry::Occupied(_) => {
                self.diags.error(span, format!("`{name}` is already declared in this scope"))
            }
        }
    }

    /// The table of the function being checked.
    fn func_info(&mut self) -> &mut FuncInfo {
        self.func_infos.last_mut().expect("inside a function")
    }

    /// Enter a local in the function's table; `None` gives it the next
    /// register.
    fn new_local(&mut self, name: &str, ty: Type, kind: Option<LocalKind>) -> LocalId {
        let f = self.func_info();
        let kind = kind.unwrap_or_else(|| {
            f.regs += 1;
            // A function with more locals than registers is rejected
            // before it runs, so the truncation is never observed.
            LocalKind::Reg((f.regs - 1) as Reg)
        });
        f.machine_locals |= !matches!(kind, LocalKind::Reg(_));
        f.locals.push(LocalInfo { name: name.to_string(), ty, kind });
        let id = (f.locals.len() - 1) as LocalId;
        self.local_axes.push(self.open.len());
        self.flow.local();
        id
    }

    /// Reject control-flow statement `what` where the front end cannot
    /// run it: anywhere in a parallel construct, and — when it `jumps`
    /// out of the innermost construct — in a front-end `seq`.
    fn check_flow(&mut self, what: &str, jumps: bool, span: Span) {
        if self.nest.parallel {
            let hint = if what == "if" { " (use `st` predicates)" } else { "" };
            self.diags.error(span, format!("`{what}` inside a parallel construct{hint}"));
        } else if jumps {
            self.diags.error(span, format!("`{what}` would leave the enclosing `seq`"));
        }
    }

    fn check_block(&mut self, b: &mut Block) {
        self.scopes.push(HashMap::new());
        for s in &mut b.stmts {
            self.check_stmt(s);
        }
        self.scopes.pop();
    }

    fn declare_local(&mut self, v: &mut VarDecl) {
        let ty = self.variable_type(v);
        let what = if v.dims.is_empty() {
            if let Some(init) = &mut v.init {
                self.check_expr(init);
            }
            let depth = self.nest.depth;
            v.local = self.new_local(&v.name, ty, (depth > 0).then_some(LocalKind::PerVp));
            self.flow.declared(v.local, v.init.as_ref().map(|_| v.span));
            Denotes::Scalar { ty, depth, read_only: false }
        } else {
            if self.nest.parallel {
                self.diags
                    .error(v.span, "array declarations inside a parallel construct");
            }
            let shape = v.dims.iter().filter_map(|d| self.extent(d)).collect();
            if v.init.is_some() {
                self.diags.error(v.span, "array initializers are not supported");
            }
            v.local = self.new_local(&v.name, ty, Some(LocalKind::Array(shape)));
            Denotes::Array { ty, rank: v.dims.len() }
        };
        self.bind_local(&v.name, (Ref::Local(v.local), what), v.span);
    }

    fn check_stmt(&mut self, s: &mut Stmt) {
        match s {
            // `swap` is a statement: only here is a call to it not a value.
            Stmt::Expr(e @ Expr::Call { .. }) => _ = self.check_call(e, true),
            Stmt::Expr(e) => _ = self.check_expr(e),
            Stmt::Decl(v) => self.declare_local(v),
            Stmt::IndexSets(defs) => {
                for def in defs {
                    let id = self.define_index_set(def);
                    self.bind_local(&def.name, (Ref::Unresolved, Denotes::IndexSet(id)), def.span);
                }
            }
            Stmt::Block(b) => self.check_block(b),
            Stmt::If { cond, then_branch, else_branch, span } => {
                self.check_flow("if", false, *span);
                self.check_expr(cond);
                self.guard(cond, "if", false);
                let fork = self.flow.fork();
                self.check_stmt(then_branch);
                if let Some(e) = else_branch {
                    self.flow.rewind(&fork);
                    self.check_stmt(e);
                }
                self.flow.join(fork);
            }
            Stmt::While { cond, body, span } => {
                self.check_flow("while", false, *span);
                self.func_info().loop_regs += 1;
                self.check_expr(cond);
                self.guard(cond, "while", false);
                let fork = self.flow.fork();
                self.nest.loops += 1;
                self.check_stmt(body);
                self.nest.loops -= 1;
                self.flow.join(fork);
            }
            Stmt::For { init, cond, step, body, span } => {
                self.check_flow("for", false, *span);
                self.func_info().loop_regs += 1;
                for e in [&mut *init, &mut *cond].into_iter().flatten() {
                    self.check_expr(e);
                }
                // The step runs after the body: so do its uses.
                self.flow.deferred = Some(Vec::new());
                step.iter_mut().for_each(|step| _ = self.check_expr(step));
                let step_uses = self.flow.deferred.take().unwrap_or_default();
                cond.iter().for_each(|cond| self.guard(cond, "for", false));
                let fork = self.flow.fork();
                self.nest.loops += 1;
                self.check_stmt(body);
                self.nest.loops -= 1;
                for (what, id, span) in step_uses {
                    self.flow.apply(what, id, span);
                }
                self.flow.join(fork);
            }
            Stmt::Return(e, span) => {
                self.check_flow("return", self.nest.construct, *span);
                if let Some(e) = e {
                    self.check_expr(e);
                }
                self.flow.pending.clear();
            }
            Stmt::Break(span) | Stmt::Continue(span) => {
                let span = *span;
                let what = if matches!(s, Stmt::Break(_)) { "break" } else { "continue" };
                self.check_flow(what, self.nest.construct && self.nest.loops == 0, span);
            }
            Stmt::Empty => {}
            Stmt::Uc(uc) => self.check_uc(uc),
        }
    }

    fn check_uc(&mut self, uc: &mut UcStmt) {
        uc.sets = self.bind_sets(&uc.idxs, uc.span, "");
        let outer = self.nest;
        let parallel = uc.kind != UcKind::Seq;
        if !parallel {
            // A `seq` binds one value at a time: its element is a
            // front-end scalar of the function, not a coordinate of a
            // space — also when the `seq` runs under the masks of a `par`.
            for &set in &uc.sets {
                let elem = self.sets[set].elem.clone();
                uc.elem = self.new_local(&elem, Type::Int, None);
                let what = Denotes::Scalar { ty: Type::Int, depth: 0, read_only: true };
                let scope = self.scopes.last_mut().expect("bind_sets pushed one");
                scope.insert(elem, (Ref::Local(uc.elem), what));
            }
            if !outer.parallel {
                // Swept by the front end: the lowered loop's registers.
                self.func_info().loop_regs += 1 + uc.star as u32 + uc.others.is_some() as u32;
            }
        }
        let (axes, pins) = (self.open.len(), self.pins.len());
        if parallel {
            self.open.extend(&uc.sets);
        }
        self.nest = Nesting {
            parallel: outer.parallel || parallel,
            construct: true,
            loops: 0,
            depth: outer.depth + parallel as usize,
            step: step(Opener::Construct(uc.kind, uc.star), outer.step),
            solve: outer.solve || uc.kind == UcKind::Solve,
        };
        let fork = self.flow.fork();
        for arm in &mut uc.arms {
            self.flow.rewind(&fork);
            if let Some(p) = &mut arm.pred {
                if uc.kind == UcKind::Solve {
                    self.diags
                        .error(p.span(), "`st` predicates are not supported on `solve` statements");
                }
                self.check_expr(p);
                self.guard(p, "st", false);
                self.pin(p, BinaryOp::Eq);
            }
            self.check_stmt(&mut arm.body);
            self.pins.truncate(pins);
        }
        if let Some(o) = &mut uc.others {
            if uc.kind == UcKind::Oneof {
                self.diags
                    .error(uc.span, "`others` is not supported on `oneof` statements");
            } else if uc.arms.iter().all(|a| a.pred.is_none()) {
                self.diags.error(
                    uc.span,
                    "`others` requires at least one `st`-guarded arm before it",
                );
            }
            // `others` runs where every arm predicate is false.
            for p in uc.arms.iter().filter_map(|a| a.pred.as_ref()) {
                self.pin(p, BinaryOp::Ne);
            }
            self.flow.rewind(&fork);
            self.check_stmt(o);
            self.pins.truncate(pins);
        }
        self.flow.join(fork);
        self.nest = outer;
        if uc.kind == UcKind::Par || (uc.kind == UcKind::Seq && outer.parallel) {
            self.keep_values(uc);
        }
        if uc.kind == UcKind::Solve {
            self.check_solve_arms(uc);
        }
        if uc.kind == UcKind::Seq && uc.idxs.len() != 1 {
            self.diags
                .error(uc.span, "`seq` iterates a single index set at a time");
        }
        self.open.truncate(axes);
        self.scopes.pop();
    }

    /// `solve` arms must be a proper set of assignments (§3.6): every arm
    /// a single assignment statement (or block of them), and — statically
    /// approximated — no two arms assigning the same variable. `*solve`
    /// drops the single-assignment requirement.
    fn check_solve_arms(&mut self, uc: &UcStmt) {
        let mut targets: Vec<String> = Vec::new();
        for arm in &uc.arms {
            self.collect_solve_targets(&arm.body, uc.star, &mut targets);
        }
        if let Some(o) = &uc.others {
            self.collect_solve_targets(o, uc.star, &mut targets);
        }
        if !uc.star {
            let mut seen = std::collections::HashSet::new();
            for t in &targets {
                if !seen.insert(t.clone()) {
                    self.diags.error(
                        uc.span,
                        format!(
                            "solve: variable `{t}` is assigned by more than one statement \
                             (a proper set allows at most one)"
                        ),
                    );
                }
            }
        }
    }

    fn collect_solve_targets(&mut self, s: &Stmt, star: bool, out: &mut Vec<String>) {
        match s {
            Stmt::Expr(Expr::Assign { target, op, value, .. }) => {
                if op.is_some() && !star {
                    self.diags.error(
                        s.span().unwrap_or_default(),
                        "solve assignments must be plain `=` (single assignment)",
                    );
                }
                // An assignment runs once every array element its right-hand
                // side reads is defined; a nested store or fold has no such
                // reading. `*solve` iterates to a fixed point instead.
                let nests = value.any(&mut |x| matches!(x, Expr::Assign { .. } | Expr::Reduce(_)));
                if nests && !star {
                    self.diags.error(
                        value.span(),
                        "a `solve` right-hand side cannot contain an assignment or a \
                         reduction (use `*solve`)",
                    );
                }
                match target.as_ref() {
                    Expr::Index { base, .. } => out.push(base.to_string()),
                    // `solve` orders element definitions; a scalar has none.
                    other => self
                        .diags
                        .error(other.span(), "solve targets must be array elements"),
                }
            }
            Stmt::Block(b) => {
                for inner in &b.stmts {
                    self.collect_solve_targets(inner, star, out);
                }
            }
            Stmt::Empty => {}
            other => {
                self.diags.error(
                    other.span().unwrap_or_default(),
                    "solve bodies may contain only assignment statements",
                );
            }
        }
    }

    // ---- expressions ------------------------------------------------------

    /// The one lookup order: innermost scope outwards, then the globals
    /// (scalars before arrays), then the `#define`s.
    fn lookup(&self, name: &str) -> Option<(Ref, Denotes)> {
        if let Some(found) = self.scopes.iter().rev().find_map(|scope| scope.get(name)) {
            return Some(*found);
        }
        let position = |names: &[String]| names.binary_search_by(|n| n.as_str().cmp(name)).ok();
        if let Some(g) = position(&self.global_names) {
            let what = Denotes::Scalar { ty: self.scalars[name].0, depth: 0, read_only: false };
            return Some((Ref::Global(g as u32), what));
        }
        if let Some(a) = position(&self.array_names) {
            let info = &self.arrays[name];
            let what = Denotes::Array { ty: info.ty, rank: info.shape.len() };
            return Some((Ref::Array(a as u32), what));
        }
        self.define_ids.get(name).map(|&id| (Ref::Const(id), Denotes::Const))
    }

    /// Resolve the target of a store of a `value` of that rank — an
    /// assignment's left-hand side or a `swap` operand — reporting whatever
    /// cannot be stored to or hold it. Returns the variable's type and rank.
    fn check_store_target(
        &mut self,
        name: &mut Name,
        span: Span,
        value: Rank,
    ) -> Option<(Type, Rank)> {
        let what = self.lookup(&name.text);
        let problem = match what {
            Some((to, Denotes::Scalar { ty, depth, read_only: false })) => {
                name.to = to;
                if depth == 0 && value == Rank::Parallel {
                    // A global or register local is one front-end value.
                    let what = "cannot store a parallel value to front-end scalar";
                    let hint = "combine the values with a reduction first";
                    self.diags.error(span, format!("{what} `{name}` ({hint})"));
                }
                // A per-processor local (declared inside a parallel
                // construct) has one value per point of the space it was
                // declared on: a store from a construct or reduction
                // nested deeper has no single value to give it. Reading it
                // from there is fine — the value is lifted.
                if depth > 0 && depth != self.nest.depth {
                    self.diags.error(
                        span,
                        format!("cannot assign to `{name}` from a more deeply nested construct"),
                    );
                }
                return Some((ty, if depth > 0 { Rank::Parallel } else { Rank::Scalar }));
            }
            Some((_, Denotes::Const)) => format!("cannot assign to constant `{name}`"),
            Some((_, Denotes::Elem | Denotes::Scalar { .. })) => {
                format!("cannot assign to index element `{name}` (read-only)")
            }
            Some(_) => format!("`{name}` cannot be assigned directly"),
            None => format!("unknown identifier `{name}`"),
        };
        self.diags.error(span, problem);
        None
    }

    /// Record a [`Race`] if storing `value` to `target`, both resolved,
    /// may give one array element distinct values in a step that traps on
    /// them: the value varies along an open axis that the location neither
    /// tells apart ([`Checker::located`]) nor has pinned. A scalar target
    /// never races: a per-VP local is one location per point, and a
    /// front-end scalar takes only a front-end value.
    fn check_race(&mut self, target: &Expr, value: &Expr, span: Span) {
        let (Some(step), Expr::Index { base, subs, access, .. }) = (self.nest.step, target) else {
            return;
        };
        let mut along = vec![false; self.open.len()];
        self.varies(value, &mut Vec::new(), &mut along);
        if !along.contains(&true) {
            return;
        }
        let at = self.located(subs, *access, value);
        let within = |x: &[bool]| x.iter().zip(&at).all(|(&x, &at)| at || !x);
        let pinned = |axis| self.pins.iter().any(|(a, x)| *a == axis && within(x));
        let racing = (0..along.len()).filter(|&a| along[a] && !at[a] && !pinned(a));
        if let Some(axis) = racing.min_by_key(|&a| &self.sets[self.open[a]].elem) {
            let (elem, target) = (self.open[axis], crate::pretty::access(&base.text, subs));
            let mut moves = vec![false; self.open.len()];
            subs.iter().for_each(|sub| self.varies(sub, &mut Vec::new(), &mut moves));
            self.races.push(Race { span, step, elem, target, moves: moves[axis] });
        }
    }

    /// One flag per open axis: whether storing `value` to the location
    /// `subs`, the access `access`, never gives two points apart on it one
    /// element with distinct values. The access plan decides: an `Axis`
    /// subscript tells its axis apart; one that reads only elements and
    /// `#define`s does so on the axes it varies along if [`Checker::distinct`]
    /// finds no two points there that share its value and store distinct
    /// values; any other does on every axis it varies along.
    fn located(&self, subs: &[Expr], access: ValueId, value: &Expr) -> Vec<bool> {
        let mut at = vec![false; self.open.len()];
        for (sub, &form) in subs.iter().zip(&self.values[access as usize].forms) {
            match form {
                opt::SubForm::Axis { axis, .. } => at[axis] = true,
                opt::SubForm::Scalar => {}
                opt::SubForm::General => {
                    let mut along = vec![false; self.open.len()];
                    self.varies(sub, &mut Vec::new(), &mut along);
                    let elements_only = self.reads(sub).is_some_and(|r| !r.state);
                    if !elements_only || self.distinct(sub, &along, value) {
                        at.iter_mut().zip(along).for_each(|(at, x)| *at |= x);
                    }
                }
            }
        }
        at
    }

    /// Whether `sub`, which reads only elements and `#define`s, gives no
    /// two points of the open axes `along` marks one location with distinct
    /// values of `value`: false only where valuing `sub` over their sets'
    /// elements, at no more than [`DISTINCT_CAP`] points, finds two points
    /// that share a location, unless `value` too reads only elements and
    /// `#define`s and takes one value at both.
    fn distinct(&self, sub: &Expr, along: &[bool], value: &Expr) -> bool {
        let axes: Vec<usize> = (0..along.len()).filter(|&a| along[a]).collect();
        let extent = |a: usize| self.sets[self.open[a]].elements.len();
        let points = axes.iter().try_fold(1usize, |n, &a| n.checked_mul(extent(a)));
        let Some(points) = points.filter(|&n| n <= DISTINCT_CAP) else { return true };
        let valued = self.reads(value).is_some_and(|r| !r.state);
        let mut seen = HashMap::with_capacity(points);
        let at = |e: &Expr, point: usize| {
            opt::eval_pure(e, |n| match n.to {
                Ref::Elem(set) => {
                    // The point's coordinate along the element's axis, the
                    // last axis fastest.
                    let axis = self.elem_axis(set)?;
                    let k = axes.iter().position(|&a| a == axis)?;
                    let stride: usize = axes[k + 1..].iter().map(|&a| extent(a)).product();
                    let elements = &self.sets[self.open[axis]].elements;
                    Some(Scalar::Int(elements[point / stride % elements.len()]))
                }
                _ => self.define(n),
            })
        };
        for point in 0..points {
            let Ok(location) = at(sub, point) else { return true };
            let stored = if valued { at(value, point).ok() } else { None };
            match seen.insert(location.as_int(), stored) {
                Some(other) if stored.is_none() || other != stored => return false,
                _ => {}
            }
        }
        true
    }

    /// Mark in `out`, one flag per open axis, the axes the value of `e`
    /// may vary along: an element's own axis; every axis of the space that
    /// declared a per-VP local, read in place or lifted from an outer
    /// level; every axis for `rand()`. A reduction folds its own elements
    /// (`hidden` while its operands are walked): they vary along nothing
    /// outside it. An `=` assignment's value is what it stores.
    fn varies(&self, e: &Expr, hidden: &mut Vec<SetId>, out: &mut [bool]) {
        match e {
            Expr::Ident(n, _) => match n.to {
                Ref::Elem(set) if !hidden.contains(&(set as SetId)) => {
                    if let Some(axis) = self.elem_axis(set) {
                        out[axis] = true;
                    }
                }
                Ref::Local(id) if *self.local_kind(id) == LocalKind::PerVp => {
                    out[..self.local_axes[id as usize]].fill(true);
                }
                _ => {}
            },
            Expr::Call { callee: Callee::Builtin(Builtin::Rand), .. } => out.fill(true),
            Expr::Assign { op: None, value, .. } => self.varies(value, hidden, out),
            Expr::Reduce(r) => {
                let outside = hidden.len();
                hidden.extend(&r.sets);
                e.for_each_child(|c| self.varies(c, hidden, out));
                hidden.truncate(outside);
            }
            _ => e.for_each_child(|c| self.varies(c, hidden, out)),
        }
    }

    /// Record the axes an arm predicate `pred` pins for the stores it
    /// guards. With `op` `==`, each conjunct `e == x` or `x == e`; with `op`
    /// `!=`, under `others`, the whole predicate `e != x`. There the
    /// element `e` takes one value wherever `x` does, so a store whose
    /// location varies along every axis `x` varies along stores one value
    /// of `e` per element.
    fn pin(&mut self, pred: &Expr, op: BinaryOp) {
        let Expr::Binary { op: this, lhs, rhs, .. } = pred else { return };
        if op == BinaryOp::Eq && *this == BinaryOp::LogAnd {
            self.pin(lhs, op);
            return self.pin(rhs, op);
        }
        if *this != op || self.nest.step.is_none() {
            return;
        }
        for (e, x) in [(lhs, rhs), (rhs, lhs)] {
            if let Expr::Ident(Name { to: Ref::Elem(set), .. }, _) = **e {
                if let Some(axis) = self.elem_axis(set) {
                    let mut along = vec![false; self.open.len()];
                    self.varies(x, &mut Vec::new(), &mut along);
                    self.pins.push((axis, along));
                }
            }
        }
    }

    /// The id of the access `base[subs...]`, both already resolved:
    /// interned by canonical form, so two accesses get one id iff they
    /// denote the same thing.
    fn intern_access(&mut self, base: Ref, subs: &[Expr]) -> ValueId {
        let mut key = Vec::with_capacity(32);
        self.canon_ref(base, &mut key);
        key.extend((subs.len() as u32).to_le_bytes());
        for sub in subs {
            self.canon(sub, &mut key);
        }
        if let Some(&id) = self.value_ids.get(&key) {
            return id;
        }
        let mut arrays = vec![base];
        subs.iter().for_each(|sub| arrays_read(sub, &mut arrays));
        let cacheable = subs.iter().all(|sub| self.reads(sub).is_some());
        let forms = subs.iter().map(|sub| self.sub_form(sub)).collect();
        self.push_value(key, ValueInfo { arrays, cacheable, invariant: false, forms })
    }

    /// The shape of subscript `sub`, by the one classifier, decided once
    /// per id (which fixes every element's axis). A front-end scalar is
    /// what `opt::eval_pure` values from the live scalars: no element,
    /// array, per-VP local, assignment, reduction, user call or `rand()`.
    fn sub_form(&self, sub: &Expr) -> opt::SubForm {
        let elem = |n: &Name| match n.to {
            Ref::Elem(set) => Some(match (self.elem_axis(set), self.sets[set as usize].lo) {
                (Some(axis), Some(lo)) => opt::SubForm::Axis { axis, lo },
                _ => opt::SubForm::General,
            }),
            _ => None,
        };
        let reg = |to: Ref| matches!(to, Ref::Local(id) if matches!(self.local_kind(id), LocalKind::Reg(_)));
        let scalar = |e: &Expr| {
            !e.any(&mut |x| match x {
                Expr::Ident(n, _) => !matches!(n.to, Ref::Const(_) | Ref::Global(_)) && !reg(n.to),
                Expr::Index { .. } | Expr::Assign { .. } | Expr::Reduce(_) | Expr::Call { .. } => true,
                _ => false,
            })
        };
        opt::classify_index(sub, &elem, &scalar)
    }

    /// The axis the element of `set` is: the innermost open one that
    /// binds it, if any (a reduction inside a subscript closes its space
    /// before the access).
    fn elem_axis(&self, set: u32) -> Option<usize> {
        self.open.iter().rposition(|&s| s == set as SetId)
    }

    /// What the local `id` of the function being checked is.
    fn local_kind(&self, id: LocalId) -> &LocalKind {
        &self.func_infos.last().expect("in a function").locals[id as usize].kind
    }

    fn push_value(&mut self, key: Vec<u8>, info: ValueInfo) -> ValueId {
        self.values.push(info);
        let id = (self.values.len() - 1) as ValueId;
        self.value_ids.insert(key, id);
        id
    }

    /// What `e` reads, or `None` when evaluating it has an effect or a
    /// result of its own each time: it draws `rand()` (anew each time),
    /// calls a user function (which may do anything), assigns or reduces.
    fn reads(&self, e: &Expr) -> Option<Reads> {
        let (mut reads, mut pure) = (Reads::default(), true);
        e.walk(&mut |x| match x {
            Expr::Ident(name, _) => match name.to {
                Ref::Elem(_) => reads.elems = true,
                Ref::Const(_) => {}
                Ref::Local(id) => {
                    reads.state = true;
                    reads.parallel |= *self.local_kind(id) == LocalKind::PerVp;
                }
                _ => reads.state = true,
            },
            Expr::Index { .. } => (reads.state, reads.parallel) = (true, true),
            Expr::Ternary { .. } => reads.parallel = true,
            Expr::Assign { .. } | Expr::Reduce(_) | Expr::Call { .. } => pure = false,
            _ => {}
        });
        reads.parallel |= reads.elems;
        pure.then_some(reads)
    }

    /// What `e` reads if it is a value a step may keep — an operator,
    /// side-effect-free, one per VP — with its canonical form in `key`.
    fn keepable(&self, e: &mut Expr, key: &mut Vec<u8>) -> Option<Reads> {
        e.value_slot()?;
        let reads = self.reads(e).filter(|r| r.parallel)?;
        key.clear();
        self.canon(e, key);
        Some(reads)
    }

    /// Decide which values a step of `uc` keeps, once its arms are
    /// checked and while its elements are in scope. Only the constructs
    /// whose steps the executor runs with a value cache qualify: a `par`,
    /// and a `seq` inside a parallel construct. Two kinds get an id:
    ///
    /// * a value that a predicate computes and that an arm body or
    ///   `others` computes again — its maximal occurrences in both;
    /// * in a `*par` predicate, a maximal subtree that reads only index
    ///   elements and constants ([`ValueInfo::invariant`]), and its
    ///   occurrences in the bodies.
    ///
    /// Only what a step evaluates on the construct's own space counts: not
    /// what a nested construct or a reduction evaluates, and in a
    /// predicate nothing under an assignment. Nor a predicate itself: it
    /// becomes the arm's mask, which the step owns and frees.
    fn keep_values(&mut self, uc: &mut UcStmt) {
        if uc.arms.iter().all(|a| a.pred.is_none()) {
            return;
        }
        let hoist = uc.kind == UcKind::Par && uc.star;
        let (mut computed, mut key) = (HashSet::new(), Vec::new());
        for body in uc.arms.iter_mut().map(|a| &mut a.body).chain(uc.others.as_deref_mut()) {
            step_exprs(body, &mut |e| self.computed_values(e, &mut key, &mut computed));
        }
        if computed.is_empty() && !hoist {
            return;
        }
        let mut kept = HashMap::new();
        for pred in uc.arms.iter_mut().filter_map(|a| a.pred.as_mut()) {
            self.keep_below(pred, hoist, &computed, &mut key, &mut kept);
        }
        if kept.is_empty() {
            return;
        }
        for body in uc.arms.iter_mut().map(|a| &mut a.body).chain(uc.others.as_deref_mut()) {
            step_exprs(body, &mut |e| self.reuse_values(e, &mut key, &kept));
        }
    }

    /// The canonical form of every value in `e` a step may keep.
    fn computed_values(&self, e: &mut Expr, key: &mut Vec<u8>, out: &mut HashSet<Vec<u8>>) {
        if self.keepable(e, key).is_some() {
            out.insert(key.clone());
        }
        if !matches!(e, Expr::Reduce(_)) {
            e.for_each_child_mut(|c| self.computed_values(c, key, out));
        }
    }

    /// Give an id to each maximal value in predicate `e` that the bodies
    /// compute again (`computed`) or, when `hoist`, that is invariant;
    /// record it in `kept` by canonical form.
    fn keep_in_predicate(
        &mut self,
        e: &mut Expr,
        hoist: bool,
        computed: &HashSet<Vec<u8>>,
        key: &mut Vec<u8>,
        kept: &mut HashMap<Vec<u8>, ValueId>,
    ) {
        if let Some(reads) = self.keepable(e, key) {
            let invariant = hoist && reads.elems && !reads.state;
            if invariant || computed.contains(key) {
                let mut interned = vec![if invariant { b'h' } else { b'v' }];
                interned.extend(&*key);
                let id = match self.value_ids.get(&interned) {
                    Some(&id) => id,
                    None => {
                        let mut arrays = Vec::new();
                        arrays_read(e, &mut arrays);
                        let info = ValueInfo { arrays, cacheable: true, invariant, forms: Vec::new() };
                        self.push_value(interned, info)
                    }
                };
                *e.value_slot().expect("keepable") = id;
                kept.insert(key.clone(), id);
                return;
            }
        }
        self.keep_below(e, hoist, computed, key, kept);
    }

    /// [`Checker::keep_in_predicate`] on each operand of predicate node
    /// `e`, unless `e` assigns, reduces or calls a user function.
    fn keep_below(
        &mut self,
        e: &mut Expr,
        hoist: bool,
        computed: &HashSet<Vec<u8>>,
        key: &mut Vec<u8>,
        kept: &mut HashMap<Vec<u8>, ValueId>,
    ) {
        if !matches!(e, Expr::Assign { .. } | Expr::Reduce(_) | Expr::Call { .. }) {
            e.for_each_child_mut(|c| self.keep_in_predicate(c, hoist, computed, key, kept));
        }
    }

    /// Give the maximal occurrences in body expression `e` of a value a
    /// predicate keeps that value's id.
    fn reuse_values(&self, e: &mut Expr, key: &mut Vec<u8>, kept: &HashMap<Vec<u8>, ValueId>) {
        if let Some(&id) = self.keepable(e, key).and_then(|_| kept.get(key)) {
            *e.value_slot().expect("keepable") = id;
        } else if !matches!(e, Expr::Reduce(_)) {
            e.for_each_child_mut(|c| self.reuse_values(c, key, kept));
        }
    }

    fn check_expr(&mut self, e: &mut Expr) -> (ExprTy, Rank) {
        // The rank of what is parallel wherever an iteration space is open.
        let here = if self.nest.depth > 0 { Rank::Parallel } else { Rank::Scalar };
        match e {
            Expr::IntLit(..) | Expr::Inf(_) => (ExprTy::Int, Rank::Scalar),
            Expr::FloatLit(..) => (ExprTy::Float, Rank::Scalar),
            Expr::Ident(name, span) => {
                let Some((to, what)) = self.lookup(&name.text) else {
                    self.diags.error(*span, format!("unknown identifier `{name}`"));
                    return (ExprTy::Int, Rank::Scalar);
                };
                name.to = to;
                if let (Ref::Local(id), Denotes::Scalar { .. }) = (to, what) {
                    self.flow.apply(Use::Read, id, *span);
                }
                let rank = match what {
                    Denotes::Elem | Denotes::Scalar { depth: 1.., .. } => Rank::Parallel,
                    _ => Rank::Scalar,
                };
                let ty = match what {
                    Denotes::Elem | Denotes::Const => ExprTy::Int,
                    Denotes::Scalar { ty, .. } => ExprTy::of(ty),
                    Denotes::Array { .. } => {
                        self.diags.error(
                            *span,
                            format!("array `{name}` used without subscripts"),
                        );
                        ExprTy::Int
                    }
                    Denotes::IndexSet(_) => {
                        self.diags.error(
                            *span,
                            format!("index set `{name}` used as a value"),
                        );
                        ExprTy::Int
                    }
                };
                (ty, rank)
            }
            Expr::Index { .. } => self.check_access(e, false),
            Expr::Call { .. } => self.check_call(e, false),
            Expr::Unary { op, expr, span, .. } => {
                let before = self.effects;
                let (t, rank) = self.check_expr(expr);
                lend([&mut **expr], self.effects == before);
                let ty = match op {
                    UnaryOp::Neg => {
                        if !t.is_numeric() {
                            self.diags.error(*span, "negation needs a numeric operand");
                        }
                        t
                    }
                    // A bool becomes an int.
                    UnaryOp::Abs => t.join(ExprTy::Int),
                    UnaryOp::Power2 => ExprTy::Int,
                    UnaryOp::Not => ExprTy::Bool,
                    UnaryOp::BitNot => {
                        if !t.int_like() {
                            self.diags.error(*span, "`~` needs an integer operand");
                        }
                        ExprTy::Int
                    }
                };
                (ty, rank)
            }
            Expr::Binary { op, lhs, rhs, span, .. } => {
                let before = self.effects;
                let (lt, lrank) = self.check_expr(lhs);
                let (rt, rrank) = self.check_expr(rhs);
                lend([&mut **lhs, &mut **rhs], self.effects == before);
                use BinaryOp::*;
                let ty = match op {
                    Mod | Shl | Shr | BitAnd | BitOr | BitXor => {
                        if !lt.int_like() || !rt.int_like() {
                            self.diags.error(
                                *span,
                                format!("`{}` requires integer operands", op.symbol()),
                            );
                        }
                        ExprTy::Int
                    }
                    Lt | Le | Gt | Ge | Eq | Ne => ExprTy::Bool,
                    LogAnd | LogOr => ExprTy::Bool,
                    Add | Sub | Mul | Div | Min | Max => lt.join(rt),
                };
                (ty, lrank.max(rrank))
            }
            Expr::Ternary { cond, then_e, else_e, float, .. } => {
                let before = self.effects;
                self.check_expr(cond);
                let (t, _) = self.check_expr(then_e);
                let (f, _) = self.check_expr(else_e);
                // The arms are selected between, not consumed: kept copies.
                lend([&mut **cond], self.effects == before);
                let ty = t.join(f);
                *float = ty == ExprTy::Float;
                (ty, here)
            }
            Expr::Assign { target, op, value, span } => {
                self.effects += 1;
                let (vt, vrank) = self.check_expr(value);
                let (tt, trank) = match target.as_mut() {
                    Expr::Ident(name, tspan) => {
                        let Some((t, rank)) = self.check_store_target(name, *tspan, vrank) else {
                            return (ExprTy::Int, vrank);
                        };
                        if let Ref::Local(id) = name.to {
                            // `op=` reads its target, then stores.
                            if op.is_some() {
                                self.flow.apply(Use::Read, id, *tspan);
                            }
                            self.flow.apply(Use::Store, id, *span);
                        }
                        (ExprTy::of(t), rank)
                    }
                    Expr::Index { .. } => self.check_access(target, true),
                    _ => unreachable!("parser enforces lvalue targets"),
                };
                self.check_race(target, value, *span);
                if tt == ExprTy::Int && vt == ExprTy::Float {
                    self.diags
                        .warning(*span, "float value truncated in assignment to int");
                }
                // The value of an assignment is what it stored: `op=`
                // combines the target's old value with the right-hand side.
                (tt, if op.is_some() { trank.max(vrank) } else { vrank })
            }
            Expr::Reduce(r) => (self.check_reduce(r), here),
        }
    }

    /// An array element, read or — when `store` — an assignment's target (a
    /// `swap` operand is a read here: UC110's store advice cannot serve it).
    fn check_access(&mut self, e: &mut Expr, store: bool) -> (ExprTy, Rank) {
        let Expr::Index { base, subs, span, access, .. } = e else { unreachable!("not an access") };
        let ty = match self.lookup(&base.text) {
            Some((to, Denotes::Array { ty, rank })) => {
                base.to = to;
                if subs.len() != rank {
                    let msg = format!("array `{base}` has rank {rank}, subscripted with {}", subs.len());
                    self.diags.error(*span, msg);
                }
                ExprTy::of(ty)
            }
            Some(_) => {
                self.diags.error(*span, format!("`{base}` is not an array"));
                ExprTy::Int
            }
            None => {
                self.diags.error(*span, format!("unknown array `{base}`"));
                ExprTy::Int
            }
        };
        let before = self.effects;
        for sub in subs.iter_mut() {
            if !self.check_expr(sub).0.int_like() {
                self.diags.error(sub.span(), "array subscripts must be integers");
            }
        }
        // A read's subscripts; a store target's keep copies.
        lend(subs.iter_mut(), !store && self.effects == before);
        *access = self.intern_access(base.to, subs);
        self.route(base, subs, *access, *span, store);
        (ty, if self.nest.depth > 0 { Rank::Parallel } else { Rank::Scalar })
    }

    /// Record a [`RoutedAccess`] if the read rule, or the store rule when
    /// `store`, sends `base[subs]` — the access `access`, to a global array —
    /// to the router although it is regular ([`opt::routing`]): its plan
    /// valued with the `#define`s over the extents of the open space.
    fn route(&mut self, base: &Name, subs: &[Expr], access: ValueId, span: Span, store: bool) {
        let Ref::Array(array) = base.to else { return };
        let plan = &self.values[access as usize].forms;
        let regular = plan.iter().all(|form| matches!(form, opt::SubForm::Axis { .. }));
        if self.nest.solve || subs.len() != self.open.len() || !regular {
            return;
        }
        let dims: Vec<usize> = self.open.iter().map(|&set| self.sets[set].elements.len()).collect();
        let resolve = |(sub, &form): (&Expr, _)| opt::resolve_index(form, sub, |n| self.define(n));
        let forms: Vec<_> = subs.iter().zip(plan).map(resolve).collect();
        if let Some(why) = opt::routing(&forms, &dims, &self.arrays[&*base.text], store) {
            let access = crate::pretty::access(&base.text, subs);
            self.routed.push(RoutedAccess { span, array, access, why });
        }
    }

    /// Record an [`EmptyGuard`] if `guard`, checked, is constant-false.
    fn guard(&mut self, guard: &Expr, what: &'static str, operand: bool) {
        if int_const(guard, |n| self.define(n)) == Ok(0) {
            self.empty_guards.push(EmptyGuard { span: guard.span(), what, operand });
        }
    }

    /// The value of `n` if it was resolved to a `#define`.
    fn define(&self, n: &Name) -> Option<Scalar> {
        matches!(n.to, Ref::Const(_)).then(|| Scalar::Int(self.consts[&*n.text]))
    }

    /// A call, resolved to what it calls. Only `as_stmt` — as the whole of
    /// an expression statement — may it be to `swap`.
    fn check_call(&mut self, call: &mut Expr, as_stmt: bool) -> (ExprTy, Rank) {
        let Expr::Call { name, callee, args, span, .. } = call else { unreachable!("not a call") };
        let ranks: Vec<_> = args.iter_mut().map(|a| self.check_expr(a).1).collect();
        let (what, takes, ty) = match *callee {
            Callee::Builtin(b) => ("builtin", Some(b.arity()), b.result()),
            _ => match self.funcs.get(&**name) {
                Some(f) => {
                    *callee = Callee::Func(f.index);
                    self.callees.last_mut().expect("inside a function").push(f.index);
                    ("function", f.params, ExprTy::of(f.ret))
                }
                None => {
                    self.diags.error(*span, format!("unknown function `{name}`"));
                    return (ExprTy::Int, Rank::Scalar);
                }
            },
        };
        if let Some(takes) = takes.filter(|&takes| takes != args.len()) {
            let got = args.len();
            self.diags.error(*span, format!("{what} `{name}` takes {takes} argument(s), got {got}"));
        }
        let rank = match *callee {
            Callee::Builtin(Builtin::Swap) => {
                if !as_stmt {
                    self.diags.error(*span, "`swap` is a statement: it has no value");
                }
                // Each operand is stored the other's value once both are
                // read: one store per operand, at the operand's own span
                // (two at the swap's would be one deduplicated finding).
                self.effects += 1;
                for (k, a) in args.iter_mut().enumerate() {
                    let other = ranks.get(k ^ 1).copied().unwrap_or(Rank::Scalar);
                    match a {
                        Expr::Ident(name, span) => {
                            let stored = self.check_store_target(name, *span, other).is_some();
                            if let (true, Ref::Local(id)) = (stored, name.to) {
                                self.flow.apply(Use::Store, id, *span);
                            }
                        }
                        // Read and stored: its subscripts keep copies.
                        Expr::Index { subs, .. } => lend(subs.iter_mut(), false),
                        _ => self.diags.error(
                            a.span(),
                            "swap arguments must be variables or array elements",
                        ),
                    }
                }
                if let [a, b] = &args[..] {
                    self.check_race(a, b, *span);
                    self.check_race(b, a, *span);
                }
                Rank::Scalar
            }
            Callee::Builtin(Builtin::Rand) if self.nest.depth > 0 => Rank::Parallel,
            Callee::Builtin(_) => ranks.iter().copied().max().unwrap_or(Rank::Scalar),
            // A user function runs on the front end, once, also when called
            // from a parallel construct.
            _ => {
                self.effects += 1;
                for (a, _) in args.iter().zip(&ranks).filter(|(_, &rank)| rank == Rank::Parallel) {
                    let why = "(user functions run on the front end)";
                    self.diags
                        .error(a.span(), format!("a parallel value is passed to `{name}` {why}"));
                }
                Rank::Scalar
            }
        };
        (ty, rank)
    }

    fn check_reduce(&mut self, r: &mut ReduceExpr) -> ExprTy {
        r.sets = self.bind_sets(&r.idxs, r.span, " in reduction");
        let (outer, axes) = (self.nest, self.open.len());
        self.nest.depth += 1;
        self.open.extend(&r.sets);
        // A store in an operand runs on the reduction's space, which traps
        // on distinct values as a `par` does — also in a `*solve`.
        self.nest.step = step(Opener::Reduce(r.op), outer.step);
        let mut ty = ExprTy::Int;
        for (pred, operand) in &mut r.arms {
            if let Some(p) = pred {
                self.check_expr(p);
                self.guard(p, "st", true);
            }
            let before = self.effects;
            ty = ty.join(self.check_expr(operand).0);
            // The processor optimisation keeps the key of `key[i] == j`
            // live while the operand evaluates: one that writes takes it
            // back.
            let writes = self.effects != before;
            if let (Some(Expr::Binary { lhs, rhs, .. }), true) = (pred, writes) {
                lend([&mut **lhs, &mut **rhs], false);
            }
        }
        if let Some(o) = &mut r.others {
            if r.arms.iter().all(|(p, _)| p.is_none()) {
                self.diags.error(
                    r.span,
                    "`others` in a reduction requires an `st`-guarded operand before it",
                );
            }
            ty = ty.join(self.check_expr(o).0);
        }
        use crate::token::RedOpToken as R;
        if matches!(r.op, R::And | R::Or | R::Xor) {
            ty = ExprTy::Int;
        }
        self.nest = outer;
        self.open.truncate(axes);
        r.histogram = self.histogram_key(r);
        self.scopes.pop();
        ty
    }

    /// The key's side if `r` (checked, its sets still bound) is a histogram:
    /// `$op(SETS st (key == elem) operand)` right under one level of one
    /// `{0..}` set of element `elem`, `op` one of `+ * < >`, no `others`,
    /// and a key and operand that live on `SETS`: no `elem`, no per-VP local.
    fn histogram_key(&self, r: &ReduceExpr) -> Option<HistogramKey> {
        use crate::token::RedOpToken as R;
        let [(Some(Expr::Binary { op: BinaryOp::Eq, lhs, rhs, .. }), operand)] = &r.arms[..] else {
            return None;
        };
        let shaped = self.nest.depth == 1 && self.open.len() == 1 && r.others.is_none();
        // The enclosing level's element: the one at axis 0.
        let set = *self.open.first()? as u32;
        let outer = Ref::Elem(set);
        let from_zero = self.sets[set as usize].lo == Some(0) && !r.sets.contains(&(set as SetId));
        if !shaped || !from_zero || !matches!(r.op, R::Add | R::Mul | R::Min | R::Max) {
            return None;
        }
        let (key, side) = match (lhs.as_ref(), rhs.as_ref()) {
            (key, Expr::Ident(n, _)) if n.to == outer => (key, HistogramKey::Lhs),
            (Expr::Ident(n, _), key) if n.to == outer => (key, HistogramKey::Rhs),
            _ => return None,
        };
        let per_vp = |to: Ref| matches!(to, Ref::Local(id) if *self.local_kind(id) == LocalKind::PerVp);
        let mut on_outer = |x: &Expr| matches!(x, Expr::Ident(n, _) if n.to == outer || per_vp(n.to));
        (!key.any(&mut on_outer) && !operand.any(&mut on_outer)).then_some(side)
    }

    /// Append the canonical form of a resolved expression of the function
    /// being checked: equal for two expressions iff they are structurally
    /// equal once every identifier is replaced by what it denotes (spans
    /// and spellings do not count; a nested access contributes its id).
    /// Every node writes a tag that fixes how many children follow, so the
    /// encoding is prefix-free.
    fn canon(&self, e: &Expr, out: &mut Vec<u8>) {
        match e {
            Expr::IntLit(v, _) => {
                out.push(b'i');
                out.extend(v.to_le_bytes());
            }
            Expr::FloatLit(v, _) => {
                out.push(b'f');
                out.extend(v.to_bits().to_le_bytes());
            }
            Expr::Inf(_) => out.push(b'I'),
            Expr::Ident(n, _) => self.canon_ref(n.to, out),
            Expr::Index { access, .. } => {
                out.push(b'a');
                out.extend(access.to_le_bytes());
                return;
            }
            Expr::Call { callee, args, .. } => {
                let (tag, id) = match *callee {
                    Callee::Unresolved => (b'?', 0),
                    Callee::Builtin(b) => (b'c', b as u32),
                    Callee::Func(f) => (b'F', f),
                };
                out.push(tag);
                out.extend([id, args.len() as u32].iter().flat_map(|v| v.to_le_bytes()));
            }
            Expr::Unary { op, .. } => out.extend([b'u', *op as u8]),
            Expr::Binary { op, .. } => out.extend([b'b', *op as u8]),
            Expr::Ternary { .. } => out.push(b't'),
            Expr::Assign { op, .. } => out.extend([b'=', op.map_or(u8::MAX, |o| o as u8)]),
            Expr::Reduce(r) => {
                out.extend([b'r', r.op as u8, r.others.is_some() as u8]);
                out.extend((r.sets.len() as u32).to_le_bytes());
                for &set in &r.sets {
                    out.extend((set as u32).to_le_bytes());
                }
                out.extend((r.arms.len() as u32).to_le_bytes());
                out.extend(r.arms.iter().map(|(pred, _)| pred.is_some() as u8));
            }
        }
        e.for_each_child(|c| self.canon(c, out));
    }

    /// A local is its function's. An element is its set's along one axis
    /// of the open space: a set bound by a construct and again by a
    /// reduction under it names two elements — whose gathers the executor
    /// caches on one VP set when the extents agree — while reductions that
    /// bind it on the same axis share theirs. Every other reference is the
    /// program's.
    fn canon_ref(&self, r: Ref, out: &mut Vec<u8>) {
        let (tag, id, of) = match r {
            Ref::Unresolved => (b'?', 0, 0),
            Ref::Const(id) => (b'C', id, 0),
            Ref::Global(id) => (b'G', id, 0),
            Ref::Array(id) => (b'A', id, 0),
            Ref::Local(id) => (b'L', id, self.func_infos.len() as u32),
            // Bound by a reduction inside the subscript being interned
            // (its scope is closed): such an access is never cached.
            Ref::Elem(id) => (b'E', id, self.elem_axis(id).map_or(u32::MAX, |axis| axis as u32)),
        };
        out.push(tag);
        out.extend(id.to_le_bytes());
        out.extend(of.to_le_bytes());
    }
}

/// Let the executor hand each array read among a consumer's `operands`
/// the array's own storage instead of a copy (`Expr::Index`'s `borrow`)
/// iff `pure`: no operand assigns, swaps or calls a user function, so no
/// array changes between the reads and the consumer's use of them. The
/// consumers that lend are the operators (`abs`, `power2`, `min` and
/// `max` among them), a `?:`'s condition and a read's subscripts; every other consumer — a
/// store, a `swap`, a declaration, a bare predicate, a reduction — gets
/// a copy. A borrowed read is never kept for the step (`exec::access`).
fn lend<'e>(operands: impl IntoIterator<Item = &'e mut Expr>, pure: bool) {
    for e in operands {
        if let Expr::Index { borrow, .. } = e {
            *borrow = pure;
        }
    }
}

/// Every array `e` reads, as an access's base, into `out`.
fn arrays_read(e: &Expr, out: &mut Vec<Ref>) {
    e.walk(&mut |x| {
        if let Expr::Index { base, .. } = x {
            out.push(base.to);
        }
    });
}

/// Call `f` on every expression a step of a construct evaluates in `s`,
/// one of its arm bodies: not those of a nested construct, which runs on
/// a space of its own.
fn step_exprs(s: &mut Stmt, f: &mut impl FnMut(&mut Expr)) {
    if !matches!(s, Stmt::Uc(_)) {
        s.for_each_child_mut(|n| match n {
            NodeMut::Expr(e) => f(e),
            NodeMut::Stmt(s) => step_exprs(s, f),
        });
    }
}

impl<'a> Checker<'a> {
    /// Resolve a map section: its sets and each declaration's, binding
    /// their elements; each pattern's array; and every identifier of a
    /// pattern subscript, which must be one of those elements or a
    /// `#define`. A declaration that resolves is interpreted at once and
    /// written on its target's [`ArrayInfo`]; `mapped` marks, by array id,
    /// what an earlier one mapped, and a second mapping is an error.
    fn check_map(&mut self, m: &mut MapSection, mapped: &mut [bool]) {
        self.bind_sets(&m.idxs, m.span, " in map section");
        for decl in &mut m.decls {
            let errors = self.diags.items.len();
            let sets = self.bind_sets(&decl.idxs, decl.span, " in mapping");
            for pat in [&mut decl.target, &mut decl.source] {
                match self.lookup(&pat.array.text) {
                    Some((to, Denotes::Array { rank, .. })) => {
                        pat.array.to = to;
                        if pat.subs.len() != rank {
                            let (name, n) = (&pat.array, pat.subs.len());
                            let msg = format!("mapping pattern for `{name}` has {n} subscripts");
                            self.diags.error(pat.span, format!("{msg}, array has rank {rank}"));
                        }
                    }
                    _ => {
                        let msg = format!("mapping references unknown array `{}`", pat.array);
                        self.diags.error(pat.span, msg);
                    }
                }
                pat.subs.iter_mut().for_each(|e| self.check_pattern_sub(e));
            }
            self.scopes.pop();
            let Ref::Array(id) = decl.target.array.to else { continue };
            if std::mem::replace(&mut mapped[id as usize], true) {
                let msg = format!("array `{}` is mapped a second time", decl.target.array);
                self.diags.error(decl.span, msg);
            } else if self.diags.items.len() == errors {
                let array = &self.array_names[id as usize];
                let shape = &self.arrays[array].shape;
                match mapping::interpret_one(decl, &sets, shape, &self.sets, &|n| self.define(n)) {
                    Ok(layout) => self.arrays.get_mut(array).expect("named").mapping = layout,
                    Err(msg) => self.diags.error(decl.span, msg),
                }
            }
        }
        self.scopes.pop();
    }

    fn check_pattern_sub(&mut self, e: &mut Expr) {
        let bad = match e {
            Expr::Ident(name, _) => match self.lookup(&name.text) {
                Some((to @ (Ref::Elem(_) | Ref::Const(_)), _)) => {
                    name.to = to;
                    None
                }
                Some(_) => Some(format!("`{name}` in a mapping pattern is no bound element or #define")),
                None => Some(format!("unknown identifier `{name}`")),
            },
            Expr::Index { .. } | Expr::Call { .. } | Expr::Assign { .. } | Expr::Reduce(_) => {
                Some("a mapping pattern subscript holds only elements, #defines and operators".into())
            }
            _ => None,
        };
        if let Some(msg) = bad {
            self.diags.error(e.span(), msg);
        }
        e.for_each_child_mut(|c| self.check_pattern_sub(c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_ok(src: &str) -> Checked {
        let mut d = Diagnostics::default();
        let unit = parse(src, &mut d).expect("parse");
        let c = check(unit, &mut d);
        assert!(c.is_some(), "sema failed: {d}");
        c.unwrap()
    }

    fn check_err(src: &str) -> String {
        let mut d = Diagnostics::default();
        if let Some(unit) = parse(src, &mut d) {
            assert!(check(unit, &mut d).is_none(), "expected sema failure");
        }
        d.to_string()
    }

    /// The one definition named `name` in a program with no shadowing.
    fn set<'c>(c: &'c Checked, name: &str) -> &'c IndexSetInfo {
        c.sets.iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn index_sets_evaluated() {
        let c = check_ok(
            "#define N 5\nindex_set I:i = {0..N-1}, J:j = I, K:k = {4,2,9};\nmain() {}",
        );
        assert_eq!(*set(&c, "I").elements, vec![0, 1, 2, 3, 4]);
        assert_eq!(*set(&c, "J").elements, vec![0, 1, 2, 3, 4]);
        assert_eq!(set(&c, "J").elem, "j");
        assert_eq!(*set(&c, "K").elements, vec![4, 2, 9]);
    }

    /// Contiguity is decided at definition: a range by its bounds, an
    /// alias by its source, a list by one scan.
    #[test]
    fn contiguity_decided_at_definition() {
        let c = check_ok(
            "index_set R:r = {-3..60000}, A:a = R, L:l = {5, 6, 7}, O:o = {9}, \
             S:s = {1, 0, 2}, B:b = S;\nmain() {}",
        );
        let lo = |name| set(&c, name).contiguous_lo();
        assert_eq!(lo("R"), Some(-3));
        assert_eq!(lo("A"), Some(-3));
        assert_eq!(lo("L"), Some(5));
        assert_eq!(lo("O"), Some(9));
        assert_eq!(lo("S"), None);
        assert_eq!(lo("B"), None);
        for set in &c.sets {
            assert_eq!(set.contiguous_lo(), scan_contiguous_lo(&set.elements), "{}", set.name);
        }
    }

    #[test]
    fn array_shapes() {
        let c = check_ok("#define N 4\nint d[N][N*2];\nfloat f[3];\nmain() {}");
        assert_eq!(c.array_names, ["d", "f"]);
        assert_eq!(c.array(0).shape, vec![4, 8]);
        assert_eq!(c.array(1).shape, vec![3]);
        assert_eq!(c.array(1).ty, Type::Float);
    }

    #[test]
    fn missing_main() {
        let msg = check_err("int x;");
        assert!(msg.contains("main"));
    }

    #[test]
    fn unknown_identifier() {
        let msg = check_err("main() { x = 1; }");
        assert!(msg.contains("unknown identifier `x`"));
    }

    #[test]
    fn unknown_index_set_in_par() {
        let msg = check_err("main() { par (Q) ; }");
        assert!(msg.contains("unknown index set `Q`"));
    }

    #[test]
    fn index_element_read_only() {
        let msg = check_err(
            "index_set I:i = {0..3};\nmain() { par (I) i = 2; }",
        );
        assert!(msg.contains("read-only"));
    }

    #[test]
    fn subscript_arity_checked() {
        let msg = check_err("#define N 4\nint d[N][N];\nindex_set I:i = {0..N-1};\nmain() { par (I) d[i] = 0; }");
        assert!(msg.contains("rank"));
    }

    #[test]
    fn index_element_scoping_and_shadowing() {
        // Reuse of I inside the reduction hides the outer predicate — must
        // check cleanly (paper §3.4 example).
        check_ok(
            "index_set I:i = {0..9};\nint a[10];\nmain() { par (I) st (i%2==0) a[i] = $+(I; i); }",
        );
    }

    /// Every identifier and array base of `main`, with what it denotes.
    fn refs_of_main(c: &Checked) -> Vec<(String, Ref)> {
        let mut out = Vec::new();
        for s in &c.funcs_in_order().nth(c.main).unwrap().body.stmts {
            s.for_each_expr(&mut |e| {
                e.walk(&mut |x| {
                    if let Expr::Ident(n, _) | Expr::Index { base: n, .. } = x {
                        out.push((n.to_string(), n.to));
                    }
                })
            });
        }
        out
    }

    #[test]
    fn every_identifier_carries_what_it_denotes() {
        let c = check_ok(
            "#define N 4\n#define M 2\nindex_set I:i = {0..N-1}, S:i = {0..1};\n\
             int zs[N], a[N], g, b;\n\
             main() { int g; par (I) { int t; t = i + N; seq (S) a[t] = i + g + M; } b = M; }",
        );
        // Globals by name order, the local `g` before the global, the
        // `seq` element before the `par` element, `#define`s last.
        let (i_set, info) = (c.sets.iter().position(|s| s.name == "I").unwrap() as u32, &c.func_infos[0]);
        assert_eq!(c.global_names, ["b", "g"]);
        assert_eq!(c.array_names, ["a", "zs"]);
        assert_eq!(
            refs_of_main(&c),
            [
                ("t", Ref::Local(1)),
                ("i", Ref::Elem(i_set)),
                ("N", Ref::Const(0)),
                ("a", Ref::Array(0)),
                ("t", Ref::Local(1)),
                ("i", Ref::Local(2)),
                ("g", Ref::Local(0)),
                ("M", Ref::Const(1)),
                ("b", Ref::Global(0)),
                ("M", Ref::Const(1)),
            ]
            .map(|(n, r)| (n.to_string(), r))
        );
        let kinds: Vec<_> = info.locals.iter().map(|l| (l.name.as_str(), &l.kind)).collect();
        assert_eq!(
            kinds,
            [("g", &LocalKind::Reg(0)), ("t", &LocalKind::PerVp), ("i", &LocalKind::Reg(1))]
        );
        assert_eq!((info.regs, info.loop_regs, info.machine_locals), (2, 0, true));
    }

    #[test]
    fn accesses_are_interned_by_what_they_denote() {
        let c = check_ok(
            "index_set I:i = {0..3}, J:j = {0..3}, K:j = {4..7};\nint a[8], s[4];\n\
             int f(int n) { return a[n]; }\n\
             main() { int n; n = 1; par (I) st ($+(J; a[j]) > a[n]) s[i] = $+(K; a[j]) + a[ n ]; }",
        );
        let mut ids = Vec::new();
        for f in c.funcs_in_order() {
            for s in &f.body.stmts {
                s.for_each_expr(&mut |e| {
                    e.walk(&mut |x| {
                        if let Expr::Index { base, access, .. } = x {
                            ids.push((crate::pretty::expr(x), *access, base.to));
                        }
                    })
                });
            }
        }
        let id = |text: &str, nth: usize| {
            ids.iter().filter(|(t, ..)| t == text).nth(nth).unwrap_or_else(|| panic!("{text}")).1
        };
        // `f`'s `a[n]` reads another `n` than `main`'s two, which are one
        // access; the two `a[j]` of `main` range over different sets.
        assert_ne!(id("a[n]", 0), id("a[n]", 1));
        assert_eq!(id("a[n]", 1), id("a[n]", 2));
        assert_ne!(id("a[j]", 0), id("a[j]", 1));
        let info = &c.values[id("a[j]", 0) as usize];
        assert_eq!((info.arrays.as_slice(), info.cacheable), (&[Ref::Array(0)][..], true));
    }

    /// An element is its set's *along one axis*: the outer `i` and a
    /// reduction's `i` are two elements, as are `j` bound second and
    /// bound third, while two reductions binding `j` on one axis agree.
    #[test]
    fn accesses_tell_one_set_bound_on_two_axes_apart() {
        let c = check_ok(
            "index_set I:i = {0..3}, J:j = I, K:k = I;\nint a[4], s[4];\n\
             main() {\n\
               par (I) st ($+(J; a[i]) > 0) s[i] = $+(I; a[i]);\n\
               par (I) st ($+(J; a[j]) > 0) s[i] = $+(J; a[j]);\n\
               par (I) st ($+(J, K; a[j]) > 0) { par (K, J) s[j] = a[j]; }\n\
             }",
        );
        let mut ids = Vec::new();
        for s in &c.funcs_in_order().next().unwrap().body.stmts {
            s.for_each_expr(&mut |e| {
                e.walk(&mut |x| match x {
                    Expr::Index { base, access, .. } if &*base.text == "a" => ids.push(*access),
                    _ => {}
                })
            });
        }
        let [outer_i, inner_i, j1, j2, j_second, j_third] = ids[..] else { panic!("{ids:?}") };
        assert_ne!(outer_i, inner_i);
        assert_eq!(j1, j2);
        assert_eq!(j1, j_second);
        assert_ne!(j_second, j_third);
    }

    /// Every operator or call node that sema gave a value id, in source
    /// order: its text, its id and whether the value is invariant.
    fn kept_values(c: &Checked) -> Vec<(String, ValueId, bool)> {
        let mut kept = Vec::new();
        for f in c.funcs_in_order() {
            for s in &f.body.stmts {
                s.for_each_expr(&mut |e| {
                    e.walk(&mut |x| {
                        if let Some(id) = x.value().filter(|_| !matches!(x, Expr::Index { .. })) {
                            kept.push((crate::pretty::expr(x), id, c.values[id as usize].invariant));
                        }
                    })
                });
            }
        }
        kept
    }

    /// Figure 8's sweep keeps two values: the `min(...) + 1` that its
    /// predicate computes and its body stores, one id on both, and the
    /// index-only `(i != 0 || j != 0)`, the same in every sweep. Nothing
    /// inside either gets an id, and nothing in the initialising `par`s.
    #[test]
    fn a_star_par_keeps_its_reused_and_its_invariant_values() {
        let c = check_ok(include_str!("../../bench/programs/grid_goal.uc"));
        let kept = kept_values(&c);
        let relax = "min(min(a[i - 1][j], a[i + 1][j]), min(a[i][j - 1], a[i][j + 1])) + 1";
        let [(hoisted, h, true), (pred, p, false), (body, b, false)] = &kept[..] else {
            panic!("{kept:?}")
        };
        assert_eq!(hoisted, "(i != 0) || (j != 0)");
        assert_eq!((pred.as_str(), body.as_str(), p), (relax, relax, b));
        assert_ne!(h, p);
        assert_eq!(c.values[*p as usize].arrays, [Ref::Array(0); 4]);
        assert!(c.values[*h as usize].arrays.is_empty());
    }

    /// No value is kept that draws `rand()`, calls a user function,
    /// assigns or reduces, or that a predicate computes only under an
    /// assignment, nor a whole predicate (`a[i] > 2`). A plain `par` and a
    /// body keep no invariant: `i * 2` is a value the plain `par` reuses,
    /// and the `*par` body's `i + 1` is not one its predicate computes.
    #[test]
    fn kept_values_are_pure_and_invariants_come_from_star_par_predicates() {
        let c = check_ok(
            "index_set I:i = {0..3}, J:j = I;\nint a[4], x[4], y[4];\n\
             int f() { return 1; }\n\
             main() {\n\
               par (I) st (rand() % 2 + i > 0) x[i] = rand() % 2 + i;\n\
               par (I) st (a[i] + f() > 0) x[i] = a[i] + f();\n\
               par (I) st ((y[i] = a[i] + 1) > 0) x[i] = a[i] + 1;\n\
               par (I) st ($+(J; a[j] + 1) > i) x[i] = $+(J; a[j] + 1);\n\
               par (I) st (a[i] > 2) x[i] = a[i] > 2;\n\
               par (I) st (i * 2 < a[i]) x[i] = i * 2;\n\
               *par (I) st (a[i] > 0) a[i] = a[i] - (i + 1);\n\
             }",
        );
        let kept = kept_values(&c);
        let [(pred, p, false), (body, b, false)] = &kept[..] else { panic!("{kept:?}") };
        assert_eq!((pred.as_str(), body.as_str(), p), ("i * 2", "i * 2", b));
    }

    /// Every array access of `main` in source order, `*` before the ones
    /// the executor may read in place.
    fn lent_reads(c: &Checked) -> Vec<String> {
        let mut reads = Vec::new();
        for s in &c.funcs_in_order().last().unwrap().body.stmts {
            s.for_each_expr(&mut |e| {
                e.walk(&mut |x| {
                    if let Expr::Index { borrow, .. } = x {
                        let mark = if *borrow { "*" } else { "" };
                        reads.push(format!("{mark}{}", crate::pretty::expr(x)));
                    }
                })
            });
        }
        reads
    }

    type Plan = (String, Vec<opt::SubForm>);

    /// Every access, in walk order, as its text and its plan; and every
    /// reduction's histogram mark.
    fn plans(c: &Checked) -> (Vec<Plan>, Vec<Option<HistogramKey>>) {
        let (mut plans, mut marks) = (Vec::new(), Vec::new());
        for s in c.funcs_in_order().flat_map(|f| &f.body.stmts) {
            s.for_each_expr(&mut |e| {
                e.walk(&mut |x| match x {
                    Expr::Index { access, .. } => {
                        plans.push((crate::pretty::expr(x), c.values[*access as usize].forms.clone()))
                    }
                    Expr::Reduce(r) => marks.push(r.histogram),
                    _ => {}
                })
            });
        }
        (plans, marks)
    }

    /// Sema plans each access once: an element of a range is its axis, a
    /// `seq` register or a `power2` of one is a front-end scalar, and a
    /// subscript read from an array is neither. Resolved with the values
    /// the run will have, the plan gives the executor's local, NEWS or
    /// router path.
    #[test]
    fn sema_plans_every_access() {
        use opt::SubForm::{Axis, General, Scalar};
        let (i, j) = (Axis { axis: 0, lo: 0 }, Axis { axis: 1, lo: 0 });
        let planned = |src: &str, access: &str| {
            let c = check_ok(src);
            let (plans, _) = plans(&c);
            plans.into_iter().filter(|(text, _)| text == access).map(|(_, forms)| forms).collect::<Vec<_>>()
        };
        // Figure 4: `k` is a `seq` register, so `d[i][k]` has a constant
        // subscript beside an axis.
        let apsp = include_str!("../../bench/programs/apsp_n2.uc");
        assert_eq!(planned(apsp, "d[i][k]"), vec![vec![i, Scalar]; 2]);
        assert_eq!(planned(apsp, "d[k][j]"), vec![vec![Scalar, j]; 2]);
        assert_eq!(planned(apsp, "d[i][j]")[0], [i, j]);
        // §5's grid: four single-axis shifts, whose offsets are values.
        let grid = format!("#define C 64\n#define H 8\n{}", include_str!("../../../benchmark/programs/grid_news.uc"));
        for shift in ["a[i - 1][j]", "a[i + 1][j]", "a[i][j - 1]", "a[i][j + 1]"] {
            assert_eq!(planned(&grid, shift), vec![vec![i, j]; 2], "{shift}");
        }
        // A data-dependent subscript.
        let gather = format!("#define A 5\n#define S 3\n{}", include_str!("../../../benchmark/programs/gather_router.uc"));
        assert_eq!(planned(&gather, "b[p[i]]"), [vec![General]]);
        assert_eq!(planned(&gather, "p[i]"), vec![vec![i]; 2]);
        // `l` is the `seq`'s register: `s[i - power2(l)]` stays a shift.
        let seq = include_str!("../../../tests/corpus/seq_in_par.uc");
        assert_eq!(planned(seq, "s[i - power2(l)]"), [vec![i]]);
        let c = check_ok(seq);
        let Some(Item::Func(main)) = c.unit.items.last() else { panic!("no main") };
        let mut shift = None;
        main.body.stmts[1].for_each_expr(&mut |e| {
            e.walk(&mut |x| match x {
                Expr::Index { subs, access, .. } if crate::pretty::expr(x) == "s[i - power2(l)]" => {
                    let l = |n: &Name| (&*n.text == "l").then_some(uc_cm::Scalar::Int(2));
                    shift = Some(opt::resolve_index(c.values[*access as usize].forms[0], &subs[0], l));
                }
                _ => {}
            })
        });
        assert_eq!(shift, Some(opt::IdxForm::AxisPlus { axis: 0, offset: -4 }));
        // Under a reduction, its element is the axis after the construct's.
        let hist = include_str!("../../bench/programs/histogram.uc");
        assert_eq!(planned(hist, "samples[i]"), [vec![i], vec![j]]);
    }

    /// §4's processor optimisation is sema's decision: a histogram
    /// directly under one level of one `{0..}` set, whose `st` is one
    /// `key == elem`, is marked with its key's side. An enclosing `st` keeps
    /// the mark (`tests/corpus/histogram_under_mask.uc` pins its run);
    /// anything else loses it.
    #[test]
    fn sema_marks_the_histograms() {
        let mark = |src: &str| plans(&check_ok(src)).1;
        assert_eq!(mark(include_str!("../../bench/programs/histogram.uc")), [Some(HistogramKey::Lhs)]);
        let masked = include_str!("../../../tests/corpus/histogram_under_mask.uc");
        assert_eq!(mark(masked), [Some(HistogramKey::Lhs)]);
        let decl = "index_set I:i = {0..7}, J:j = {0..3}, K:k = {1..4};\nint s[8], n[4], m[4][4];\n";
        let at = |body: &str| mark(&format!("{decl}main() {{ {body} }}"));
        assert_eq!(at("par (J) n[j] = $+(I st (j == s[i]) 1);"), [Some(HistogramKey::Rhs)]);
        for body in [
            // A rank-2 level, a nested level, a set not from 0.
            "par (J, K) m[j][k - 1] = $+(I st (s[i] == j) 1);",
            "par (J) par (K) m[j][k - 1] = $+(I st (s[i] == j) 1);",
            "par (K) n[k - 1] = $+(I st (s[i] == k) 1);",
            // A reduction masked by more than `key == elem`, or with `others`.
            "par (J) n[j] = $+(I st (s[i] == j && i > 0) 1);",
            "par (J) n[j] = $+(I st (s[i] == j) 1 others 2);",
            // An operand that reads the element, or a per-VP local.
            "par (J) n[j] = $+(I st (s[i] == j) j);",
            "par (J) { int t = j; n[j] = $+(I st (s[i] == j) t); }",
            // An operator with no combining send, and a front-end fold.
            "par (J) n[j] = $||(I st (s[i] == j) 1);",
            "n[0] = $+(I st (s[i] == 0) 1);",
        ] {
            assert_eq!(at(body), [None], "{body}");
        }
    }

    /// Figure 8's sweep and Figure 6's step lend every read: each is an
    /// operand of `!=`, `min`, `+` or `<`. No store target is lent.
    #[test]
    fn the_figure_sweeps_lend_every_read() {
        let c = check_ok(include_str!("../../bench/programs/grid_goal.uc"));
        let target = "a[i][j]";
        let relax = ["*a[i - 1][j]", "*a[i + 1][j]", "*a[i][j - 1]", "*a[i][j + 1]"];
        let mut sweep = vec![target, target, target, "*a[i][j]"];
        sweep.extend(relax);
        sweep.push("*a[i][j]");
        sweep.push(target);
        sweep.extend(relax);
        assert_eq!(lent_reads(&c), sweep);

        let c = check_ok(include_str!("../../bench/programs/apsp_n2.uc"));
        let (ik, kj, ij) = ("*d[i][k]", "*d[k][j]", "*d[i][j]");
        assert_eq!(lent_reads(&c), ["d[i][j]", "d[i][j]", ik, kj, ij, "d[i][j]", ik, kj]);
    }

    /// A read is lent only to an operator, a `?:` condition or
    /// a read's subscripts, and only where no operand of its consumer
    /// assigns, swaps or calls a user function: not a `swap` operand, not
    /// `b[k]` beside `(b[k] = 5)`, not a store's source, a declaration's
    /// initialiser, a `?:` arm, a reduction operand or a bare predicate,
    /// and not a store target's subscript.
    #[test]
    fn a_read_is_lent_only_where_nothing_writes_before_its_consumer_is_done() {
        let c = check_ok(include_str!("../../../tests/corpus/clean_borrowed_reads.uc"));
        assert_eq!(
            lent_reads(&c),
            ["a[k]", "b[k]", "a[k]", "b[k]", "c[k]", "b[k]", "b[k]"]
        );
        let c = check_ok(
            "index_set I:i = {0..3};\nint a[4], b[4], p[4], s;\n\
             int f() { return 1; }\n\
             main() {\n\
               par (I) { int t = a[i]; b[p[i]] = a[p[i]]; }\n\
               par (I) st (a[i]) b[i] = a[i] > 0 ? a[i] : b[i];\n\
               par (I) b[i] = a[i] + f() + min(a[i], b[i]);\n\
               s = $+(I; a[i]);\n\
             }",
        );
        assert_eq!(
            lent_reads(&c),
            [
                "a[i]", "b[p[i]]", "p[i]", "a[p[i]]", "*p[i]",
                "a[i]", "b[i]", "*a[i]", "a[i]", "b[i]",
                "b[i]", "a[i]", "*a[i]", "*b[i]",
                "a[i]",
            ]
        );
    }

    #[test]
    fn elements_not_visible_outside() {
        let msg = check_err(
            "index_set I:i = {0..3};\nint a[4];\nmain() { a[i] = 0; }",
        );
        assert!(msg.contains("unknown identifier `i`"));
    }

    #[test]
    fn solve_single_assignment_enforced() {
        let msg = check_err(
            "#define N 4\nindex_set I:i = {0..N-1};\nint a[N];\nmain() { solve (I) { a[i] = 1; a[i] = 2; } }",
        );
        assert!(msg.contains("more than one"));
        // *solve is exempt.
        check_ok(
            "#define N 4\nindex_set I:i = {0..N-1};\nint a[N];\nmain() { *solve (I) { a[i] = 1; a[i] = 2; } }",
        );
    }

    #[test]
    fn solve_rejects_non_assignments() {
        let msg = check_err(
            "#define N 4\nindex_set I:i = {0..N-1};\nint a[N];\nmain() { solve (I) while (1) a[i] = 0; }",
        );
        assert!(msg.contains("only assignment"));
    }

    #[test]
    fn others_needs_guarded_arm() {
        let msg = check_err(
            "index_set I:i = {0..3};\nint a[4];\nmain() { par (I) a[i] = 0; others a[i] = 1; }",
        );
        // The parser binds `others` only after `st` arms, so this becomes a
        // parse error or a sema error depending on shape; either way the
        // message mentions others/declaration.
        assert!(!msg.is_empty());
    }

    #[test]
    fn builtin_arity() {
        let msg = check_err("main() { int x; x = power2(); }");
        assert!(msg.contains("power2"));
    }

    #[test]
    fn local_index_sets() {
        check_ok(
            "#define N 4\nint a[N];\nmain() { index_set I:i = {0..N-1}; par (I) a[i] = i; }",
        );
    }

    #[test]
    fn map_section_checked() {
        let c = check_ok(
            "#define N 4\nindex_set I:i = {0..N-1};\nint a[N], b[N];\nmap (I) { permute (I) b[i+1] :- a[i]; }\nmain() {}",
        );
        assert_eq!(c.array_names, ["a", "b"]);
        assert_eq!(c.array(1).mapping, ArrayMapping::Permute { offsets: vec![1] });
        assert_eq!(c.array(0).mapping, ArrayMapping::Default);
        let m = c.unit.items.iter().find_map(|it| if let Item::Map(m) = it { Some(m) } else { None });
        let m = m.expect("a map section");
        let (decl, i_set) = (&m.decls[0], Ref::Elem(0));
        assert!(set(&c, "I").used);
        assert_eq!((decl.target.array.to, decl.source.array.to), (Ref::Array(1), Ref::Array(0)));
        assert!(matches!(&decl.source.subs[0], Expr::Ident(n, _) if n.to == i_set));
        let msg = check_err(
            "index_set I:i = {0..3};\nint a[4];\nmap (I) { permute (I) q[i] :- a[i]; }\nmain() {}",
        );
        assert!(msg.contains("unknown array `q`"));
    }

    #[test]
    fn float_subscript_rejected() {
        let msg = check_err(
            "#define N 4\nint a[N];\nfloat f;\nmain() { a[f] = 1; }",
        );
        assert!(msg.contains("subscripts must be integers"));
    }

    #[test]
    fn float_truncation_warns_but_compiles() {
        // A builtin's type follows its operands, as its value does.
        for (stmt, warns) in [
            ("x = 1.5;", true),
            ("x = f;", true),
            ("x = abs(f);", true),
            ("x = min(f, 1);", true),
            ("x = max(2, f);", true),
            ("x = abs(x) + min(x, 1 < 2);", false),
            ("x = power2(f);", false),
        ] {
            let mut d = Diagnostics::default();
            let unit = parse(&format!("int x;\nfloat f;\nmain() {{ {stmt} }}"), &mut d).unwrap();
            assert!(check(unit, &mut d).is_some(), "{stmt}: {d}");
            assert_eq!(d.to_string().contains("truncated"), warns, "{stmt}: {d}");
        }
        let msg = check_err("int a[4];\nfloat f;\nmain() { a[max(f, 0.5)] = 1; }");
        assert!(msg.contains("subscripts must be integers"), "{msg}");
    }

    #[test]
    fn void_variables_rejected() {
        let msg = check_err("void v;\nmain() {}");
        assert!(msg.contains("void"));
    }

    #[test]
    fn function_redefinition() {
        let msg = check_err("main() {}\nmain() {}");
        assert!(msg.contains("redefined"));
        let msg = check_err("int s;\nint abs(int x) { return 7; }\nmain() { s = abs(0-3); }");
        assert!(msg.contains("function `abs` redefines a builtin at 2:5"), "{msg}");
    }

    /// A call is resolved to what it calls; `ABS(n)` and `min(n, 0)` are
    /// operators, and a builtin with the wrong number of arguments stays a
    /// call (an error).
    #[test]
    fn every_call_carries_what_it_calls() {
        let c = check_ok(
            "int s;\nint g(int n) { return ABS(n); }\nint f(int n) { return g(n) + f(min(n, 0)); }\n\
             main() { s = f(rand()); }",
        );
        let (mut callees, mut ops) = (Vec::new(), Vec::new());
        for f in c.funcs_in_order() {
            for s in &f.body.stmts {
                s.for_each_expr(&mut |e| {
                    e.walk(&mut |x| match x {
                        Expr::Call { name, callee, .. } => callees.push((&**name, *callee)),
                        Expr::Unary { op, .. } => ops.push(op.symbol()),
                        Expr::Binary { op, .. } => ops.push(op.symbol()),
                        _ => {}
                    })
                });
            }
        }
        assert_eq!(c.main, 2);
        assert_eq!(
            callees,
            [
                ("g", Callee::Func(0)),
                ("f", Callee::Func(1)),
                ("f", Callee::Func(1)),
                ("rand", Callee::Builtin(Builtin::Rand)),
            ]
        );
        assert_eq!(ops, ["abs", "+", "min"]);
        let msg = check_err("int s;\nmain() { s = min(1) + ABS(1, 2); }");
        assert!(msg.contains("builtin `min` takes 2 argument(s), got 1 at 2:14"), "{msg}");
        assert!(msg.contains("builtin `ABS` takes 1 argument(s), got 2 at 2:23"), "{msg}");
    }

    #[test]
    fn call_arity_of_user_functions() {
        let msg = check_err("int f(int a, int b) { return a + b; }\nmain() { int x; x = f(1); }");
        assert!(msg.contains("argument"));
    }

    #[test]
    fn control_flow_rejected_where_the_front_end_cannot_run_it() {
        let prelude = "#define N 4\nindex_set I:i = {0..N-1}, J:j = I;\nint a[N], x;\n";
        let inside = |what: &str| format!("`{what}` inside a parallel construct");
        let leaves = |what: &str| format!("`{what}` would leave the enclosing `seq`");
        for (body, expected) in [
            ("par (I) if (x) a[i] = 0;", inside("if") + " (use `st` predicates)"),
            ("par (I) { while (x) x = 0; }", inside("while")),
            ("solve (I) for (x = 0; x < 2; x = x + 1) a[i] = x;", inside("for")),
            ("par (I) return;", inside("return")),
            ("oneof (I) st (a[i] > 0) break;", inside("break")),
            // A `seq` under a `par` runs under masks: still parallel.
            ("par (I) seq (J) continue;", inside("continue")),
            ("par (I) seq (J) st (j > 0) if (x) a[i] = j;", inside("if")),
            ("seq (I) return;", leaves("return")),
            ("seq (I) { while (x) { return; } }", leaves("return")),
            ("while (x) seq (I) break;", leaves("break")),
            ("while (x) { seq (I) st (a[i]) continue; others x = 0; }", leaves("continue")),
        ] {
            let msg = check_err(&format!("{prelude}main() {{ {body} }}"));
            assert!(msg.contains(&expected), "{body}: {msg}");
        }
        // Front-end `seq` bodies are ordinary front-end code, a loop inside
        // one owns its `break`/`continue`, and a function called from a
        // parallel arm is checked on its own.
        for body in [
            "seq (I) if (a[i]) x = 1;",
            "seq (I) { while (x) { if (a[i]) break; x = 0; } }",
            "seq (I) for (x = 0; x < 2; x = x + 1) continue;",
            "par (I) a[i] = f(2);",
        ] {
            check_ok(&format!(
                "{prelude}int f(int n) {{ if (n) return 1; return 0; }}\nmain() {{ {body} }}"
            ));
        }
    }

    #[test]
    fn main_takes_no_parameters() {
        let msg = check_err("main(int n) { }");
        assert!(msg.contains("`main` takes no parameters"), "{msg}");
    }

    #[test]
    fn seq_single_set() {
        let msg = check_err(
            "index_set I:i = {0..3}, J:j = I;\nint a[4];\nmain() { seq (I, J) a[i] = j; }",
        );
        assert!(msg.contains("single index set"));
    }
}
