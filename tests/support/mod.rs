//! Program generators shared by the integration tests, and the plain-Rust
//! models their output is checked against. Each test file that declares
//! `mod support;` uses some of them.
#![allow(dead_code)]

use std::collections::HashMap;
use std::fmt::Write;

// ---------------------------------------------------------------------
// Hostile programs: arbitrary compositions of attack fragments.
// ---------------------------------------------------------------------

/// Statement fragments the generator draws from. Each is hostile on its
/// own or in combination; none may escape the budget envelope.
pub const FRAGMENTS: &[&str] = &[
    "par (I) a[i] = a[i] + b[i];",
    "par (I) a[i + 1] = i;",
    "par (I) a[0] = i;",
    "par (I) a[i] = a[i] / b[i];",
    "s = $+(I; a[i]);",
    "while (s < 100) s = s + 1;",
    "while (1) par (I) a[i] = a[i] + 1;",
    "*par (I) st (1) a[i] = 1 - a[i];",
    "s = rec(s);",
    "par (I) { int t = i * i; a[i] = t; }",
    "seq (I) b[i] = a[i] + s;",
    "for (s = 0; s < 1000000; s = s + 1) ;",
];

pub fn render_program(ops: &[usize], n: i64) -> String {
    let mut src = format!(
        "#define N {n}\n\
         index_set I:i = {{0..N-1}};\n\
         int a[N], b[N], s;\n\
         int rec(int x) {{ return rec(x + 1); }}\n\
         main() {{\n"
    );
    for &op in ops {
        src.push_str("    ");
        src.push_str(FRAGMENTS[op % FRAGMENTS.len()]);
        src.push('\n');
    }
    src.push_str("}\n");
    src
}

// ---------------------------------------------------------------------
// Index-set scoping: which definition does a set name denote here?
// ---------------------------------------------------------------------

/// One statement of a generated scope nest: an index-set definition
/// under a name from [`POOL`] (so shadowing is frequent), a probe that
/// sums the elements of whatever set a name denotes there, or a block.
pub enum Nest {
    /// `init`: 0/1 a range of 2/3 elements, 2 a descending list, 3.. an
    /// alias of `POOL[init - 3]`.
    Def { name: usize, init: usize },
    /// `form`: 0 a front-end reduction, 1 a `par`, 2 a front-end `seq`.
    Probe { name: usize, form: usize },
    Block(Vec<Nest>),
}

pub const POOL: [&str; 3] = ["A", "B", "C"];

pub fn nest(tape: &mut dyn Iterator<Item = u32>, depth: u32) -> Vec<Nest> {
    let mut items = Vec::new();
    for _ in 0..2 + tape.next().unwrap_or(0) % 4 {
        let mut next = |n: u32| (tape.next().unwrap_or(0) % n) as usize;
        items.push(match next(if depth < 3 { 7 } else { 5 }) {
            0 | 1 => Nest::Def { name: next(3), init: next(6) },
            2..=4 => Nest::Probe { name: next(3), form: next(3) },
            _ => Nest::Block(nest(tape, depth + 1)),
        });
    }
    items
}

/// Lexical scoping of index sets in plain Rust — a name denotes the
/// innermost definition in scope — writing the UC source as it goes.
/// Definition `d` draws its elements from `10d..`, so the sum a probe
/// stores identifies the definition it ranged over (aliases share their
/// source's elements but not its element name `e<d>`).
#[derive(Default)]
pub struct ScopeModel {
    pub src: String,
    /// Innermost last: set name → definition.
    pub scopes: Vec<HashMap<usize, usize>>,
    /// Per definition: elements, source line, whether anything reaches it.
    pub defs: Vec<(Vec<i64>, u32, bool)>,
    /// Per probe: the sum it must store in `hits`.
    pub hits: Vec<i64>,
}

impl ScopeModel {
    fn resolve(&mut self, name: usize) -> Option<usize> {
        let d = self.scopes.iter().rev().find_map(|s| s.get(&name).copied())?;
        self.defs[d].2 = true;
        Some(d)
    }

    pub fn walk(&mut self, items: &[Nest]) {
        for item in items {
            match *item {
                Nest::Def { name, init } => {
                    let d = self.defs.len();
                    let lo = 10 * d as i64;
                    let (text, elements) = match init {
                        0 | 1 => {
                            let hi = lo + init as i64 + 1;
                            (format!("{{{lo}..{hi}}}"), (lo..=hi).collect())
                        }
                        2 => (format!("{{{}, {lo}}}", lo + 2), vec![lo + 2, lo]),
                        alias => match self.resolve(alias - 3) {
                            Some(src) => (POOL[alias - 3].to_string(), self.defs[src].0.clone()),
                            None => continue,
                        },
                    };
                    let line = self.src.matches('\n').count() as u32 + 1;
                    writeln!(self.src, "index_set {}:e{d} = {text};", POOL[name]).unwrap();
                    self.defs.push((elements, line, false));
                    self.scopes.last_mut().unwrap().insert(name, d);
                }
                Nest::Probe { name, form } => {
                    let Some(d) = self.resolve(name) else { continue };
                    let (set, k) = (POOL[name], self.hits.len());
                    self.hits.push(self.defs[d].0.iter().sum());
                    let probe = match form {
                        0 => format!("hits[{k}] = $+({set}; e{d});"),
                        1 => format!("par ({set}) hits[{k}] = $+({set}; e{d});"),
                        _ => format!("seq ({set}) hits[{k}] = hits[{k}] + e{d};"),
                    };
                    writeln!(self.src, "{probe}").unwrap();
                }
                Nest::Block(ref inner) => {
                    self.src.push_str("{\n");
                    self.scopes.push(HashMap::new());
                    self.walk(inner);
                    self.scopes.pop();
                    self.src.push_str("}\n");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Variable scoping: what does `x` denote here?
// ---------------------------------------------------------------------

/// The spellings every variable *and* every index element is drawn from,
/// so that an element shadows an element, a local shadows an element, a
/// `seq` element shadows a `par` element, and sibling reductions over
/// distinct sets bind the same spelling.
pub const VARS: [&str; 3] = ["x", "y", "z"];

/// Global sets `S0..`, two elements each: set `d` is `{10d+1, 10d+2}`,
/// so a value names the set it came from.
pub const SETS: usize = 6;

/// One statement of a generated variable-scope nest.
pub enum NameStmt {
    /// `int <name> = <fresh constant>;`, or declare and assign apart.
    Decl { name: usize, split: bool },
    /// `hits[k] = <name>;`, or `hits[k] = $+(S<via>; <name>);`.
    Probe { name: usize, via: Option<usize> },
    Block(Vec<NameStmt>),
    /// `par (S<set>) st (<its element> == <element number pick> [&&
    /// $+(S<r>; <n>) == <what that sums to>]) { body }` — one virtual
    /// processor runs the body, so a probe inside stores one value, and
    /// the optional reduction sits where the step's gather cache fills.
    Par { set: usize, pick: usize, guard: Option<(usize, usize)>, body: Vec<NameStmt> },
    /// `seq (S<set>) { body }`.
    Seq { set: usize, body: Vec<NameStmt> },
}

pub fn name_nest(tape: &mut dyn Iterator<Item = u32>, depth: u32, pars: u32) -> Vec<NameStmt> {
    let mut items = Vec::new();
    for _ in 0..2 + tape.next().unwrap_or(0) % 4 {
        let mut next = |n: u32| (tape.next().unwrap_or(0) % n) as usize;
        let kind = next(if depth < 4 { 10 } else { 5 });
        items.push(match kind {
            0 | 1 => NameStmt::Decl { name: next(3), split: next(2) == 0 },
            2..=4 => {
                let (name, via) = (next(3), next(2 * SETS as u32));
                NameStmt::Probe { name, via: (via < SETS).then_some(via) }
            }
            5 | 6 if pars < 2 => {
                let (set, pick, guard) = (next(SETS as u32), next(2), next(3 * SETS as u32));
                let guard = (guard < SETS).then(|| (guard, next(3)));
                NameStmt::Par { set, pick, guard, body: name_nest(tape, depth + 1, pars + 1) }
            }
            7 => NameStmt::Seq { set: next(SETS as u32), body: name_nest(tape, depth + 1, pars) },
            _ => NameStmt::Block(name_nest(tape, depth + 1, pars)),
        });
    }
    items
}

/// Lexical scoping of variables in plain Rust — a spelling denotes its
/// innermost binding; outside every function that is a global scalar,
/// then a `#define` — writing the UC source as it goes. Exactly one
/// point of every iteration space executes (each `par` is guarded down
/// to one element) and of a `seq` only the last step's stores survive,
/// so a binding *is* the one value it holds there: a local its
/// constant, an element the coordinate of that point.
#[derive(Default)]
pub struct NameModel {
    pub src: String,
    /// Innermost last: spelling → the value it holds.
    pub scopes: Vec<HashMap<usize, i64>>,
    /// The spelling of each set's element.
    pub elems: [usize; SETS],
    /// Per probe: the value it must store in `hits`.
    pub hits: Vec<i64>,
    pub decls: i64,
}

impl NameModel {
    fn lookup(&self, name: usize) -> Option<i64> {
        self.scopes.iter().rev().find_map(|s| s.get(&name).copied())
    }

    /// `$+(S<set>; <name>)`: the sum over the set's elements of what
    /// `name` denotes with the set's element bound to each.
    fn sum(&mut self, set: usize, name: usize) -> Option<i64> {
        let mut total = 0;
        for e in [10 * set as i64 + 1, 10 * set as i64 + 2] {
            self.scopes.push(HashMap::from([(self.elems[set], e)]));
            let v = self.lookup(name);
            self.scopes.pop();
            total += v?;
        }
        Some(total)
    }

    /// `{ body }` with `bound` (a construct's element) in scope around it.
    fn body(&mut self, bound: Option<(usize, i64)>, items: &[NameStmt]) {
        self.src.push_str("{\n");
        self.scopes.push(bound.into_iter().collect());
        self.scopes.push(HashMap::new());
        self.walk(items);
        self.scopes.truncate(self.scopes.len() - 2);
        self.src.push_str("}\n");
    }

    pub fn walk(&mut self, items: &[NameStmt]) {
        for item in items {
            match *item {
                NameStmt::Decl { name, split } => {
                    self.decls += 1;
                    let (v, value) = (VARS[name], 1000 + self.decls);
                    if split {
                        writeln!(self.src, "int {v};\n{v} = {value};").unwrap();
                    } else {
                        writeln!(self.src, "int {v} = {value};").unwrap();
                    }
                    self.scopes.last_mut().unwrap().insert(name, value);
                }
                NameStmt::Probe { name, via } => {
                    let (v, k) = (VARS[name], self.hits.len());
                    let (text, value) = match via {
                        Some(set) => (format!("$+(S{set}; {v})"), self.sum(set, name)),
                        None => (v.to_string(), self.lookup(name)),
                    };
                    let Some(value) = value else { continue };
                    self.hits.push(value);
                    writeln!(self.src, "hits[{k}] = {text};").unwrap();
                }
                NameStmt::Block(ref inner) => self.body(None, inner),
                NameStmt::Par { set, pick, guard, ref body } => {
                    let bound = (self.elems[set], 10 * set as i64 + 1 + pick as i64);
                    write!(self.src, "par (S{set}) st ({} == {}", VARS[bound.0], bound.1).unwrap();
                    self.scopes.push(HashMap::from([bound]));
                    if let Some((r, n)) = guard {
                        if let Some(total) = self.sum(r, n) {
                            write!(self.src, " && $+(S{r}; {}) == {total}", VARS[n]).unwrap();
                        }
                    }
                    self.scopes.pop();
                    self.src.push_str(") ");
                    self.body(Some(bound), body);
                }
                NameStmt::Seq { set, ref body } => {
                    write!(self.src, "seq (S{set}) ").unwrap();
                    self.body(Some((self.elems[set], 10 * set as i64 + 2)), body);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rank: which values are one per virtual processor?
// ---------------------------------------------------------------------

/// A value a generated statement reads. `PerVp` and `Outer` need an
/// enclosing `par`, `Elem` and `ReadElem` an element in scope; the
/// generator draws them only there.
pub enum Operand {
    Lit,
    Global,
    /// A local of `main` declared outside every construct.
    Reg,
    /// A local declared in the innermost `par` body.
    PerVp,
    /// A local of the outer `par` body, read from the inner one.
    Outer,
    /// The `nth` (mod how many there are) index element in scope.
    Elem(usize),
    /// `a[1]`.
    ReadConst,
    /// `a[<Elem>]`.
    ReadElem(usize),
    Rand,
    /// `$+(K; <inner>)`: `inner` sits one space deeper, with `k` in scope.
    Reduce(Box<Operand>),
    Abs(Box<Operand>),
    Plus(Box<Operand>),
    /// `(g > 0 ? <inner> : 1)`.
    Cond(Box<Operand>),
    /// `f(<inner>)`, a user function.
    Call(Box<Operand>),
}

/// Where a generated statement stores.
#[derive(Clone, Copy, PartialEq)]
pub enum Target {
    Global,
    Reg,
    /// The innermost `par` body's local (depth 0: the array element).
    PerVp,
    /// `a[<innermost element>]` (depth 0: `a[1]`).
    Element,
}

pub enum RankStmt {
    /// `target = value;` or `target += value;`.
    Store { target: Target, compound: bool, value: Operand },
    Swap(Target, Target),
}

/// One statement under `depth` nested `par`s (0–2).
pub struct RankCase {
    pub depth: usize,
    pub stmt: RankStmt,
}

/// `pars` enclosing `par`s, `open` iteration spaces (reductions included).
fn operand(tape: &mut dyn Iterator<Item = u32>, pars: usize, open: usize, fuel: u32) -> Operand {
    let mut next = |n: u32| tape.next().unwrap_or(0) % n;
    let pick = next(if fuel == 0 { 9 } else { 14 });
    let nth = next(3) as usize;
    let mut inner = |open| Box::new(operand(tape, pars, open, fuel - 1));
    match pick {
        0 => Operand::Lit,
        1 => Operand::Global,
        2 => Operand::Reg,
        3 => Operand::ReadConst,
        4 => Operand::Rand,
        5 if pars > 0 => Operand::PerVp,
        6 if open > 0 => Operand::Elem(nth),
        7 if open > 0 => Operand::ReadElem(nth),
        8 if pars > 1 => Operand::Outer,
        5..=8 => Operand::Global,
        9 => Operand::Reduce(inner(open + 1)),
        10 => Operand::Abs(inner(open)),
        11 => Operand::Plus(inner(open)),
        12 => Operand::Cond(inner(open)),
        _ => Operand::Call(inner(open)),
    }
}

pub fn rank_case(tape: &mut dyn Iterator<Item = u32>) -> RankCase {
    let mut next = |n: u32| tape.next().unwrap_or(0) % n;
    let depth = next(3) as usize;
    let mut target = || [Target::Global, Target::Reg, Target::PerVp, Target::Element][next(4) as usize];
    let (a, b) = (target(), target());
    let stmt = match next(4) {
        0 => RankStmt::Swap(a, b),
        form => RankStmt::Store { target: a, compound: form == 1, value: operand(tape, depth, depth, 3) },
    };
    RankCase { depth, stmt }
}

impl Target {
    pub fn text(self, depth: usize) -> &'static str {
        match (self, depth) {
            (Target::Global, _) => "g",
            (Target::Reg, _) => "r",
            (Target::PerVp | Target::Element, 0) => "a[1]",
            (Target::PerVp, _) => "p",
            (Target::Element, 1) => "a[i]",
            (Target::Element, _) => "a[j]",
        }
    }
}

impl Operand {
    /// Source text with `elems` the index elements in scope, outermost
    /// first.
    fn text(&self, elems: &mut Vec<&'static str>) -> String {
        let elem = |elems: &[&'static str], nth: usize| elems[nth % elems.len()];
        match self {
            Operand::Lit => "2".into(),
            Operand::Global => "h".into(),
            Operand::Reg => "q".into(),
            Operand::PerVp => "o".into(),
            Operand::Outer => "w".into(),
            Operand::Elem(nth) => elem(elems, *nth).into(),
            Operand::ReadConst => "a[1]".into(),
            Operand::ReadElem(nth) => format!("a[{}]", elem(elems, *nth)),
            Operand::Rand => "rand() % 3".into(),
            Operand::Reduce(x) => {
                elems.push("k");
                let inner = x.text(elems);
                elems.pop();
                format!("$+(K; {inner})")
            }
            Operand::Abs(x) => format!("abs({})", x.text(elems)),
            Operand::Plus(x) => format!("({} + 1)", x.text(elems)),
            Operand::Cond(x) => format!("(g > 0 ? {} : 1)", x.text(elems)),
            Operand::Call(x) => format!("f({})", x.text(elems)),
        }
    }
}

impl RankCase {
    /// The whole program: the statement under `depth` nested `par`s, each
    /// body declaring its per-processor locals first.
    pub fn source(&self) -> String {
        let mut elems = ["i", "j"][..self.depth].to_vec();
        let stmt = match &self.stmt {
            RankStmt::Store { target, compound, value } => {
                let op = if *compound { "+=" } else { "=" };
                format!("{} {op} {};", target.text(self.depth), value.text(&mut elems))
            }
            RankStmt::Swap(x, y) => {
                format!("swap({}, {});", x.text(self.depth), y.text(self.depth))
            }
        };
        let body = match self.depth {
            0 => stmt,
            1 => format!("par (I) {{ int p, o; p = i; o = i; {stmt} }}"),
            _ => format!(
                "par (I) {{ int w; w = i; par (J) {{ int p, o; p = j; o = j; {stmt} }} }}"
            ),
        };
        format!(
            "index_set I:i = {{0..3}}, J:j = {{0..2}}, K:k = {{0..1}};\n\
             int a[4], g, h;\n\
             int f(int n) {{ return n + 1; }}\n\
             main() {{ int r, q; r = 1; q = 2; g = 3; h = 4; {body} }}\n"
        )
    }
}

// ---------------------------------------------------------------------
// Front-end scalar statements against a left-to-right model.
// ---------------------------------------------------------------------

/// The variables of a generated `main`, as `(name, is_float)`: three int
/// and two float locals, then a float and an int global. A [`SExpr::Var`]
/// is a position here.
pub const SCALARS: [(&str, bool); 7] =
    [("x", false), ("y", false), ("z", false), ("f", true), ("h", true), ("g", true), ("k", false)];

/// A front-end expression, as the generator builds it and the model
/// evaluates it — the implementation only ever sees [`SExpr::text`].
pub enum SExpr {
    Int(i64),
    Float(f64),
    Var(usize),
    /// `v = e`, or `v op= e` with `op` one of `+ - *`.
    Assign(usize, Option<char>, Box<SExpr>),
    /// `+ - * / % < == &&`; the generator guards every divisor.
    Bin(&'static str, Box<SExpr>, Box<SExpr>),
    Cond(Box<SExpr>, Box<SExpr>, Box<SExpr>),
    /// `-e`, `!e`, `abs(e)`.
    Un(&'static str, Box<SExpr>),
    /// `min(a, b)` / `max(a, b)`.
    MinMax(bool, Box<SExpr>, Box<SExpr>),
    /// `two(a, b)`: the user function `int two(int a, int b) { return a * 10 + b; }`.
    Two(Box<SExpr>, Box<SExpr>),
    /// `m[i]`, the global `int m[4]`, `i` an [`index_expr`].
    Elem(Box<SExpr>),
    /// `m[i] = e`, or `m[i] op= e` with `op` one of `+ - *`.
    ElemAssign(Box<SExpr>, Option<char>, Box<SExpr>),
}

/// A subscript of `m`: an int that may read `m` or bump an int variable
/// (`(x = x + 1) & 3`), masked into range.
pub fn index_expr(tape: &mut dyn Iterator<Item = u32>, depth: u32) -> SExpr {
    let mut next = |n: u32| tape.next().unwrap_or(0) % n;
    let pick = next(if depth == 0 { 3 } else { 4 });
    let (var, lit) = ([0, 1, 2, 6][next(4) as usize], next(5));
    let int = match pick {
        0 => SExpr::Var(var),
        1 => SExpr::Int(lit as i64),
        2 => {
            let bump = SExpr::Bin("+", Box::new(SExpr::Var(var)), Box::new(SExpr::Int(1)));
            SExpr::Assign(var, None, Box::new(bump))
        }
        _ => SExpr::Elem(Box::new(index_expr(tape, depth - 1))),
    };
    SExpr::Bin("&", Box::new(int), Box::new(SExpr::Int(3)))
}

/// `v` if it is non-zero, else 1: a divisor that never traps.
fn divisor(v: usize) -> SExpr {
    let v = || Box::new(SExpr::Var(v));
    SExpr::Cond(Box::new(SExpr::Bin("!=", v(), Box::new(SExpr::Int(0)))), v(), Box::new(SExpr::Int(1)))
}

/// An expression of nesting at most `depth` drawn from `tape` (exhausted
/// tape reads as zeros).
pub fn scalar_expr(tape: &mut dyn Iterator<Item = u32>, depth: u32) -> SExpr {
    let mut next = |n: u32| tape.next().unwrap_or(0) % n;
    let pick = if depth == 0 { next(4) } else { next(25) };
    let var = next(SCALARS.len() as u32) as usize;
    let lit = next(5) as i64;
    let mut sub = || Box::new(scalar_expr(tape, depth.saturating_sub(1)));
    match pick {
        0 => SExpr::Int(lit),
        1 => SExpr::Float([0.5, 1.5, 2.0, 4.0, 0.0][lit as usize]),
        2 | 3 => SExpr::Var(var),
        4 | 5 => SExpr::Assign(var, None, sub()),
        6 => SExpr::Assign(var, Some(['+', '-', '*'][lit as usize % 3]), sub()),
        7 | 8 => SExpr::Bin("+", sub(), sub()),
        9 => SExpr::Bin("-", sub(), sub()),
        10 => SExpr::Bin("*", sub(), sub()),
        11 => SExpr::Bin(["<", "=="][lit as usize % 2], sub(), sub()),
        12 => SExpr::Bin("&&", sub(), sub()),
        13 => SExpr::Cond(sub(), sub(), sub()),
        14 => SExpr::Un(["-", "!", "abs"][lit as usize % 3], sub()),
        15 => SExpr::MinMax(lit % 2 == 0, sub(), sub()),
        16 => SExpr::Two(sub(), sub()),
        17 => SExpr::Bin("/", sub(), Box::new(divisor(var))),
        // `%` takes ints: an int variable on each side.
        18 => SExpr::Bin("%", Box::new(SExpr::Var(var % 3)), Box::new(divisor(lit as usize % 3))),
        19 => SExpr::Bin("/", sub(), Box::new(SExpr::Float(2.0))),
        // A variable read beside an assignment to it, on either side and
        // as a call argument.
        20 => SExpr::Bin("+", Box::new(SExpr::Var(var)), Box::new(SExpr::Assign(var, None, sub()))),
        21 => SExpr::Bin("*", Box::new(SExpr::Assign(var, None, sub())), Box::new(SExpr::Var(var))),
        22 => SExpr::Elem(Box::new(index_expr(tape, 2))),
        23 => {
            let op = [None, Some('+'), Some('*')][lit as usize % 3];
            let i = Box::new(index_expr(tape, 2));
            SExpr::ElemAssign(i, op, Box::new(scalar_expr(tape, depth - 1)))
        }
        _ => SExpr::Two(Box::new(SExpr::Var(var)), Box::new(SExpr::Assign(var, Some('+'), sub()))),
    }
}

/// A straight-line body: mostly assignments, some bare expressions.
pub fn scalar_stmts(tape: &mut dyn Iterator<Item = u32>) -> Vec<SExpr> {
    let n = 2 + tape.next().unwrap_or(0) % 7;
    (0..n)
        .map(|_| match tape.next().unwrap_or(0) % 4 {
            0 => scalar_expr(tape, 3),
            1 => {
                let op = [None, Some('+'), Some('-')][tape.next().unwrap_or(0) as usize % 3];
                let i = Box::new(index_expr(tape, 2));
                SExpr::ElemAssign(i, op, Box::new(scalar_expr(tape, 3)))
            }
            _ => {
                let var = tape.next().unwrap_or(0) as usize % SCALARS.len();
                let op = [None, None, Some('+'), Some('-'), Some('*')];
                let op = op[tape.next().unwrap_or(0) as usize % op.len()];
                SExpr::Assign(var, op, Box::new(scalar_expr(tape, 3)))
            }
        })
        .collect()
}

impl SExpr {
    pub fn text(&self) -> String {
        match self {
            SExpr::Int(v) => v.to_string(),
            SExpr::Float(v) => format!("{v:?}"),
            SExpr::Var(v) => SCALARS[*v].0.into(),
            SExpr::Assign(v, None, e) => format!("({} = {})", SCALARS[*v].0, e.text()),
            SExpr::Assign(v, Some(op), e) => format!("({} {op}= {})", SCALARS[*v].0, e.text()),
            SExpr::Bin(op, a, b) => format!("({} {op} {})", a.text(), b.text()),
            SExpr::Cond(c, a, b) => format!("({} ? {} : {})", c.text(), a.text(), b.text()),
            SExpr::Un("abs", e) => format!("abs({})", e.text()),
            SExpr::Un(op, e) => format!("({op}{})", e.text()),
            SExpr::MinMax(is_min, a, b) => {
                format!("{}({}, {})", if *is_min { "min" } else { "max" }, a.text(), b.text())
            }
            SExpr::Two(a, b) => format!("two({}, {})", a.text(), b.text()),
            SExpr::Elem(i) => format!("m[{}]", i.text()),
            SExpr::ElemAssign(i, None, e) => format!("(m[{}] = {})", i.text(), e.text()),
            SExpr::ElemAssign(i, Some(op), e) => format!("(m[{}] {op}= {})", i.text(), e.text()),
        }
    }
}

/// The whole program around `stmts`: the locals start at `x = 1, y = 2,
/// z = 3, f = 0.5, h = -2.5` (the globals at zero), and every local ends
/// in a global of its type (`rx … rh`) where the host can read it.
pub fn scalar_program(stmts: &[SExpr]) -> String {
    let mut src = String::from(
        "float g; int k; int m[4]; int rx, ry, rz; float rf, rh;\n\
         int two(int a, int b) { return a * 10 + b; }\n\
         main() {\n    int x = 1; int y = x + 1; int z = y + x; float f = 0.5; float h = f - 3;\n",
    );
    for s in stmts {
        writeln!(src, "    {};", s.text()).unwrap();
    }
    src.push_str("    rx = x; ry = y; rz = z; rf = f; rh = h;\n}\n");
    src
}

/// A value of the model: UC's front end is dynamically typed over these.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SVal {
    I(i64),
    F(f64),
}

impl SVal {
    fn int(self) -> i64 {
        match self {
            SVal::I(v) => v,
            SVal::F(v) => v as i64, // C truncation
        }
    }
    fn float(self) -> f64 {
        match self {
            SVal::I(v) => v as f64,
            SVal::F(v) => v,
        }
    }
    fn truth(self) -> bool {
        self.float() != 0.0
    }
}

/// The model: every variable's value and `m`, evaluated strictly left to
/// right with wrapping ints, the operands of an int-only operator
/// truncated, and an assignment yielding the value it was given (not the
/// one the variable keeps). A store to `m[i]` evaluates the value, then
/// `i`, then reads the old element of `op=`, then stores.
pub struct ScalarModel {
    pub vars: [SVal; 7],
    pub m: [i64; 4],
}

impl Default for ScalarModel {
    fn default() -> Self {
        use SVal::{F, I};
        ScalarModel { vars: [I(1), I(2), I(3), F(0.5), F(-2.5), F(0.0), I(0)], m: [0; 4] }
    }
}

impl ScalarModel {
    fn arith(op: &str, a: SVal, b: SVal) -> SVal {
        if let (SVal::I(x), SVal::I(y)) = (a, b) {
            return SVal::I(match op {
                "+" => x.wrapping_add(y),
                "-" => x.wrapping_sub(y),
                "*" => x.wrapping_mul(y),
                "/" => x.wrapping_div(y),
                "<" => (x < y) as i64,
                "==" => (x == y) as i64,
                _ => (x != y) as i64,
            });
        }
        let (x, y) = (a.float(), b.float());
        match op {
            "+" => SVal::F(x + y),
            "-" => SVal::F(x - y),
            "*" => SVal::F(x * y),
            "/" => SVal::F(x / y),
            "<" => SVal::I((x < y) as i64),
            "==" => SVal::I((x == y) as i64),
            _ => SVal::I((x != y) as i64),
        }
    }

    pub fn eval(&mut self, e: &SExpr) -> SVal {
        match e {
            SExpr::Int(v) => SVal::I(*v),
            SExpr::Float(v) => SVal::F(*v),
            SExpr::Var(v) => self.vars[*v],
            SExpr::Assign(v, op, e) => {
                let mut value = self.eval(e);
                if let Some(op) = op {
                    value = Self::arith(&op.to_string(), self.vars[*v], value);
                }
                let kept = if SCALARS[*v].1 { SVal::F(value.float()) } else { SVal::I(value.int()) };
                self.vars[*v] = kept;
                value
            }
            SExpr::Bin("&&", a, b) => SVal::I((self.eval(a).truth() && self.eval(b).truth()) as i64),
            SExpr::Bin("%", a, b) => SVal::I(self.eval(a).int().wrapping_rem(self.eval(b).int())),
            SExpr::Bin("&", a, b) => SVal::I(self.eval(a).int() & self.eval(b).int()),
            SExpr::Bin(op, a, b) => {
                let a = self.eval(a);
                Self::arith(op, a, self.eval(b))
            }
            SExpr::Cond(c, a, b) => {
                if self.eval(c).truth() {
                    self.eval(a)
                } else {
                    self.eval(b)
                }
            }
            SExpr::Un(op, e) => match (*op, self.eval(e)) {
                ("!", v) => SVal::I(!v.truth() as i64),
                ("-", SVal::I(v)) => SVal::I(v.wrapping_neg()),
                ("-", SVal::F(v)) => SVal::F(-v),
                (_, SVal::I(v)) => SVal::I(v.wrapping_abs()),
                (_, SVal::F(v)) => SVal::F(v.abs()),
            },
            SExpr::MinMax(is_min, a, b) => match (self.eval(a), self.eval(b)) {
                (SVal::I(x), SVal::I(y)) => SVal::I(if *is_min { x.min(y) } else { x.max(y) }),
                (a, b) => {
                    let (x, y) = (a.float(), b.float());
                    SVal::F(if *is_min { x.min(y) } else { x.max(y) })
                }
            },
            SExpr::Two(a, b) => {
                let a = self.eval(a).int();
                SVal::I(a.wrapping_mul(10).wrapping_add(self.eval(b).int()))
            }
            SExpr::Elem(i) => SVal::I(self.m[self.eval(i).int() as usize]),
            SExpr::ElemAssign(i, op, e) => {
                let mut value = self.eval(e);
                let i = self.eval(i).int() as usize;
                if let Some(op) = op {
                    value = Self::arith(&op.to_string(), SVal::I(self.m[i]), value);
                }
                self.m[i] = value.int();
                value
            }
        }
    }
}
