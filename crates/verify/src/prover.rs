//! A sound, incomplete decision procedure for `∀ assignment: e >= 0`.
//!
//! The prover works on [`SymExpr`]s quantified over the variable ranges of a
//! [`VarDecl`] table: every variable `v` ranges over `[lo_v, hi_v]` (or
//! `[lo_v, ∞)` when `hi` is `None`), where the bound expressions may
//! reference earlier-declared (lower-id) variables only.
//!
//! # Method
//!
//! Expressions are normalised into a polynomial over *atoms* — a monomial is
//! a multiset of atoms with an integer coefficient, and an atom is either a
//! variable or an opaque `min` / `max` / `ceil-div` subterm. The engine then
//! alternates two reductions until the goal is a constant:
//!
//! 1. **Atom elimination.** A `min(a, b)` (or `max`) atom is pointwise equal
//!    to one of its branches at every assignment, so proving *both* branch
//!    substitutions nonnegative is always sound. When that fails and the
//!    atom's coefficient context has a uniform favourable sign (negative for
//!    `min`, positive for `max`), substituting *either* branch yields a
//!    pointwise lower bound on the goal, so one branch proof suffices. A
//!    `ceil(num/d)` atom `q` satisfies `d·q = num + r` with `r ∈ [0, d-1]`
//!    exactly (true ceiling, any numerator sign); the goal is multiplied by
//!    `d` and the occurrence rewritten, with `r` a fresh bounded variable.
//! 2. **Variable elimination.** Once only variable atoms remain the goal is
//!    multilinear, hence affine in its highest-id variable `v`; its minimum
//!    over `[lo, hi]` is attained at an endpoint. The upper endpoint is
//!    substituted as `max(lo, hi)` rather than `hi`: loop ranges
//!    `[0, count-1]` may be *empty*, and the clamp keeps the quantified
//!    range a superset of the true (possibly empty) range without ever
//!    introducing a spurious below-lower-bound point. For unbounded params
//!    the slope must be nonnegative and the value at `lo` nonnegative.
//!
//! Highest-id-first ordering is what makes endpoint substitution
//! well-founded: bounds only mention earlier variables, and fresh variables
//! (appended above all real ids) have constant bounds. A fuel counter bounds
//! the overall search; exhaustion reports "not proved" (never unsoundness).

use hpsparse_sim::{SymExpr, VarDecl, VarId, VarKind};
use std::collections::BTreeMap;

/// One multiplicative atom of a normalised monomial.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Atom {
    /// A plain variable.
    Var(VarId),
    /// An opaque `min(a, b)` subterm.
    Min(SymExpr, SymExpr),
    /// An opaque `max(a, b)` subterm.
    Max(SymExpr, SymExpr),
    /// An opaque `ceil(num / d)` subterm.
    CeilDiv(SymExpr, i64),
}

impl Atom {
    fn to_expr(&self) -> SymExpr {
        match self {
            Atom::Var(v) => SymExpr::Var(*v),
            Atom::Min(a, b) => a.clone().min(b.clone()),
            Atom::Max(a, b) => a.clone().max(b.clone()),
            Atom::CeilDiv(n, d) => n.clone().ceil_div(*d),
        }
    }
}

/// Sorted multiset of atoms (the monomial key) → coefficient.
type Poly = BTreeMap<Vec<Atom>, i64>;

/// Uniform sign of an atom's coefficient context across all its occurrences.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ContextSign {
    Pos,
    Neg,
}

/// The default fuel budget for one top-level query.
const DEFAULT_FUEL: u64 = 1_000_000;

/// The nonnegativity prover. Holds the variable table (plus any fresh
/// variables minted while rewriting ceil-div atoms) and a fuel counter.
pub struct Prover {
    vars: Vec<VarDecl>,
    fuel: u64,
    /// Expressions known `>= 0` at every *executing* instance of the site
    /// whose obligation is being proved (enclosing loop trip counts minus
    /// one, launch axis extents minus one). Usable by subtraction: if
    /// `goal - h >= 0` and `h >= 0`, then `goal >= 0`.
    hyps: Vec<SymExpr>,
    /// Variables whose ranges are nonempty at every executing instance
    /// (enclosing loop variables, launch axes): their upper elimination
    /// endpoint needs no `max(lo, hi)` clamp.
    nonempty: Vec<VarId>,
    /// Remaining hypothesis-subtraction attempts for the current query.
    hyp_budget: u32,
}

/// Per-query budget of hypothesis subtractions (bounds the Farkas search).
const HYP_BUDGET: u32 = 16;

impl Prover {
    /// Build a prover over the given declaration table. Variable bounds may
    /// reference earlier-declared variables only, matching plan builders.
    pub fn new(vars: &[VarDecl]) -> Self {
        Prover {
            vars: vars.to_vec(),
            fuel: DEFAULT_FUEL,
            hyps: Vec::new(),
            nonempty: Vec::new(),
            hyp_budget: 0,
        }
    }

    /// Prove `e >= 0` for every assignment within the declared ranges.
    /// Returns `false` both on refutable and on merely-unprovable goals.
    pub fn prove_nonneg(&mut self, e: &SymExpr) -> bool {
        self.prove_nonneg_given(e, &[], &[])
    }

    /// Prove `e >= 0` at every *executing* instance: `hyps` are expressions
    /// known nonnegative there (e.g. enclosing trip counts minus one), and
    /// `nonempty` are variables whose ranges are nonempty there (enclosing
    /// loop variables and launch axes), so endpoint elimination may use the
    /// true upper bound unclamped. Sound only for obligations that are
    /// vacuous when the site does not execute.
    pub fn prove_nonneg_given(
        &mut self,
        e: &SymExpr,
        hyps: &[SymExpr],
        nonempty: &[VarId],
    ) -> bool {
        let real = self.vars.len();
        self.fuel = DEFAULT_FUEL;
        self.hyp_budget = HYP_BUDGET;
        self.hyps = hyps.to_vec();
        self.nonempty = nonempty.to_vec();
        let ok = self.prove(e);
        // Fresh ceil-div remainder variables are query-local.
        self.vars.truncate(real);
        self.hyps.clear();
        self.nonempty.clear();
        ok
    }

    fn prove(&mut self, e: &SymExpr) -> bool {
        if self.fuel == 0 {
            return false;
        }
        self.fuel -= 1;
        let Some(p) = self.normalize(e) else {
            return false;
        };
        if p.is_empty() {
            return true;
        }
        if p.len() == 1 {
            if let Some(c) = p.get(&Vec::new()) {
                return *c >= 0;
            }
        }
        // Interval fast path: a constant lower bound >= 0 over the declared
        // ranges settles the goal without any case splitting. This is also
        // what recovers `ceil(x/d) >= 1 for x >= 1` — the polynomial
        // relaxation below forgets that the remainder covaries with `x`,
        // but plain interval propagation does not.
        if let (Some(lb), _) = self.ival(e, 0) {
            if lb >= 0 {
                return true;
            }
        }
        // Variables occurring only *outside* compound atoms eliminate
        // exactly (endpoint substitution), whereas rewriting a ceil-div
        // relaxes. Prefer the exact step; fall back to atom elimination,
        // trying each distinct compound atom (for nested ceil-divs the
        // rewrite order decides whether the couplings survive).
        if let Some(v) = preferred_var(&p) {
            if self.eliminate_var(&p, v) {
                return true;
            }
        }
        let atoms = compound_atoms(&p);
        for atom in &atoms {
            if self.eliminate_atom(&p, atom) {
                return true;
            }
        }
        if atoms.is_empty() {
            if let Some(v) = highest_var(&p) {
                if self.eliminate_var(&p, v) {
                    return true;
                }
            }
        }
        // Farkas fallback: every hypothesis is nonnegative wherever the
        // obligation matters, so `goal - h >= 0` implies the goal. A global
        // per-query budget bounds the search.
        if !self.hyps.is_empty() {
            let hyps = self.hyps.clone();
            for h in hyps {
                if self.hyp_budget == 0 {
                    break;
                }
                self.hyp_budget -= 1;
                if self.prove(&(e.clone() - h)) {
                    return true;
                }
            }
        }
        false
    }

    // ---- interval propagation --------------------------------------------

    /// Constant interval `(lower, upper)` of `e` over the declared ranges;
    /// `None` means unbounded (or unknown) on that side. Variable intervals
    /// follow the clamped quantification `[lo, max(lo, hi)]` used by
    /// endpoint elimination.
    fn ival(&self, e: &SymExpr, depth: u32) -> (Option<i64>, Option<i64>) {
        if depth > 128 {
            return (None, None);
        }
        match e {
            SymExpr::Const(c) => (Some(*c), Some(*c)),
            SymExpr::Var(v) => {
                let Some(decl) = self.vars.get(v.index()).cloned() else {
                    return (None, None);
                };
                let (ll, lu) = self.ival(&decl.lo, depth + 1);
                match &decl.hi {
                    Some(hi) => {
                        let (_, hu) = self.ival(hi, depth + 1);
                        let ub = match (lu, hu) {
                            (Some(a), Some(b)) => Some(a.max(b)),
                            _ => None,
                        };
                        (ll, ub)
                    }
                    None => (ll, None),
                }
            }
            SymExpr::Add(a, b) => {
                let (al, au) = self.ival(a, depth + 1);
                let (bl, bu) = self.ival(b, depth + 1);
                (opt_add(al, bl), opt_add(au, bu))
            }
            SymExpr::Sub(a, b) => {
                let (al, au) = self.ival(a, depth + 1);
                let (bl, bu) = self.ival(b, depth + 1);
                (opt_sub(al, bu), opt_sub(au, bl))
            }
            SymExpr::Mul(a, b) => mul_ival(self.ival(a, depth + 1), self.ival(b, depth + 1)),
            SymExpr::Min(a, b) => {
                let (al, au) = self.ival(a, depth + 1);
                let (bl, bu) = self.ival(b, depth + 1);
                let lb = match (al, bl) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    _ => None,
                };
                let ub = match (au, bu) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (Some(x), None) | (None, Some(x)) => Some(x),
                    (None, None) => None,
                };
                (lb, ub)
            }
            SymExpr::Max(a, b) => {
                let (al, au) = self.ival(a, depth + 1);
                let (bl, bu) = self.ival(b, depth + 1);
                let lb = match (al, bl) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (Some(x), None) | (None, Some(x)) => Some(x),
                    (None, None) => None,
                };
                let ub = match (au, bu) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    _ => None,
                };
                (lb, ub)
            }
            SymExpr::CeilDiv(n, d) => {
                let (nl, nu) = self.ival(n, depth + 1);
                (nl.map(|v| ceil_i64(v, *d)), nu.map(|v| ceil_i64(v, *d)))
            }
        }
    }

    // ---- atom elimination ------------------------------------------------

    fn eliminate_atom(&mut self, p: &Poly, atom: &Atom) -> bool {
        match atom {
            Atom::Min(a, b) | Atom::Max(a, b) => {
                let is_min = matches!(atom, Atom::Min(..));
                let ea = subst_atom(p, atom, a);
                let eb = subst_atom(p, atom, b);
                // Pointwise rule: at every assignment the atom equals one
                // branch, so the goal equals one substitution; both proofs
                // together cover all assignments. Always sound.
                let pa = self.prove(&ea);
                let pb = self.prove(&eb);
                if pa && pb {
                    return true;
                }
                // One-branch rule: with a uniformly negative context a
                // `min` substitution only increases the goal (min <= branch
                // times a nonpositive weight bounds the goal from below);
                // dually for `max` with a positive context.
                let sign_ok = match self.context_sign(p, atom) {
                    Some(ContextSign::Neg) => is_min,
                    Some(ContextSign::Pos) => !is_min,
                    None => false,
                };
                sign_ok && (pa || pb)
            }
            Atom::CeilDiv(num, d) => self.eliminate_ceil_div(p, atom, num, *d),
            Atom::Var(_) => unreachable!("compound atoms only"),
        }
    }

    /// Rewrite `q = ceil(num/d)` using the exact identity `d·q = num + r`,
    /// `r ∈ [0, d-1]`. The goal `e >= 0` is replaced by `d·e >= 0`
    /// (equivalent, `d > 0`), in which every monomial containing `q` once
    /// absorbs the factor `d`; monomials with `q` squared are out of scope.
    fn eliminate_ceil_div(&mut self, p: &Poly, atom: &Atom, num: &SymExpr, d: i64) -> bool {
        for key in p.keys() {
            if key.iter().filter(|a| *a == atom).count() > 1 {
                return false;
            }
        }
        let r = self.fresh_var(0, d - 1);
        let replacement = num.clone() + r;
        let mut goal = SymExpr::Const(0);
        for (key, coeff) in p {
            let rest = monomial_expr(key.iter().filter(|a| *a != atom));
            let term = if key.contains(atom) {
                SymExpr::Const(*coeff) * replacement.clone() * rest
            } else {
                // Repeated rewrites compound the scale; overflow means this
                // reduction path is hopeless, not the goal.
                let Some(scaled) = coeff.checked_mul(d) else {
                    return false;
                };
                SymExpr::Const(scaled) * rest
            };
            goal = goal + term;
        }
        self.prove(&goal)
    }

    fn fresh_var(&mut self, lo: i64, hi: i64) -> SymExpr {
        let id = VarId(u32::try_from(self.vars.len()).expect("var table fits u32"));
        self.vars.push(VarDecl {
            name: format!("_r{}", id.0),
            kind: VarKind::Loop,
            lo: SymExpr::Const(lo),
            hi: Some(SymExpr::Const(hi)),
            def: None,
        });
        SymExpr::Var(id)
    }

    /// Uniform sign of the atom's coefficient context, if determinable: all
    /// companion atoms in every occurrence must be variables known
    /// nonnegative (constant lower bound `>= 0`), and all coefficients must
    /// share a sign.
    fn context_sign(&self, p: &Poly, atom: &Atom) -> Option<ContextSign> {
        let mut sign: Option<ContextSign> = None;
        for (key, coeff) in p {
            if !key.contains(atom) {
                continue;
            }
            for companion in key.iter().filter(|a| *a != atom) {
                let Atom::Var(v) = companion else {
                    return None;
                };
                match &self.vars.get(v.index())?.lo {
                    SymExpr::Const(c) if *c >= 0 => {}
                    _ => return None,
                }
            }
            let this = if *coeff > 0 {
                ContextSign::Pos
            } else {
                ContextSign::Neg
            };
            match sign {
                None => sign = Some(this),
                Some(s) if s == this => {}
                Some(_) => return None,
            }
        }
        sign
    }

    // ---- variable elimination --------------------------------------------

    /// The goal is multilinear; split as `A·v + B` and check endpoints.
    fn eliminate_var(&mut self, p: &Poly, v: VarId) -> bool {
        let target = Atom::Var(v);
        let mut a_poly = Poly::new();
        let mut b_poly = Poly::new();
        for (key, coeff) in p {
            let mult = key.iter().filter(|a| **a == target).count();
            match mult {
                0 => {
                    b_poly.insert(key.clone(), *coeff);
                }
                1 => {
                    let rest: Vec<Atom> = key.iter().filter(|a| **a != target).cloned().collect();
                    *a_poly.entry(rest).or_insert(0) += coeff;
                }
                // Degree >= 2 in one variable: not multilinear, give up.
                _ => return false,
            }
        }
        let a_expr = poly_expr(&a_poly);
        let b_expr = poly_expr(&b_poly);
        let decl = match self.vars.get(v.index()) {
            Some(d) => d.clone(),
            None => return false,
        };
        let lo = decl.lo.clone();
        let at = |point: SymExpr| a_expr.clone() * point + b_expr.clone();
        match &decl.hi {
            Some(hi) => {
                // Affine in `v`: minimum over the (clamped, possibly
                // widened-to-nonempty) range is at an endpoint. Clamping the
                // upper endpoint to `max(lo, hi)` covers empty loop ranges:
                // the quantified set always contains the true range and
                // never dips below `lo`. Variables known nonempty (enclosing
                // loops, launch axes of an executing site) skip the clamp.
                let up = if self.nonempty.contains(&v) {
                    hi.clone()
                } else {
                    lo.clone().max(hi.clone())
                };
                // Sign-directed: a provably signed slope pins the minimum
                // to one endpoint, sparing the other (often messier) one.
                if self.prove(&a_expr) {
                    return self.prove(&at(lo));
                }
                if self.prove(&(SymExpr::Const(0) - a_expr.clone())) {
                    return self.prove(&at(up));
                }
                self.prove(&at(lo)) && self.prove(&at(up))
            }
            None => {
                // Unbounded above: nonnegative slope plus nonnegative value
                // at the lower endpoint.
                self.prove(&a_expr) && self.prove(&at(lo))
            }
        }
    }

    // ---- normalisation ---------------------------------------------------

    /// Normalise into the atom-polynomial form. `None` on coefficient
    /// overflow (treated as "not proved" upstream).
    fn normalize(&self, e: &SymExpr) -> Option<Poly> {
        normalize(e)
    }
}

fn normalize(e: &SymExpr) -> Option<Poly> {
    let p = poly_of(e)?;
    Some(p.into_iter().filter(|(_, c)| *c != 0).collect())
}

fn poly_of(e: &SymExpr) -> Option<Poly> {
    match e {
        SymExpr::Const(c) => Some(Poly::from([(Vec::new(), *c)])),
        SymExpr::Var(v) => Some(Poly::from([(vec![Atom::Var(*v)], 1)])),
        SymExpr::Add(a, b) => poly_add(poly_of(a)?, &poly_of(b)?, 1),
        SymExpr::Sub(a, b) => poly_add(poly_of(a)?, &poly_of(b)?, -1),
        SymExpr::Mul(a, b) => poly_mul(&poly_of(a)?, &poly_of(b)?),
        SymExpr::Min(a, b) => Some(fold_or_atom(a, b, true)),
        SymExpr::Max(a, b) => Some(fold_or_atom(a, b, false)),
        SymExpr::CeilDiv(n, d) => {
            if let SymExpr::Const(c) = **n {
                let q = c.div_euclid(*d) + i64::from(c.rem_euclid(*d) != 0);
                Some(Poly::from([(Vec::new(), q)]))
            } else {
                Some(Poly::from([(vec![Atom::CeilDiv((**n).clone(), *d)], 1)]))
            }
        }
    }
}

/// Whether two expressions have identical normal forms. (Syntactic up to
/// atom canonicalisation — `false` also covers "could not normalise".)
pub(crate) fn exprs_equal(a: &SymExpr, b: &SymExpr) -> bool {
    match (normalize(a), normalize(b)) {
        (Some(pa), Some(pb)) => pa == pb,
        _ => false,
    }
}

/// Decompose `e` as `base + Σ stride_v · v` over the given instance
/// variables.
///
/// Every monomial may mention at most one instance variable, exactly once,
/// and no compound (`min`/`max`/`ceil-div`) atom may reference one — the
/// strides and base must be instance-invariant. Returns `None` when the
/// expression is not of this shape. Zero strides are omitted.
pub(crate) fn linear_decompose(
    e: &SymExpr,
    instance: &[VarId],
) -> Option<(SymExpr, Vec<(VarId, SymExpr)>)> {
    let p = normalize(e)?;
    let mut base = Poly::new();
    let mut strides: BTreeMap<VarId, Poly> = BTreeMap::new();
    for (key, coeff) in &p {
        let mut hit: Option<VarId> = None;
        let mut rest: Vec<Atom> = Vec::new();
        for atom in key {
            match atom {
                Atom::Var(v) if instance.contains(v) => {
                    if hit.is_some() {
                        return None;
                    }
                    hit = Some(*v);
                }
                Atom::Var(_) => rest.push(atom.clone()),
                Atom::Min(a, b) | Atom::Max(a, b) => {
                    if mentions_any(a, instance) || mentions_any(b, instance) {
                        return None;
                    }
                    rest.push(atom.clone());
                }
                Atom::CeilDiv(n, _) => {
                    if mentions_any(n, instance) {
                        return None;
                    }
                    rest.push(atom.clone());
                }
            }
        }
        match hit {
            Some(v) => {
                *strides.entry(v).or_default().entry(rest).or_insert(0) += coeff;
            }
            None => {
                *base.entry(rest).or_insert(0) += coeff;
            }
        }
    }
    let strides = strides
        .into_iter()
        .filter_map(|(v, sp)| {
            let sp: Poly = sp.into_iter().filter(|(_, c)| *c != 0).collect();
            if sp.is_empty() {
                None
            } else {
                Some((v, poly_expr(&sp)))
            }
        })
        .collect();
    Some((poly_expr(&base), strides))
}

fn mentions_any(e: &SymExpr, vars: &[VarId]) -> bool {
    let mut seen = Vec::new();
    e.collect_vars(&mut seen);
    seen.iter().any(|v| vars.contains(v))
}

/// Constant-fold `min`/`max` of two constants, else build the atom with
/// operands in canonical order (so syntactically commuted subterms unify).
fn fold_or_atom(a: &SymExpr, b: &SymExpr, is_min: bool) -> Poly {
    if let (SymExpr::Const(x), SymExpr::Const(y)) = (a, b) {
        let v = if is_min { (*x).min(*y) } else { (*x).max(*y) };
        return Poly::from([(Vec::new(), v)]);
    }
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let atom = if is_min {
        Atom::Min(lo.clone(), hi.clone())
    } else {
        Atom::Max(lo.clone(), hi.clone())
    };
    Poly::from([(vec![atom], 1)])
}

fn poly_add(mut acc: Poly, other: &Poly, scale: i64) -> Option<Poly> {
    for (key, coeff) in other {
        let slot = acc.entry(key.clone()).or_insert(0);
        *slot = slot.checked_add(coeff.checked_mul(scale)?)?;
    }
    Some(acc)
}

fn poly_mul(a: &Poly, b: &Poly) -> Option<Poly> {
    let mut out = Poly::new();
    for (ka, ca) in a {
        for (kb, cb) in b {
            let mut key: Vec<Atom> = ka.iter().chain(kb.iter()).cloned().collect();
            key.sort();
            let slot = out.entry(key).or_insert(0);
            *slot = slot.checked_add(ca.checked_mul(*cb)?)?;
        }
    }
    Some(out)
}

fn opt_add(a: Option<i64>, b: Option<i64>) -> Option<i64> {
    a?.checked_add(b?)
}

fn opt_sub(a: Option<i64>, b: Option<i64>) -> Option<i64> {
    a?.checked_sub(b?)
}

fn ceil_i64(v: i64, d: i64) -> i64 {
    v.div_euclid(d) + i64::from(v.rem_euclid(d) != 0)
}

/// Interval product via extended corner arithmetic. `None` endpoints stand
/// for the infinity of their side; overflow widens to unbounded.
fn mul_ival(
    a: (Option<i64>, Option<i64>),
    b: (Option<i64>, Option<i64>),
) -> (Option<i64>, Option<i64>) {
    #[derive(Clone, Copy)]
    enum E {
        NegInf,
        Fin(i64),
        PosInf,
    }
    fn mul(x: E, y: E) -> Option<E> {
        use E::*;
        Some(match (x, y) {
            (Fin(a), Fin(b)) => match a.checked_mul(b) {
                Some(v) => Fin(v),
                None => return None,
            },
            // An exactly-zero corner annihilates even an infinite one.
            (Fin(0), _) | (_, Fin(0)) => Fin(0),
            (PosInf, PosInf) | (NegInf, NegInf) => PosInf,
            (PosInf, NegInf) | (NegInf, PosInf) => NegInf,
            (PosInf, Fin(c)) | (Fin(c), PosInf) => {
                if c > 0 {
                    PosInf
                } else {
                    NegInf
                }
            }
            (NegInf, Fin(c)) | (Fin(c), NegInf) => {
                if c > 0 {
                    NegInf
                } else {
                    PosInf
                }
            }
        })
    }
    let ca = [a.0.map_or(E::NegInf, E::Fin), a.1.map_or(E::PosInf, E::Fin)];
    let cb = [b.0.map_or(E::NegInf, E::Fin), b.1.map_or(E::PosInf, E::Fin)];
    let mut lb: Option<i64> = None;
    let mut ub: Option<i64> = None;
    let mut lb_inf = false;
    let mut ub_inf = false;
    for x in ca {
        for y in cb {
            match mul(x, y) {
                None => return (None, None),
                Some(E::NegInf) => lb_inf = true,
                Some(E::PosInf) => ub_inf = true,
                Some(E::Fin(v)) => {
                    lb = Some(lb.map_or(v, |c| c.min(v)));
                    ub = Some(ub.map_or(v, |c| c.max(v)));
                }
            }
        }
    }
    (
        if lb_inf { None } else { lb },
        if ub_inf { None } else { ub },
    )
}

/// Highest-id variable that occurs only outside compound atoms (so its
/// endpoint elimination is exact) and in which the poly is multilinear.
/// `None` when the poly has no compound atoms — the plain path handles it.
fn preferred_var(p: &Poly) -> Option<VarId> {
    let mut inside = Vec::new();
    let mut has_compound = false;
    for key in p.keys() {
        for atom in key {
            match atom {
                Atom::Var(_) => {}
                Atom::Min(a, b) | Atom::Max(a, b) => {
                    has_compound = true;
                    a.collect_vars(&mut inside);
                    b.collect_vars(&mut inside);
                }
                Atom::CeilDiv(n, _) => {
                    has_compound = true;
                    n.collect_vars(&mut inside);
                }
            }
        }
    }
    if !has_compound {
        return None;
    }
    p.keys()
        .flatten()
        .filter_map(|a| match a {
            Atom::Var(v) if !inside.contains(v) => Some(*v),
            _ => None,
        })
        .filter(|v| {
            p.keys()
                .all(|key| key.iter().filter(|a| **a == Atom::Var(*v)).count() <= 1)
        })
        .max()
}

fn compound_atoms(p: &Poly) -> Vec<Atom> {
    let mut out: Vec<Atom> = Vec::new();
    for key in p.keys() {
        for atom in key {
            if !matches!(atom, Atom::Var(_)) && !out.contains(atom) {
                out.push(atom.clone());
            }
        }
    }
    out
}

fn highest_var(p: &Poly) -> Option<VarId> {
    p.keys()
        .flatten()
        .filter_map(|a| match a {
            Atom::Var(v) => Some(*v),
            _ => None,
        })
        .max()
}

fn monomial_expr<'a>(atoms: impl Iterator<Item = &'a Atom>) -> SymExpr {
    let mut out = SymExpr::Const(1);
    for a in atoms {
        out = out * a.to_expr();
    }
    out
}

/// Rebuild an expression from a polynomial.
fn poly_expr(p: &Poly) -> SymExpr {
    let mut out = SymExpr::Const(0);
    for (key, coeff) in p {
        out = out + SymExpr::Const(*coeff) * monomial_expr(key.iter());
    }
    out
}

/// Substitute every occurrence of `atom` in `p` by `replacement`, rebuilding
/// the goal expression (pointwise-faithful: all occurrences move together).
fn subst_atom(p: &Poly, atom: &Atom, replacement: &SymExpr) -> SymExpr {
    let mut out = SymExpr::Const(0);
    for (key, coeff) in p {
        let mut term = SymExpr::Const(*coeff);
        for a in key {
            let factor = if a == atom {
                replacement.clone()
            } else {
                a.to_expr()
            };
            term = term * factor;
        }
        out = out + term;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sim::PlanBuilder;

    /// A variable table with `m, n, nnz, k >= 1` and nothing else.
    fn shape_vars() -> (Vec<VarDecl>, [SymExpr; 4]) {
        let mut b = PlanBuilder::new("t", "");
        let m = b.param("m", 1);
        let n = b.param("n", 1);
        let nnz = b.param("nnz", 1);
        let k = b.param("k", 1);
        (b.build().vars, [m, n, nnz, k])
    }

    #[test]
    fn constants_and_params() {
        let (vars, [m, _, _, k]) = shape_vars();
        let mut pv = Prover::new(&vars);
        assert!(pv.prove_nonneg(&SymExpr::Const(0)));
        assert!(pv.prove_nonneg(&SymExpr::Const(3)));
        assert!(!pv.prove_nonneg(&SymExpr::Const(-1)));
        assert!(pv.prove_nonneg(&(m.clone() - 1)));
        assert!(!pv.prove_nonneg(&(m.clone() - 2)));
        assert!(pv.prove_nonneg(&(m.clone() * k)));
    }

    #[test]
    fn min_max_rules() {
        let (vars, [m, n, _, _]) = shape_vars();
        let mut pv = Prover::new(&vars);
        // Pointwise both-branch: min(m, n) >= 1.
        assert!(pv.prove_nonneg(&(m.clone().min(n.clone()) - 1)));
        // Negative context either-branch: m - min(m, n) >= 0.
        assert!(pv.prove_nonneg(&(m.clone() - m.clone().min(n.clone()))));
        // max is an upper bound of both operands.
        assert!(pv.prove_nonneg(&(m.clone().max(n.clone()) - m.clone())));
        // Not provable: min(m, n) never exceeds m, so min(m, n) - m - 1 < 0.
        assert!(!pv.prove_nonneg(&(m.clone().min(n.clone()) - m - 1)));
    }

    #[test]
    fn ceil_div_identities() {
        let (vars, [m, _, nnz, _]) = shape_vars();
        let mut pv = Prover::new(&vars);
        // d * ceil(x/d) >= x
        let q = nnz.clone().ceil_div(64);
        assert!(pv.prove_nonneg(&(SymExpr::Const(64) * q.clone() - nnz.clone())));
        // d * ceil(x/d) <= x + d - 1
        assert!(
            pv.prove_nonneg(&(nnz.clone() + SymExpr::Const(63) - SymExpr::Const(64) * q.clone()))
        );
        // ceil(x/d) >= 1 for x >= 1: the free-remainder relaxation drops
        // the covariance between x and r, but interval propagation carries
        // the lower bound straight through the division.
        assert!(pv.prove_nonneg(&(q.clone() - 1)));
        assert!(!pv.prove_nonneg(&(q.clone() - 2)));
        // A ceil-div atom multiplied by a *variable* still resolves (the
        // whole goal is scaled by the divisor): m * 64 * ceil(nnz/64)
        // >= m * nnz.
        assert!(pv.prove_nonneg(&(m.clone() * SymExpr::Const(64) * q - m * nnz)));
    }

    #[test]
    fn bounded_var_endpoints() {
        let mut b = PlanBuilder::new("t", "");
        let nnz = b.param("nnz", 1);
        let mut l = b.launch("l");
        let w = l.axis("w", nnz.clone().ceil_div(64));
        l.done();
        let vars = b.build().vars;
        let mut pv = Prover::new(&vars);
        // 64 * w <= 64 * (ceil(nnz/64) - 1) <= nnz - 1… loosely: start
        // stays within the allocation: 64*w <= nnz - 1.
        let start = SymExpr::Const(64) * w.clone();
        assert!(pv.prove_nonneg(&(nnz.clone() - start.clone() - 1)));
        // And the clamped tail length is nonnegative and positive-capped.
        let len = SymExpr::Const(64).min(nnz.clone() - start.clone());
        assert!(pv.prove_nonneg(&len.clone()));
        assert!(pv.prove_nonneg(&(nnz - start - len)));
        // An overrun by one refutes (not provable).
        let (vars2, [_, _, nnz2, _]) = shape_vars();
        let mut pv2 = Prover::new(&vars2);
        assert!(!pv2.prove_nonneg(&(nnz2.clone() - SymExpr::Const(64) * nnz2.ceil_div(64))));
        let _ = w;
    }

    #[test]
    fn empty_loop_ranges_do_not_block_proofs() {
        // t ∈ [0, ceil(L/8) - 1] where L (a data var) may be 0: the range is
        // then empty and naive endpoint substitution would demand
        // `start - 8 >= 0`. The clamped endpoint keeps this provable.
        let mut b = PlanBuilder::new("t", "");
        let nnz = b.param("nnz", 1);
        let mut l = b.launch("l");
        let start = l.data(
            "start",
            SymExpr::Const(0),
            nnz.clone(),
            hpsparse_sim::Distinct::No,
            0,
        );
        let len = l.data(
            "len",
            SymExpr::Const(0),
            nnz.clone() - start.clone(),
            hpsparse_sim::Distinct::No,
            0,
        );
        let t = l.begin_for("t", len.clone().ceil_div(8));
        l.end_for();
        l.done();
        let vars = b.build().vars;
        let mut pv = Prover::new(&vars);
        let i = start.clone() + SymExpr::Const(8) * t.clone();
        let tile = SymExpr::Const(8).min(len.clone() - SymExpr::Const(8) * t.clone());
        // Offsets stay in [0, nnz):
        assert!(pv.prove_nonneg(&i));
        assert!(pv.prove_nonneg(&(nnz.clone() - i.clone() - tile.clone())));
        // The clamped tile length stays nonnegative, even at the clamped
        // upper endpoint of an empty range (t = 0, len = 0).
        assert!(pv.prove_nonneg(&tile));
    }

    #[test]
    fn unbounded_param_needs_nonneg_slope() {
        let (vars, [m, _, _, k]) = shape_vars();
        let mut pv = Prover::new(&vars);
        // (m - 1) * k >= 0: slope in k is m - 1 >= 0, value at k = 1 is
        // m - 1 >= 0.
        assert!(pv.prove_nonneg(&((m.clone() - 1) * k.clone())));
        // (1 - m) * k has negative slope for m >= 2: not provable.
        assert!(!pv.prove_nonneg(&((SymExpr::Const(1) - m) * k)));
    }
}
