//! Integer index expressions for mappings and input references.
//!
//! The paper writes its example mapping as
//!
//! ```text
//! Map H(i,j) at i % P   time floor(i/P)*N + j
//! ```
//!
//! so the expression language needs: index variables, integer constants,
//! addition/subtraction, multiplication *by constants* (affine), floor
//! division by positive constants, and modulo by positive constants.
//! [`IdxExpr`] is that language. Division and modulo use Euclidean
//! semantics (`(-1).div_euclid(4) == -1`, `(-1).rem_euclid(4) == 3`) so
//! that block/cyclic placements behave sensibly on boundary offsets.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Rem, Sub};

/// An integer index expression over domain index variables `i0, i1, …`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IdxExpr {
    /// An integer constant.
    Const(i64),
    /// The `k`-th domain index variable (0 = `i`, 1 = `j`, …).
    Var(usize),
    /// Sum of two expressions.
    Add(Box<IdxExpr>, Box<IdxExpr>),
    /// Difference of two expressions.
    Sub(Box<IdxExpr>, Box<IdxExpr>),
    /// Product by an integer constant (keeps the language affine-ish).
    MulC(Box<IdxExpr>, i64),
    /// Floor (Euclidean) division by a positive constant.
    DivC(Box<IdxExpr>, i64),
    /// Euclidean modulo by a positive constant.
    ModC(Box<IdxExpr>, i64),
}

#[allow(clippy::should_implement_trait)] // div is a floor-division builder, deliberately named
impl IdxExpr {
    /// The variable `i` (index 0).
    pub fn i() -> IdxExpr {
        IdxExpr::Var(0)
    }

    /// The variable `j` (index 1).
    pub fn j() -> IdxExpr {
        IdxExpr::Var(1)
    }

    /// The variable `k` (index 2).
    pub fn k() -> IdxExpr {
        IdxExpr::Var(2)
    }

    /// An integer constant.
    pub fn c(v: i64) -> IdxExpr {
        IdxExpr::Const(v)
    }

    /// Floor division by a positive constant.
    pub fn div(self, d: i64) -> IdxExpr {
        assert!(d > 0, "division modulus must be positive, got {d}");
        IdxExpr::DivC(Box::new(self), d)
    }

    /// Evaluate at a concrete index point.
    ///
    /// Panics if the expression references a variable beyond `idx.len()`
    /// (a construction bug, not a data condition).
    pub fn eval(&self, idx: &[i64]) -> i64 {
        match self {
            IdxExpr::Const(v) => *v,
            IdxExpr::Var(k) => idx[*k],
            IdxExpr::Add(a, b) => a.eval(idx) + b.eval(idx),
            IdxExpr::Sub(a, b) => a.eval(idx) - b.eval(idx),
            IdxExpr::MulC(a, c) => a.eval(idx) * c,
            IdxExpr::DivC(a, d) => a.eval(idx).div_euclid(*d),
            IdxExpr::ModC(a, m) => a.eval(idx).rem_euclid(*m),
        }
    }

    /// [`Self::eval`] at every point of a column-major index arena at
    /// once: column `k` of `cols` (`cols[k*n..(k+1)*n]`, `n =
    /// out.len()`) holds every point's variable `k`, and `out[p]` gets
    /// the value at point `p`. Each operator runs once, as one loop over
    /// the column, with the same integer operation `eval` applies per
    /// point, so every value (and every overflow or division panic) is
    /// `eval`'s. `spare` must hold [`Self::spare_columns`] columns.
    ///
    /// Panics if the expression references a variable past the arena's
    /// columns.
    pub(crate) fn eval_columns(&self, cols: &[i64], out: &mut [i64], spare: &mut [i64]) {
        let n = out.len();
        match self {
            IdxExpr::Const(v) => out.fill(*v),
            IdxExpr::Var(k) => out.copy_from_slice(&cols[k * n..(k + 1) * n]),
            IdxExpr::Add(a, b) | IdxExpr::Sub(a, b) => {
                a.eval_columns(cols, out, spare);
                let (tmp, rest) = spare.split_at_mut(n);
                let rhs: &[i64] = match **b {
                    IdxExpr::Var(k) => &cols[k * n..(k + 1) * n],
                    _ => {
                        b.eval_columns(cols, tmp, rest);
                        tmp
                    }
                };
                if matches!(self, IdxExpr::Add(..)) {
                    out.iter_mut().zip(rhs).for_each(|(o, &r)| *o += r);
                } else {
                    out.iter_mut().zip(rhs).for_each(|(o, &r)| *o -= r);
                }
            }
            IdxExpr::MulC(a, c) => {
                a.eval_columns(cols, out, spare);
                out.iter_mut().for_each(|o| *o *= c);
            }
            IdxExpr::DivC(a, d) => {
                a.eval_columns(cols, out, spare);
                out.iter_mut().for_each(|o| *o = o.div_euclid(*d));
            }
            IdxExpr::ModC(a, m) => {
                a.eval_columns(cols, out, spare);
                out.iter_mut().for_each(|o| *o = o.rem_euclid(*m));
            }
        }
    }

    /// Scratch columns [`Self::eval_columns`] needs besides its output:
    /// one per pending left operand of a nested sum or difference.
    pub(crate) fn spare_columns(&self) -> usize {
        match self {
            IdxExpr::Const(_) | IdxExpr::Var(_) => 0,
            IdxExpr::Add(a, b) | IdxExpr::Sub(a, b) => a.spare_columns().max(1 + b.spare_columns()),
            IdxExpr::MulC(a, _) | IdxExpr::DivC(a, _) | IdxExpr::ModC(a, _) => a.spare_columns(),
        }
    }

    /// Highest variable index referenced, or `None` for constant
    /// expressions.
    pub fn max_var(&self) -> Option<usize> {
        match self {
            IdxExpr::Const(_) => None,
            IdxExpr::Var(k) => Some(*k),
            IdxExpr::Add(a, b) | IdxExpr::Sub(a, b) => a.max_var().max(b.max_var()),
            IdxExpr::MulC(a, _) | IdxExpr::DivC(a, _) | IdxExpr::ModC(a, _) => a.max_var(),
        }
    }
}

impl Add for IdxExpr {
    type Output = IdxExpr;
    fn add(self, rhs: IdxExpr) -> IdxExpr {
        IdxExpr::Add(Box::new(self), Box::new(rhs))
    }
}

impl Sub for IdxExpr {
    type Output = IdxExpr;
    fn sub(self, rhs: IdxExpr) -> IdxExpr {
        IdxExpr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl Mul<i64> for IdxExpr {
    type Output = IdxExpr;
    fn mul(self, rhs: i64) -> IdxExpr {
        IdxExpr::MulC(Box::new(self), rhs)
    }
}

impl Rem<i64> for IdxExpr {
    type Output = IdxExpr;
    fn rem(self, rhs: i64) -> IdxExpr {
        assert!(rhs > 0, "modulus must be positive, got {rhs}");
        IdxExpr::ModC(Box::new(self), rhs)
    }
}

impl fmt::Display for IdxExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdxExpr::Const(v) => write!(f, "{v}"),
            IdxExpr::Var(0) => write!(f, "i"),
            IdxExpr::Var(1) => write!(f, "j"),
            IdxExpr::Var(2) => write!(f, "k"),
            IdxExpr::Var(n) => write!(f, "i{n}"),
            IdxExpr::Add(a, b) => write!(f, "({a} + {b})"),
            IdxExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            IdxExpr::MulC(a, c) => write!(f, "{a}*{c}"),
            IdxExpr::DivC(a, d) => write!(f, "floor({a}/{d})"),
            IdxExpr::ModC(a, m) => write!(f, "({a} % {m})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn papers_mapping_expressions() {
        // place = i % P, time = floor(i/P)*N + j, with P=4, N=16.
        let p = 4;
        let n = 16;
        let place = IdxExpr::i() % p;
        let time = IdxExpr::i().div(p) * n + IdxExpr::j();
        assert_eq!(place.eval(&[0, 0]), 0);
        assert_eq!(place.eval(&[5, 0]), 1);
        assert_eq!(place.eval(&[7, 3]), 3);
        assert_eq!(time.eval(&[0, 0]), 0);
        assert_eq!(time.eval(&[3, 5]), 5); // block 0
        assert_eq!(time.eval(&[4, 5]), 21); // block 1: 16 + 5
    }

    #[test]
    fn euclidean_semantics_for_negatives() {
        let e = IdxExpr::i() % 4;
        assert_eq!(e.eval(&[-1]), 3);
        let d = IdxExpr::i().div(4);
        assert_eq!(d.eval(&[-1]), -1);
        assert_eq!(d.eval(&[-4]), -1);
        assert_eq!(d.eval(&[-5]), -2);
    }

    #[test]
    fn div_mod_identity() {
        // a == floor(a/d)*d + a%d for Euclidean div/mod.
        for a in -20..20 {
            for d in [1_i64, 3, 7] {
                let q = IdxExpr::i().div(d).eval(&[a]);
                let r = (IdxExpr::i() % d).eval(&[a]);
                assert_eq!(q * d + r, a);
                assert!((0..d).contains(&r));
            }
        }
    }

    #[test]
    fn max_var_tracks_references() {
        assert_eq!(IdxExpr::c(3).max_var(), None);
        assert_eq!(IdxExpr::i().max_var(), Some(0));
        let e = IdxExpr::i().div(2) * 10 + IdxExpr::k();
        assert_eq!(e.max_var(), Some(2));
    }

    #[test]
    fn display_round_trips_structure() {
        let time = IdxExpr::i().div(4) * 16 + IdxExpr::j();
        assert_eq!(format!("{time}"), "(floor(i/4)*16 + j)");
        let place = IdxExpr::i() % 4;
        assert_eq!(format!("{place}"), "(i % 4)");
    }

    #[test]
    #[should_panic(expected = "modulus must be positive")]
    fn zero_modulus_rejected() {
        let _ = IdxExpr::i() % 0;
    }

    #[test]
    #[should_panic(expected = "division modulus must be positive")]
    fn zero_divisor_rejected() {
        let _ = IdxExpr::i().div(0);
    }

    #[test]
    fn sub_and_nested() {
        let e = (IdxExpr::i() - IdxExpr::j()) % 5;
        assert_eq!(e.eval(&[3, 7]), 1); // (-4).rem_euclid(5) == 1
    }
}
