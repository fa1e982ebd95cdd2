//! Types of the mini-C dialect.

use crate::ast::Expr;

/// A mini-C type.
///
/// `long` is 64-bit (LP64, as on the Jetson's AArch64 Linux); `int` is
/// 32-bit; pointers are 64-bit tagged guest addresses.
#[derive(Clone, Debug, PartialEq)]
pub enum Ty {
    /// Placeholder before semantic analysis.
    Unknown,
    Void,
    Char,
    Int,
    Long,
    Float,
    Double,
    Ptr(Box<Ty>),
    Array(Box<Ty>, ArrayLen),
    /// CUDA `dim3` (x, y, z as unsigned ints); a builtin aggregate.
    Dim3,
}

/// Array extent: a compile-time constant or a runtime expression (VLA-style
/// parameter such as `float A[n][n]`).
#[derive(Clone, Debug)]
pub enum ArrayLen {
    Const(u64),
    /// Evaluated at run time in the enclosing scope.
    Expr(Box<Expr>),
    /// `[]` — unspecified outermost dimension (decays to pointer).
    Unspec,
}

impl PartialEq for ArrayLen {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ArrayLen::Const(a), ArrayLen::Const(b)) => a == b,
            (ArrayLen::Unspec, ArrayLen::Unspec) => true,
            // Runtime extents are not statically comparable.
            _ => false,
        }
    }
}

impl Ty {
    /// Size in bytes; `None` if unsized or the size is only known at run
    /// time (VLA).
    pub fn size(&self) -> Option<u64> {
        match self {
            Ty::Unknown | Ty::Void => None,
            Ty::Char => Some(1),
            Ty::Int => Some(4),
            Ty::Long => Some(8),
            Ty::Float => Some(4),
            Ty::Double => Some(8),
            Ty::Ptr(_) => Some(8),
            Ty::Array(elem, ArrayLen::Const(n)) => Some(elem.size()? * n),
            Ty::Array(..) => None,
            Ty::Dim3 => Some(12),
        }
    }

    /// Natural alignment in bytes.
    pub fn align(&self) -> u64 {
        match self {
            Ty::Unknown | Ty::Void => 1,
            Ty::Char => 1,
            Ty::Int | Ty::Float => 4,
            Ty::Long | Ty::Double | Ty::Ptr(_) => 8,
            Ty::Array(elem, _) => elem.align(),
            Ty::Dim3 => 4,
        }
    }

    pub fn is_integer(&self) -> bool {
        matches!(self, Ty::Char | Ty::Int | Ty::Long)
    }

    pub fn is_float(&self) -> bool {
        matches!(self, Ty::Float | Ty::Double)
    }

    pub fn is_ptr(&self) -> bool {
        matches!(self, Ty::Ptr(_))
    }

    pub fn is_array(&self) -> bool {
        matches!(self, Ty::Array(..))
    }

    /// Element type of a pointer or array.
    pub fn pointee(&self) -> Option<&Ty> {
        match self {
            Ty::Ptr(t) => Some(t),
            Ty::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// The type this expression has after array-to-pointer decay.
    pub fn decayed(&self) -> Ty {
        match self {
            Ty::Array(elem, _) => Ty::Ptr(elem.clone()),
            other => other.clone(),
        }
    }

    /// Result of the usual arithmetic conversions between two types.
    pub fn usual_arith(a: &Ty, b: &Ty) -> Ty {
        use Ty::*;
        match (a, b) {
            (Double, _) | (_, Double) => Double,
            (Float, _) | (_, Float) => Float,
            (Long, _) | (_, Long) => Long,
            _ => Int,
        }
    }
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ty::Unknown => write!(f, "<unknown>"),
            Ty::Void => write!(f, "void"),
            Ty::Char => write!(f, "char"),
            Ty::Int => write!(f, "int"),
            Ty::Long => write!(f, "long"),
            Ty::Float => write!(f, "float"),
            Ty::Double => write!(f, "double"),
            Ty::Ptr(t) => write!(f, "{t}*"),
            Ty::Array(t, ArrayLen::Const(n)) => write!(f, "{t}[{n}]"),
            Ty::Array(t, ArrayLen::Expr(_)) => write!(f, "{t}[<expr>]"),
            Ty::Array(t, ArrayLen::Unspec) => write!(f, "{t}[]"),
            Ty::Dim3 => write!(f, "dim3"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_lp64() {
        assert_eq!(Ty::Int.size(), Some(4));
        assert_eq!(Ty::Long.size(), Some(8));
        assert_eq!(Ty::Ptr(Box::new(Ty::Float)).size(), Some(8));
        assert_eq!(Ty::Array(Box::new(Ty::Float), ArrayLen::Const(10)).size(), Some(40));
        assert_eq!(
            Ty::Array(
                Box::new(Ty::Array(Box::new(Ty::Double), ArrayLen::Const(3))),
                ArrayLen::Const(2)
            )
            .size(),
            Some(48)
        );
    }

    #[test]
    fn arithmetic_conversions() {
        assert_eq!(Ty::usual_arith(&Ty::Int, &Ty::Float), Ty::Float);
        assert_eq!(Ty::usual_arith(&Ty::Float, &Ty::Double), Ty::Double);
        assert_eq!(Ty::usual_arith(&Ty::Char, &Ty::Int), Ty::Int);
        assert_eq!(Ty::usual_arith(&Ty::Long, &Ty::Int), Ty::Long);
    }

    #[test]
    fn decay() {
        let a = Ty::Array(Box::new(Ty::Float), ArrayLen::Const(8));
        assert_eq!(a.decayed(), Ty::Ptr(Box::new(Ty::Float)));
        assert_eq!(Ty::Int.decayed(), Ty::Int);
    }
}
