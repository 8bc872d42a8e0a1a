//! Architectural register names.

use std::fmt;

/// The two architectural register files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// 64-bit integer registers `r0..r31`; `r0` reads as zero.
    Int,
    /// 64-bit floating-point registers `f0..f31`.
    Fp,
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Fp => write!(f, "fp"),
        }
    }
}

/// Number of architectural registers in each class.
pub const NUM_ARCH_REGS: usize = 32;

/// An integer architectural register, `Reg(0)` through `Reg(31)`.
///
/// `Reg(0)` ([`Reg::ZERO`]) is hardwired to zero: writes are discarded and
/// reads always return 0, as in MIPS/RISC-V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// The hardwired-zero register `r0`.
    pub const ZERO: Reg = Reg(0);
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A floating-point architectural register, `FReg(0)` through `FReg(31)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FReg(pub u8);

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A class-tagged architectural register, the form used inside [`Inst`].
///
/// [`Inst`]: crate::Inst
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchReg {
    /// Which register file the register lives in.
    pub class: RegClass,
    /// Register index within the file, `0..32`.
    pub index: u8,
}

impl ArchReg {
    /// Creates an integer register reference.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn int(index: u8) -> ArchReg {
        assert!((index as usize) < NUM_ARCH_REGS, "integer register index {index} out of range");
        ArchReg { class: RegClass::Int, index }
    }

    /// Creates a floating-point register reference.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn fp(index: u8) -> ArchReg {
        assert!((index as usize) < NUM_ARCH_REGS, "fp register index {index} out of range");
        ArchReg { class: RegClass::Fp, index }
    }

    /// Returns true for the hardwired-zero integer register `r0`.
    pub fn is_zero(&self) -> bool {
        self.class == RegClass::Int && self.index == 0
    }

    /// Flat index over both files: int regs map to `0..32`, fp to `32..64`.
    ///
    /// Useful for rename tables that cover both classes with one array.
    pub fn flat_index(&self) -> usize {
        match self.class {
            RegClass::Int => self.index as usize,
            RegClass::Fp => NUM_ARCH_REGS + self.index as usize,
        }
    }
}

impl From<Reg> for ArchReg {
    fn from(r: Reg) -> ArchReg {
        ArchReg::int(r.0)
    }
}

impl From<FReg> for ArchReg {
    fn from(r: FReg) -> ArchReg {
        ArchReg::fp(r.0)
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "r{}", self.index),
            RegClass::Fp => write!(f, "f{}", self.index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_identity() {
        assert!(ArchReg::from(Reg::ZERO).is_zero());
        assert!(!ArchReg::from(Reg(1)).is_zero());
        assert!(!ArchReg::fp(0).is_zero(), "f0 is a normal register");
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "a set model in test code; only its length is read"
    )]
    fn flat_index_is_injective() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..32 {
            assert!(seen.insert(ArchReg::int(i).flat_index()));
            assert!(seen.insert(ArchReg::fp(i).flat_index()));
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_register_panics() {
        let _ = ArchReg::int(32);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ArchReg::int(5).to_string(), "r5");
        assert_eq!(ArchReg::fp(7).to_string(), "f7");
        assert_eq!(Reg(3).to_string(), "r3");
        assert_eq!(FReg(9).to_string(), "f9");
    }
}
