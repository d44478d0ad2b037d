//! CPU architectural state.

use mb_isa::Reg;

/// MicroBlaze architectural state: 32 GPRs (r0 hard-wired to zero), the
/// program counter, the MSR carry flag, and the `imm`-prefix register.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cpu {
    regs: [u32; 32],
    pc: u32,
    carry: bool,
    imm_prefix: Option<u16>,
}

impl Cpu {
    /// Creates a CPU with all registers zero and PC at 0.
    #[must_use]
    pub fn new() -> Self {
        Cpu { regs: [0; 32], pc: 0, carry: false, imm_prefix: None }
    }

    /// Reads a register; `r0` always reads zero.
    ///
    /// Invariant: `regs[0]` is kept at zero by [`set_reg`](Cpu::set_reg),
    /// so reads need no special case on the simulator's hottest path.
    /// The `& 31` is a no-op for every constructible [`Reg`] (numbers
    /// are `0..=31`) but lets the compiler drop the bounds check — one
    /// branch per operand read, two to three times per simulated
    /// instruction.
    #[inline]
    #[must_use]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index() & 31]
    }

    /// Writes a register; writes to `r0` are ignored (the slot is
    /// re-zeroed unconditionally, which is branchless). The `& 31`
    /// drops the bounds check exactly as in [`reg`](Cpu::reg).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.index() & 31] = value;
        self.regs[0] = 0;
    }

    /// The program counter.
    #[must_use]
    #[inline]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter.
    #[inline]
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// The MSR carry flag.
    #[must_use]
    pub fn carry(&self) -> bool {
        self.carry
    }

    /// Sets the MSR carry flag.
    pub fn set_carry(&mut self, carry: bool) {
        self.carry = carry;
    }

    /// Installs an `imm` prefix supplying the upper 16 bits of the next
    /// Type B immediate.
    pub fn set_imm_prefix(&mut self, hi: i16) {
        self.imm_prefix = Some(hi as u16);
    }

    /// Combines a 16-bit instruction immediate with any pending `imm`
    /// prefix (consuming it); without a prefix the immediate is
    /// sign-extended.
    #[inline]
    pub fn take_imm(&mut self, imm16: i16) -> u32 {
        match self.imm_prefix.take() {
            Some(hi) => (u32::from(hi) << 16) | u32::from(imm16 as u16),
            None => imm16 as i32 as u32,
        }
    }

    /// Clears any pending `imm` prefix (instructions other than Type B
    /// consume the prefix without using it).
    #[inline]
    pub fn clear_imm_prefix(&mut self) {
        self.imm_prefix = None;
    }

    /// Whether an `imm` prefix is pending.
    #[must_use]
    pub fn has_imm_prefix(&self) -> bool {
        self.imm_prefix.is_some()
    }

    /// Resets registers, PC, carry, and the prefix register.
    pub fn reset(&mut self) {
        *self = Cpu::new();
    }
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r0_is_hardwired_zero() {
        let mut c = Cpu::new();
        c.set_reg(Reg::R0, 55);
        assert_eq!(c.reg(Reg::R0), 0);
        c.set_reg(Reg::R1, 55);
        assert_eq!(c.reg(Reg::R1), 55);
    }

    #[test]
    fn imm_prefix_concatenates_once() {
        let mut c = Cpu::new();
        c.set_imm_prefix(0x1234u16 as i16);
        assert!(c.has_imm_prefix());
        assert_eq!(c.take_imm(0x5678), 0x1234_5678);
        // Consumed: next immediate sign-extends.
        assert_eq!(c.take_imm(-1), 0xFFFF_FFFF);
    }

    #[test]
    fn imm_prefix_with_negative_low_half_is_not_sign_extended() {
        let mut c = Cpu::new();
        c.set_imm_prefix(0x0001u16 as i16);
        // 0x0001:0x8000 must be 0x0001_8000, not 0x0000_8000 or sign mess.
        assert_eq!(c.take_imm(0x8000u16 as i16), 0x0001_8000);
    }

    #[test]
    fn clear_imm_prefix_discards() {
        let mut c = Cpu::new();
        c.set_imm_prefix(7);
        c.clear_imm_prefix();
        assert_eq!(c.take_imm(1), 1);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut c = Cpu::new();
        c.set_reg(Reg::R5, 9);
        c.set_pc(0x40);
        c.set_carry(true);
        c.reset();
        assert_eq!(c, Cpu::new());
    }
}
