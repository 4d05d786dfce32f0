//! The extension ISA's control registers and what its instructions do
//! to them.
//!
//! The extension ISA gives the controller four loop counters
//! (`ldc`/`djnz`) and four offset registers (`ldo`/`addo`, and the
//! post-increment of `mvtcr`/`mvfcr`). [`ControlState`] is the one
//! definition of those instructions: the controller FSM executes it as
//! it dispatches, and a [`Walk`] runs it over a whole program from reset
//! for the static analyses (the verifier's bank-bounds walk and
//! [`Program::static_words_transferred`]).

use crate::instruction::Instruction;
use crate::operands::{ProgAddr, MAX_OFFSET, NUM_COUNTERS, NUM_OFFSET_REGS};
use crate::program::Program;
use crate::transfer::{Transfer, TransferOffset};

/// The most instructions a [`Walk`] executes before it gives up.
pub const WALK_BUDGET: u64 = 2_000_000;

/// Where control goes after an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// On to the next instruction.
    Next,
    /// A taken `djnz`: on to its target.
    Jump(ProgAddr),
    /// `eop` or `halt`: the program is over.
    Stop,
}

/// The loop counters and offset registers; the default is their reset
/// value, all zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlState {
    /// Loop counters `R0`..`R3`.
    pub counters: [u16; NUM_COUNTERS as usize],
    /// Offset registers `O0`..`O3`.
    pub offsets: [u16; NUM_OFFSET_REGS as usize],
}

impl ControlState {
    /// Applies `insn` to the registers and says where control goes.
    ///
    /// `ldc` and `ldo` load their immediate as it is; `addo` wraps at
    /// the offset range; `djnz` decrements a non-zero counter and jumps
    /// while it stays non-zero, so on a zero counter it falls through.
    /// A transfer changes nothing here: its post-increment is
    /// [`ControlState::resolve`], applied when its burst issues.
    pub fn step(&mut self, insn: &Instruction) -> Flow {
        match *insn {
            Instruction::Ldc { counter, imm } => self.counters[counter.index()] = imm,
            Instruction::Djnz { counter, target } => {
                let c = &mut self.counters[counter.index()];
                *c = c.saturating_sub(1);
                if *c > 0 {
                    return Flow::Jump(target);
                }
            }
            Instruction::Ldo { reg, imm } => self.offsets[reg.index()] = imm,
            Instruction::Addo { reg, delta } => {
                let o = &mut self.offsets[reg.index()];
                *o = wrap(i64::from(*o) + i64::from(delta));
            }
            Instruction::Eop | Instruction::Halt => return Flow::Stop,
            _ => {}
        }
        Flow::Next
    }

    /// The word offset transfer `t` starts at: its immediate, or the
    /// offset register it names.
    #[must_use]
    pub fn offset(&self, t: &Transfer) -> u32 {
        match t.offset {
            TransferOffset::Immediate(offset) => u32::from(offset.value()),
            TransferOffset::Register(reg) => u32::from(self.offsets[reg.index()]),
        }
    }

    /// Issues transfer `t`: returns the word offset it starts at and
    /// post-increments the offset register it names, if any, by its
    /// burst, wrapping at the offset range.
    pub fn resolve(&mut self, t: &Transfer) -> u32 {
        let start = self.offset(t);
        if let TransferOffset::Register(reg) = t.offset {
            // Summed in `i64`: an `ldo` immediate past the offset range
            // plus a burst overflows `u16`.
            self.offsets[reg.index()] = wrap(i64::from(start) + i64::from(t.burst.words()));
        }
        start
    }
}

/// An offset register's value once an `addo` or a post-increment takes
/// it to `v`: offsets wrap at the 14-bit offset field's range.
fn wrap(v: i64) -> u16 {
    u16::try_from(v.rem_euclid(i64::from(MAX_OFFSET) + 1)).expect("0..2^14 fits in u16")
}

/// The control skeleton of a program executed from reset, one
/// instruction at a time (see [`Program::walk`]).
///
/// Each item is an executed pc with, for a transfer, the word offset it
/// starts at. The walk ends after `eop` or `halt`, or before the
/// instruction that would exceed [`WALK_BUDGET`]; then
/// [`Walk::exhausted`] names that instruction's pc.
#[derive(Debug, Clone)]
pub struct Walk<'a> {
    program: &'a Program,
    state: ControlState,
    /// The pc to execute next; `None` once the walk has ended.
    pc: Option<usize>,
    fuel: u64,
    exhausted: Option<usize>,
}

impl<'a> Walk<'a> {
    pub(crate) fn new(program: &'a Program) -> Self {
        Self {
            program,
            state: ControlState::default(),
            pc: Some(0),
            fuel: WALK_BUDGET,
            exhausted: None,
        }
    }

    /// The pc at which the budget ran out, if it did.
    #[must_use]
    pub fn exhausted(&self) -> Option<usize> {
        self.exhausted
    }
}

impl Iterator for Walk<'_> {
    type Item = (usize, Option<u32>);

    fn next(&mut self) -> Option<Self::Item> {
        let pc = self.pc.filter(|&pc| pc < self.program.len())?;
        if self.fuel == 0 {
            self.exhausted = Some(pc);
            self.pc = None;
            return None;
        }
        self.fuel -= 1;
        let insn = &self.program[pc];
        let start = Transfer::from_instruction(pc, insn).map(|t| self.state.resolve(&t));
        self.pc = match self.state.step(insn) {
            Flow::Next => Some(pc + 1),
            Flow::Jump(target) => Some(target.index()),
            Flow::Stop => None,
        };
        Some((pc, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::operands::{Counter, OffsetReg};

    fn counter(i: u8) -> Counter {
        Counter::new(i).unwrap()
    }

    fn oreg(i: u8) -> OffsetReg {
        OffsetReg::new(i).unwrap()
    }

    fn djnz(target: u16) -> Instruction {
        Instruction::Djnz {
            counter: counter(1),
            target: ProgAddr::new(target).unwrap(),
        }
    }

    #[test]
    fn djnz_on_a_zero_counter_falls_through_without_decrementing() {
        let mut state = ControlState::default();
        assert_eq!(state.step(&djnz(0)), Flow::Next);
        assert_eq!(state.counters, [0; 4]);
    }

    #[test]
    fn djnz_jumps_while_taken_and_the_last_falls_through() {
        let mut state = ControlState::default();
        state.step(&Instruction::Ldc {
            counter: counter(1),
            imm: 3,
        });
        let target = ProgAddr::new(5).unwrap();
        assert_eq!(state.step(&djnz(5)), Flow::Jump(target));
        assert_eq!(state.step(&djnz(5)), Flow::Jump(target));
        assert_eq!(state.step(&djnz(5)), Flow::Next);
        assert_eq!(state.counters[1], 0);
    }

    #[test]
    fn addo_by_a_negative_delta_wraps() {
        let mut state = ControlState::default();
        state.step(&Instruction::Ldo {
            reg: oreg(2),
            imm: 4,
        });
        state.step(&Instruction::Addo {
            reg: oreg(2),
            delta: -16,
        });
        assert_eq!(state.offsets[2], 16_372);
    }

    #[test]
    fn post_increment_wraps_at_the_offset_range() {
        let program = assemble("ldo O0,16380\nmvtcr BANK1,O0,DMA8,FIFO0\neop").unwrap();
        let mut state = ControlState::default();
        state.step(&program[0]);
        let t = program.iter_transfers().next().unwrap();
        assert_eq!(state.offset(&t), 16_380);
        assert_eq!(state.offsets[0], 16_380, "offset reads without moving");
        assert_eq!(state.resolve(&t), 16_380);
        assert_eq!(state.offsets[0], 4);
    }

    #[test]
    fn unencodable_ldo_immediate_is_kept_and_wraps_on_increment() {
        let mut state = ControlState::default();
        let program = assemble("mvfcr BANK1,O0,DMA256,FIFO0\neop").unwrap();
        let t = program.iter_transfers().next().unwrap();
        state.step(&Instruction::Ldo {
            reg: oreg(0),
            imm: u16::MAX,
        });
        assert_eq!(state.resolve(&t), u32::from(u16::MAX));
        assert_eq!(state.offsets[0], 255);
    }

    /// The program of `ocp::tests::offset_registers_wrap_at_the_offset_range`,
    /// whose simulated run reads words from 16 380, 4 and 16 380.
    #[test]
    fn walk_resolves_the_offsets_the_simulator_reads() {
        let program = assemble(
            "ldo O0,16380
             mvtcr BANK1,O0,DMA8,FIFO0
             mvtcr BANK1,O0,DMA8,FIFO0
             addo O0,-16
             mvtcr BANK1,O0,DMA8,FIFO0
             execs 24
             mvfc BANK2,0,DMA24,FIFO0
             eop",
        )
        .unwrap();
        let mut walk = program.walk();
        let steps: Vec<_> = walk.by_ref().collect();
        let starts: Vec<(usize, u32)> = steps
            .iter()
            .filter_map(|&(pc, start)| Some((pc, start?)))
            .collect();
        assert_eq!(
            starts,
            [(1, 16_380), (2, 4), (4, 16_380), (6, 0)],
            "the register transfers read 16 380, 4 and 16 380"
        );
        assert_eq!(steps.last(), Some(&(7, None)));
        assert_eq!(walk.exhausted(), None);
    }
}
