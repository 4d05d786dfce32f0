//! Disassembly of Ouessant programs back to Figure 4 style source text.
//!
//! [`disassemble`] produces text that [`crate::assemble`] accepts and
//! that round-trips to the identical [`Program`] — a property verified
//! exhaustively by this crate's property tests.

use crate::program::Program;

/// Renders a program as assembler source, one instruction per line,
/// prefixed with its instruction index as a comment.
///
/// # Examples
///
/// ```
/// use ouessant_isa::{assemble, disassemble};
///
/// let p = assemble("mvtc BANK1,0,DMA64,FIFO0\nexecs\neop")?;
/// let text = disassemble(&p);
/// assert!(text.contains("mvtc BANK1,0,DMA64,FIFO0"));
/// // Disassembly re-assembles to the same program.
/// assert_eq!(assemble(&text)?, p);
/// # Ok::<(), ouessant_isa::AssembleError>(())
/// ```
#[must_use]
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    for (idx, insn) in program.iter().enumerate() {
        // djnz targets are numeric indices, so emit every index as a
        // label-free comment column to keep the text readable.
        out.push_str(&format!("{insn}    ; [{idx}] {:#010x}\n", insn.encode()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::program::ProgramBuilder;

    #[test]
    fn round_trips_figure4() {
        let p = ProgramBuilder::new()
            .transfer_to_coprocessor(1, 0, 512, 64, 0)
            .unwrap()
            .execs()
            .transfer_from_coprocessor(2, 0, 512, 64, 0)
            .unwrap()
            .eop()
            .finish()
            .unwrap();
        let text = disassemble(&p);
        assert_eq!(assemble(&text).unwrap(), p);
    }

    #[test]
    fn round_trips_extension_instructions() {
        let src = "
            ldc R0,8
            ldo O0,0
            loop:
                mvtcr BANK1,O0,DMA64,FIFO0
                execn
                wrac
                mvfcr BANK2,O1,DMA64,FIFO0
                addo O1,-64
                djnz R0,loop
            wait 10
            sync
            eop
        ";
        let p = assemble(src).unwrap();
        let text = disassemble(&p);
        assert_eq!(assemble(&text).unwrap(), p);
    }
}
