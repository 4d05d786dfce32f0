//! End-to-end tests of the `ouas` assembler/disassembler/verifier CLI.

use std::fs;
use std::process::Command;

fn ouas() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ouas"))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ouas_test_{}_{name}", std::process::id()));
    p
}

const SOURCE: &str = "\
// quickstart microcode
mvtc BANK1,0,DMA64,FIFO0
execs
mvfc BANK2,0,DMA64,FIFO0
eop
";

#[test]
fn asm_to_stdout() {
    let src = temp_path("a.s");
    fs::write(&src, SOURCE).unwrap();
    let out = ouas().arg("asm").arg(&src).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 4);
    assert!(text.lines().all(|l| l.starts_with("0x")));
    fs::remove_file(src).ok();
}

#[test]
fn asm_dis_round_trip() {
    let src = temp_path("b.s");
    let hex = temp_path("b.hex");
    fs::write(&src, SOURCE).unwrap();
    let out = ouas()
        .args(["asm"])
        .arg(&src)
        .arg("-o")
        .arg(&hex)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = ouas().arg("dis").arg(&hex).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("mvtc BANK1,0,DMA64,FIFO0"));
    assert!(text.contains("execs"));
    assert!(text.contains("eop"));
    fs::remove_file(src).ok();
    fs::remove_file(hex).ok();
}

#[test]
fn check_reports_statistics() {
    let src = temp_path("c.s");
    fs::write(&src, SOURCE).unwrap();
    let out = ouas().arg("check").arg(&src).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("4 instructions"));
    assert!(text.contains("128 data words"));
    fs::remove_file(src).ok();
}

#[test]
fn check_marks_a_count_cut_by_the_walk_budget() {
    let src = temp_path("budget.s");
    // 16383 x 16383 passes of a DMA8 load: far past the walk's budget.
    fs::write(
        &src,
        "ldc R0,16383\nouter: ldc R1,16383\ninner: mvtc BANK1,0,DMA8,FIFO0\n\
         djnz R1,inner\ndjnz R0,outer\neop\n",
    )
    .unwrap();
    let out = ouas().arg("check").arg(&src).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    // After `ldc R0`, each outer pass executes 1 + 2 * 16383 + 1 =
    // 32768 instructions. Instruction 2 000 000 is number
    // 1 999 999 - 61 * 32768 = 1151 of the 62nd pass: its `ldc R1`
    // and 575 inner pairs, so the budget runs out in front of the
    // `mvtc` at pc 2, after 61 * 16383 + 575 loads of 8 words.
    assert!(
        text.contains(
            "6 instructions, 7999504 data words transferred \
             (a lower bound: the walk's budget ran out at pc 2)"
        ),
        "{text}"
    );
    fs::remove_file(src).ok();
}

#[test]
fn syntax_error_reports_line_and_fails() {
    let src = temp_path("d.s");
    fs::write(&src, "nop\nfrobnicate\neop\n").unwrap();
    let out = ouas().arg("asm").arg(&src).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("line 2"), "{text}");
    assert!(text.contains("frobnicate"));
    fs::remove_file(src).ok();
}

#[test]
fn dis_rejects_bad_hex() {
    let hex = temp_path("e.hex");
    fs::write(&hex, "0xdeadbeef\nnot-hex\n").unwrap();
    let out = ouas().arg("dis").arg(&hex).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
    fs::remove_file(hex).ok();
}

#[test]
fn dis_rejects_invalid_program() {
    // A reserved opcode word.
    let hex = temp_path("f.hex");
    fs::write(&hex, format!("{:#010x}\n", 31u32 << 27)).unwrap();
    let out = ouas().arg("dis").arg(&hex).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("reserved opcode"));
    fs::remove_file(hex).ok();
}

#[test]
fn usage_on_no_arguments() {
    let out = ouas().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn missing_file_reported() {
    let out = ouas()
        .args(["asm", "/nonexistent/path.s"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

// ── verifier integration ─────────────────────────────────────────────

/// A burst that overruns the 16384-word bank window.
const OUT_OF_BOUNDS: &str = "\
mvtc BANK1,16256,DMA256,FIFO0
execs
eop
";

#[test]
fn verify_clean_program_exits_zero() {
    let src = temp_path("g.s");
    fs::write(&src, SOURCE).unwrap();
    let out = ouas().arg("verify").arg(&src).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("verified clean"));
    fs::remove_file(src).ok();
}

#[test]
fn verify_flags_out_of_bounds_burst() {
    let src = temp_path("h.s");
    fs::write(&src, OUT_OF_BOUNDS).unwrap();
    let out = ouas().arg("verify").arg(&src).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(text.contains("bank-overflow"), "{text}");
    assert!(text.contains("1 error(s)"), "{text}");
    fs::remove_file(src).ok();
}

#[test]
fn asm_with_verify_blocks_bad_microcode() {
    let src = temp_path("i.s");
    fs::write(&src, OUT_OF_BOUNDS).unwrap();
    let out = ouas().args(["asm", "--verify"]).arg(&src).output().unwrap();
    assert!(!out.status.success());
    assert!(
        out.stdout.is_empty(),
        "no hex output for rejected microcode"
    );
    // Without --verify the same source still assembles.
    let out = ouas().arg("asm").arg(&src).output().unwrap();
    assert!(out.status.success());
    fs::remove_file(src).ok();
}

#[test]
fn deny_warnings_escalates_exit_status() {
    // A launch with no input transferred: warning-only.
    let src = temp_path("j.s");
    fs::write(&src, "execs\nmvfc BANK2,0,DMA8,FIFO0\neop\n").unwrap();
    let out = ouas().arg("verify").arg(&src).output().unwrap();
    assert!(out.status.success(), "warnings alone must not fail");
    let out = ouas()
        .args(["verify", "--deny-warnings"])
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("exec-without-input"));
    fs::remove_file(src).ok();
}

#[test]
fn json_diagnostics_are_machine_readable() {
    let src = temp_path("k.s");
    fs::write(&src, OUT_OF_BOUNDS).unwrap();
    let out = ouas()
        .args(["verify", "--json"])
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("{\"errors\":1,"), "{text}");
    assert!(text.contains("\"code\":\"bank-overflow\""), "{text}");
    assert!(text.contains("\"index\":0"), "{text}");
    fs::remove_file(src).ok();
}

#[test]
fn bank_flags_shape_the_memory_map() {
    let src = temp_path("l.s");
    fs::write(&src, SOURCE).unwrap();
    // Declaring bank 1 smaller than the 64-word burst makes it an error.
    let out = ouas()
        .args(["verify", "--bank", "1=32"])
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bank-overflow"));
    // Declaring bank 2 unmapped flags the mvfc.
    let out = ouas()
        .args(["verify", "--bank", "2=unmapped"])
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unmapped-bank"));
    fs::remove_file(src).ok();
}

#[test]
fn verify_accepts_assembled_hex() {
    let src = temp_path("m.s");
    let hex = temp_path("m.hex");
    fs::write(&src, SOURCE).unwrap();
    let out = ouas()
        .arg("asm")
        .arg(&src)
        .arg("-o")
        .arg(&hex)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = ouas().arg("verify").arg(&hex).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    fs::remove_file(src).ok();
    fs::remove_file(hex).ok();
}

#[test]
fn bad_analyzer_flag_is_a_usage_error() {
    for (arg, bank) in [("9=64", 9), ("8=4", 8)] {
        let out = ouas()
            .args(["verify", "--bank", arg, "whatever.s"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("bank {bank} out of range (0..=7)")),
            "{stderr}"
        );
    }
}
