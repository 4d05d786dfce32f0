//! `ouas` — the Ouessant microcode assembler/disassembler/verifier.
//!
//! ```text
//! ouas asm <source.s>          assemble; hex words on stdout
//! ouas asm <source.s> -o <f>   assemble into a file
//! ouas dis <words.hex>         disassemble hex words (one per line)
//! ouas check <source.s>        assemble and report statistics only
//! ouas verify <source.s>       run the static analyzer and report
//! ```
//!
//! `asm` and `check` accept `--verify` to run the analyzer as part of
//! assembly; `verify` runs it standalone (on microcode source, or on
//! an already-assembled `.hex` word file). Analyzer flags:
//!
//! ```text
//! --deny-warnings      treat warnings as errors (non-zero exit)
//! --json               machine-readable diagnostics
//! --bank N=WORDS       declare bank N as WORDS words
//! --bank N=unmapped    declare bank N absent (touching it is an error)
//! --fifo-depth WORDS   declare the FIFO depth
//! ```
//!
//! Exit status: 0 clean, 1 on errors (or warnings under
//! `--deny-warnings`), 2 on usage errors.
//!
//! Hex files hold one 32-bit word per line (`0x`-prefixed or bare hex);
//! `#`/`//` comments and blank lines are ignored.

use std::fs;
use std::process::ExitCode;

use ouessant_isa::{assemble, disassemble, Program};
use ouessant_verify::{verify, Analysis, BankModel, VerifyConfig};

fn usage() -> ExitCode {
    eprintln!("usage: ouas asm <source.s> [-o <out.hex>] [--verify] [<analyzer flags>]");
    eprintln!("       ouas dis <words.hex>");
    eprintln!("       ouas check <source.s> [--verify] [<analyzer flags>]");
    eprintln!("       ouas verify <source.s | words.hex> [<analyzer flags>]");
    eprintln!("analyzer flags: --deny-warnings --json --bank N=<WORDS|unmapped|unbounded>");
    eprintln!("                --fifo-depth <WORDS>");
    ExitCode::from(2)
}

fn parse_hex_file(text: &str) -> Result<Vec<u32>, String> {
    let mut words = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let mut line = raw;
        for marker in ["//", "#"] {
            if let Some(pos) = line.find(marker) {
                line = &line[..pos];
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let hex = line
            .strip_prefix("0x")
            .or_else(|| line.strip_prefix("0X"))
            .unwrap_or(line);
        let word = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("line {}: `{line}` is not a hex word", i + 1))?;
        words.push(word);
    }
    Ok(words)
}

/// Analyzer-related options shared by `asm`, `check` and `verify`.
struct Options {
    run_verify: bool,
    deny_warnings: bool,
    json: bool,
    config: VerifyConfig,
}

impl Options {
    fn new() -> Self {
        Self {
            run_verify: false,
            deny_warnings: false,
            json: false,
            config: VerifyConfig::default(),
        }
    }
}

fn parse_bank_flag(spec: &str, config: &mut VerifyConfig) -> Result<(), String> {
    let (bank, model) = spec
        .split_once('=')
        .ok_or_else(|| format!("--bank expects N=WORDS, got `{spec}`"))?;
    let bank: usize = bank
        .parse()
        .map_err(|_| format!("`{bank}` is not a bank number"))?;
    if bank >= config.banks.len() {
        let last = config.banks.len() - 1;
        return Err(format!("bank {bank} out of range (0..={last})"));
    }
    config.banks[bank] = match model {
        "unmapped" => BankModel::Unmapped,
        "unbounded" => BankModel::Unbounded,
        words => BankModel::Words(
            words
                .parse()
                .map_err(|_| format!("`{words}` is not a word count"))?,
        ),
    };
    Ok(())
}

/// Splits `rest` into positional arguments and analyzer options.
fn parse_options(rest: &[String]) -> Result<(Vec<&String>, Options), String> {
    let mut positional = Vec::new();
    let mut opts = Options::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--verify" => opts.run_verify = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--json" => opts.json = true,
            "--bank" => {
                let spec = it.next().ok_or("--bank needs an argument")?;
                parse_bank_flag(spec, &mut opts.config)?;
            }
            "--fifo-depth" => {
                let words = it.next().ok_or("--fifo-depth needs an argument")?;
                opts.config.fifo_depth = Some(
                    words
                        .parse()
                        .map_err(|_| format!("`{words}` is not a word count"))?,
                );
            }
            _ => positional.push(arg),
        }
    }
    Ok((positional, opts))
}

/// Runs the analyzer and prints its findings. Returns the analysis so
/// callers can decide the exit status.
fn report_analysis(input: &str, program: &Program, opts: &Options) -> Analysis {
    let analysis = verify(program, &opts.config);
    if opts.json {
        println!("{}", analysis.to_json());
    } else if !analysis.is_clean() {
        for d in analysis.diagnostics() {
            eprintln!("ouas: {input}: {d}");
        }
        eprintln!(
            "ouas: {input}: {} error(s), {} warning(s)",
            analysis.error_count(),
            analysis.warning_count()
        );
    }
    analysis
}

/// Whether the diagnostics allow a passing exit under `opts`.
fn passes(analysis: &Analysis, opts: &Options) -> bool {
    !(analysis.has_errors() || (opts.deny_warnings && analysis.warning_count() > 0))
}

fn load_program(input: &str, source: &str) -> Result<Program, String> {
    if input.ends_with(".hex") {
        let words = parse_hex_file(source)?;
        Program::from_words(&words).map_err(|e| e.to_string())
    } else {
        assemble(source).map_err(|e| e.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    match cmd {
        "asm" | "check" => {
            let (positional, opts) = match parse_options(rest) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("ouas: {e}");
                    return usage();
                }
            };
            let (input, output) = match positional.as_slice() {
                [input] => (*input, None),
                [input, flag, out] if *flag == "-o" => (*input, Some(*out)),
                _ => return usage(),
            };
            let source = match fs::read_to_string(input) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("ouas: cannot read {input}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let program = match assemble(&source) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("ouas: {input}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if opts.run_verify && !passes(&report_analysis(input, &program, &opts), &opts) {
                return ExitCode::FAILURE;
            }
            if cmd == "check" {
                let mut walk = program.walk();
                let words: u64 = walk
                    .by_ref()
                    .map(|(pc, _)| u64::from(program[pc].words_transferred()))
                    .sum();
                let cut = walk.exhausted().map_or(String::new(), |pc| {
                    format!(" (a lower bound: the walk's budget ran out at pc {pc})")
                });
                eprintln!(
                    "{input}: {} instructions, {words} data words transferred{cut}",
                    program.len()
                );
                return ExitCode::SUCCESS;
            }
            let hex: String = program
                .to_words()
                .iter()
                .map(|w| format!("{w:#010x}\n"))
                .collect();
            match output {
                Some(path) => {
                    if let Err(e) = fs::write(path, hex) {
                        eprintln!("ouas: cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                None => print!("{hex}"),
            }
            ExitCode::SUCCESS
        }
        "verify" => {
            let (positional, opts) = match parse_options(rest) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("ouas: {e}");
                    return usage();
                }
            };
            let [input] = positional.as_slice() else {
                return usage();
            };
            let source = match fs::read_to_string(input) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("ouas: cannot read {input}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let program = match load_program(input, &source) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("ouas: {input}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let analysis = report_analysis(input, &program, &opts);
            if passes(&analysis, &opts) {
                if !opts.json && analysis.is_clean() {
                    eprintln!("ouas: {input}: verified clean");
                }
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "dis" => {
            let [input] = rest else { return usage() };
            let text = match fs::read_to_string(input) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("ouas: cannot read {input}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let words = match parse_hex_file(&text) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("ouas: {input}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match Program::from_words(&words) {
                Ok(program) => {
                    print!("{}", disassemble(&program));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("ouas: {input}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
