//! Structural reproduction of the paper's figures: each test pins the
//! architecture drawn in one figure to the corresponding code.

use ouessant::interface::SLAVE_WINDOW_BYTES;
use ouessant::ocp::{Ocp, OcpConfig};
use ouessant::regs::{CTRL_D, CTRL_IE, CTRL_S, REG_BANK0, REG_CTRL, REG_PROG_SIZE};
use ouessant_isa::{assemble, Instruction, FIGURE4_SOURCE};
use ouessant_rac::passthrough::{PassthroughRac, WideFunctionRac};
use ouessant_rac::rac::RacSocket;
use ouessant_sim::bus::{Bus, BusConfig, TxnRequest};
use ouessant_sim::memory::{Sram, SramConfig};
use ouessant_sim::{SystemBus, WidthAdapter};

const RAM: u32 = 0x4000_0000;
const OCP: u32 = 0x8000_0000;

/// **Figure 1** — "Global view of an Ouessant coprocessor": bus
/// interface ⇄ controller ⇄ RAC, with FIFO interfaces between
/// controller and RAC and the bus on the far side.
#[test]
fn figure1_structure() {
    let mut bus = Bus::new(BusConfig::default());
    let _cpu = bus.register_master();
    bus.add_slave(RAM, Sram::with_words(1024, SramConfig::no_wait()));
    let ocp = Ocp::attach(
        &mut bus,
        OCP,
        Box::new(PassthroughRac::new(0)),
        OcpConfig::default(),
    );

    // The three blocks exist and are reachable through the OCP façade.
    assert_eq!(ocp.base(), OCP); // bus interface: mapped slave window
    assert!(!ocp.controller().is_active()); // controller: idle FSM
    assert_eq!(ocp.socket().num_inputs(), 1); // RAC behind FIFO interfaces
    assert_eq!(ocp.socket().rac().num_output_fifos(), 1);

    // The bus interface is the *only* bus-visible part: the register
    // window responds, the controller/RAC are not memory-mapped.
    assert!(bus.debug_read(OCP + REG_CTRL).is_ok());
    assert!(bus.debug_read(OCP + SLAVE_WINDOW_BYTES).is_err());
}

/// **Figure 2** — RAC integration with serializing/deserializing FIFOs:
/// 32-bit `din`/`dout` on the bus side, 96-bit operands on the
/// accelerator side, `start_op`/`end_op` handshake.
#[test]
fn figure2_serialization() {
    // The exact widths of the figure.
    let mut deserializer = WidthAdapter::new("din", 32, 96, 96 * 8);
    let mut serializer = WidthAdapter::new("dout", 96, 32, 96 * 8);

    // Three 32-bit writes become one 96-bit operand…
    for w in [0x0102_0304u128, 0x0506_0708, 0x090A_0B0C] {
        deserializer.push(w).unwrap();
    }
    let operand = deserializer.pop().expect("96 bits available");
    // …and one 96-bit result becomes three 32-bit reads.
    serializer.push(operand).unwrap();
    assert_eq!(serializer.pop().unwrap(), 0x0102_0304);
    assert_eq!(serializer.pop().unwrap(), 0x0506_0708);
    assert_eq!(serializer.pop().unwrap(), 0x090A_0B0C);

    // The full arrangement as a RAC: start_op launches, end_op follows.
    let rac = WideFunctionRac::new("fig2", 96, 96, 2, |v| v);
    let mut socket = RacSocket::new(Box::new(rac), 64);
    for w in [1u32, 2, 3, 4, 5, 6] {
        socket.push_input(0, w).unwrap();
    }
    assert!(!socket.busy());
    socket.start(2); // start_op: two 96-bit operands
    assert!(socket.busy());
    socket.run_until_done(1_000); // end_op
    for w in [1u32, 2, 3, 4, 5, 6] {
        assert_eq!(socket.pop_output(0).unwrap(), w);
    }
}

/// **Figure 3** — the interface register map: ctrl (S/IE/D) at 0x0,
/// program size at 0x4, banks 0–7 at 0x8..0x24, all reachable through
/// the bus slave FSM.
#[test]
fn figure3_register_map() {
    let mut bus = Bus::new(BusConfig::default());
    let cpu = bus.register_master();
    bus.add_slave(RAM, Sram::with_words(1024, SramConfig::no_wait()));
    let ocp = Ocp::attach(
        &mut bus,
        OCP,
        Box::new(PassthroughRac::new(0)),
        OcpConfig::default(),
    );

    // Offsets drawn in the figure.
    assert_eq!(REG_CTRL, 0x0);
    assert_eq!(REG_PROG_SIZE, 0x4);
    assert_eq!(REG_BANK0, 0x8);
    assert_eq!(REG_BANK0 + 4 * 7, 0x24);

    // Timed bus writes land in the register file.
    let mut write = |offset: u32, value: u32| {
        bus.try_begin(cpu, TxnRequest::write_word(OCP + offset, value))
            .unwrap();
        bus.run_to_completion(cpu).unwrap();
    };
    write(REG_PROG_SIZE, 18);
    for k in 0..8u32 {
        write(REG_BANK0 + 4 * k, RAM + 0x1000 * k);
    }
    ocp.regs().with(|r| {
        assert_eq!(r.prog_size(), 18);
        for k in 0..8 {
            assert_eq!(r.bank_base(k), RAM + 0x1000 * k as u32);
        }
    });

    // Control bits: only S, IE, D are defined ("only 3 bits are used").
    bus.try_begin(cpu, TxnRequest::write_word(OCP + REG_CTRL, 0xFFFF_FFFF))
        .unwrap();
    bus.run_to_completion(cpu).unwrap();
    bus.try_begin(cpu, TxnRequest::read_word(OCP + REG_CTRL))
        .unwrap();
    let c = bus.run_to_completion(cpu).unwrap();
    assert_eq!(c.data[0] & !(CTRL_S | CTRL_IE | CTRL_D), 0);
}

/// **Figure 4** — the example DFT microcode: 8 unrolled `mvtc DMA64`
/// (512 words from bank 1), `execs`, 8 `mvfc DMA64` (512 words to bank
/// 2), `eop`.
#[test]
fn figure4_microcode() {
    let program = assemble(FIGURE4_SOURCE).unwrap();
    assert_eq!(program.len(), 18);
    // 8 mvtc with offsets 0, 64, …, 448 into FIFO0 from BANK1.
    for k in 0..8 {
        match program[k] {
            Instruction::Mvtc {
                bank,
                offset,
                burst,
                fifo,
            } => {
                assert_eq!(bank.value(), 1);
                assert_eq!(offset.value(), 64 * k as u16);
                assert_eq!(burst.words(), 64);
                assert_eq!(fifo.value(), 0);
            }
            other => panic!("instruction {k} should be mvtc, got {other}"),
        }
    }
    assert!(matches!(program[8], Instruction::Exec { .. }));
    for k in 0..8 {
        match program[9 + k] {
            Instruction::Mvfc { bank, offset, .. } => {
                assert_eq!(bank.value(), 2);
                assert_eq!(offset.value(), 64 * k as u16);
            }
            other => panic!("instruction {} should be mvfc, got {other}", 9 + k),
        }
    }
    assert_eq!(program[17], Instruction::Eop);
    // The paper's accounting: 1024 words total.
    assert_eq!(program.static_words_transferred(), 1024);
}
