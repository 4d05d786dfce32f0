//! The MPSoC argument of §II: Molen sits between *the* processor and
//! the bus, "and it requires one accelerator per processor, making it
//! inefficient in MultiProcessor System on Chips". Ouessant integrates
//! as a regular bus peripheral, so **several OCPs coexist on one bus**,
//! run concurrently, and are controlled independently — this test is
//! that scenario, plus the §IV claim that "during computation, the GPP
//! can process other tasks".

use ouessant::ocp::{Ocp, OcpConfig};
use ouessant_isa::assemble;
use ouessant_rac::idct::{idct_2d_fixed, IdctRac};
use ouessant_rac::passthrough::PassthroughRac;
use ouessant_sim::bus::{Bus, BusConfig, PortState, TxnRequest};
use ouessant_sim::memory::{Sram, SramConfig};
use ouessant_sim::SystemBus;

const RAM: u32 = 0x4000_0000;
const OCP_A: u32 = 0x8000_0000;
const OCP_B: u32 = 0x8001_0000;

#[test]
fn two_ocps_share_one_bus_and_run_concurrently() {
    let mut bus = Bus::new(BusConfig::default());
    let _cpu = SystemBus::register_master(&mut bus);
    bus.add_slave(RAM, Sram::with_words(1 << 15, SramConfig::default()));

    // OCP A: IDCT. OCP B: passthrough copy. Different programs,
    // different banks, same bus.
    let mut ocp_a = Ocp::attach(
        &mut bus,
        OCP_A,
        Box::new(IdctRac::new()),
        OcpConfig::default(),
    );
    let mut ocp_b = Ocp::attach(
        &mut bus,
        OCP_B,
        Box::new(PassthroughRac::new(0)),
        OcpConfig::default(),
    );

    let prog_a =
        assemble("mvtc BANK1,0,DMA64,FIFO0\nexecs\nmvfc BANK2,0,DMA64,FIFO0\neop").unwrap();
    let prog_b =
        assemble("mvtc BANK1,0,DMA32,FIFO0\nexecs 32\nmvfc BANK2,0,DMA32,FIFO0\neop").unwrap();

    // Memory layout: programs at 0x0000/0x1000, A data at 0x2000/0x3000,
    // B data at 0x4000/0x5000 (byte offsets from RAM).
    for (i, w) in prog_a.to_words().iter().enumerate() {
        bus.debug_write(RAM + (i as u32) * 4, *w).unwrap();
    }
    for (i, w) in prog_b.to_words().iter().enumerate() {
        bus.debug_write(RAM + 0x1000 + (i as u32) * 4, *w).unwrap();
    }
    let coeffs: Vec<i32> = (0..64).map(|i| (i * 97 % 601) - 300).collect();
    for (i, &c) in coeffs.iter().enumerate() {
        bus.debug_write(RAM + 0x2000 + (i as u32) * 4, c as u32)
            .unwrap();
    }
    for i in 0..32u32 {
        bus.debug_write(RAM + 0x4000 + i * 4, 0xB000_0000 + i)
            .unwrap();
    }

    ocp_a.regs().set_bank(0, RAM).unwrap();
    ocp_a.regs().set_bank(1, RAM + 0x2000).unwrap();
    ocp_a.regs().set_bank(2, RAM + 0x3000).unwrap();
    ocp_a.regs().set_prog_size(prog_a.len() as u32).unwrap();

    ocp_b.regs().set_bank(0, RAM + 0x1000).unwrap();
    ocp_b.regs().set_bank(1, RAM + 0x4000).unwrap();
    ocp_b.regs().set_bank(2, RAM + 0x5000).unwrap();
    ocp_b.regs().set_prog_size(prog_b.len() as u32).unwrap();

    // Start both in the same cycle.
    ocp_a.regs().start();
    ocp_b.regs().start();

    let mut cycles = 0u64;
    let mut a_done_at = None;
    let mut b_done_at = None;
    while a_done_at.is_none() || b_done_at.is_none() {
        ocp_a.tick(&mut bus);
        ocp_b.tick(&mut bus);
        SystemBus::tick(&mut bus);
        cycles += 1;
        assert!(cycles < 1_000_000, "both offloads must finish");
        assert!(ocp_a.fault().is_none() && ocp_b.fault().is_none());
        if a_done_at.is_none() && ocp_a.regs().done() {
            a_done_at = Some(cycles);
        }
        if b_done_at.is_none() && ocp_b.regs().done() {
            b_done_at = Some(cycles);
        }
    }

    // Both produced correct results.
    let expected = idct_2d_fixed(&coeffs);
    for (i, &e) in expected.iter().enumerate() {
        let got = bus.debug_read(RAM + 0x3000 + (i as u32) * 4).unwrap() as i32;
        assert_eq!(got, e, "OCP A output {i}");
    }
    for i in 0..32u32 {
        assert_eq!(
            bus.debug_read(RAM + 0x5000 + i * 4).unwrap(),
            0xB000_0000 + i,
            "OCP B output {i}"
        );
    }

    // They genuinely overlapped: both finished, and the bus saw
    // contention between the two DMA masters.
    assert!(bus.stats().contention_cycles > 0, "concurrent DMAs contend");

    // Overlap beats serialization: the later finisher completed well
    // before the sum of two standalone runs would suggest.
    let later = a_done_at.unwrap().max(b_done_at.unwrap());
    assert!(later < 1_500, "concurrent completion at {later}");
}

#[test]
fn cpu_computes_while_ocp_runs() {
    // §IV: "During computation, the GPP can process other tasks if
    // required, as long as it does not involve data being processed by
    // OCP." The CPU does a memcpy of an unrelated buffer while the OCP
    // moves its own data.
    let mut bus = Bus::new(BusConfig::default());
    let cpu = SystemBus::register_master(&mut bus);
    bus.add_slave(RAM, Sram::with_words(1 << 15, SramConfig::default()));
    let mut ocp = Ocp::attach(
        &mut bus,
        OCP_A,
        Box::new(PassthroughRac::new(0)),
        OcpConfig::default(),
    );

    let program =
        assemble("mvtc BANK1,0,DMA64,FIFO0\nexecs 64\nmvfc BANK2,0,DMA64,FIFO0\neop").unwrap();
    for (i, w) in program.to_words().iter().enumerate() {
        bus.debug_write(RAM + (i as u32) * 4, *w).unwrap();
    }
    for i in 0..64u32 {
        bus.debug_write(RAM + 0x2000 + i * 4, i + 1).unwrap();
        bus.debug_write(RAM + 0x6000 + i * 4, 0xCAFE_0000 + i)
            .unwrap(); // CPU's buffer
    }
    ocp.regs().set_bank(0, RAM).unwrap();
    ocp.regs().set_bank(1, RAM + 0x2000).unwrap();
    ocp.regs().set_bank(2, RAM + 0x3000).unwrap();
    ocp.regs().set_prog_size(program.len() as u32).unwrap();
    ocp.regs().start();

    // CPU task: copy 64 words from 0x6000 to 0x7000 word by word, in
    // parallel with the OCP offload.
    let mut copied = 0u32;
    let mut cpu_state = 0u8; // 0 = need read, 1 = reading, 2 = writing
    let mut pending_value = 0u32;
    let mut cycles = 0u64;
    while !ocp.regs().done() || copied < 64 {
        ocp.tick(&mut bus);
        SystemBus::tick(&mut bus);
        cycles += 1;
        assert!(cycles < 1_000_000);
        assert!(ocp.fault().is_none());
        match cpu_state {
            0 if copied < 64
                && bus
                    .try_begin(cpu, TxnRequest::read_word(RAM + 0x6000 + copied * 4))
                    .is_ok() =>
            {
                cpu_state = 1;
            }
            1 if bus.poll(cpu) == PortState::Complete => {
                pending_value = bus.take_completion(cpu).unwrap().unwrap().data[0];
                bus.try_begin(
                    cpu,
                    TxnRequest::write_word(RAM + 0x7000 + copied * 4, pending_value),
                )
                .unwrap();
                cpu_state = 2;
            }
            2 if bus.poll(cpu) == PortState::Complete => {
                bus.take_completion(cpu).unwrap().unwrap();
                copied += 1;
                cpu_state = 0;
            }
            _ => {}
        }
    }

    // Both jobs completed correctly despite sharing the bus.
    for i in 0..64u32 {
        assert_eq!(bus.debug_read(RAM + 0x3000 + i * 4).unwrap(), i + 1);
        assert_eq!(
            bus.debug_read(RAM + 0x7000 + i * 4).unwrap(),
            0xCAFE_0000 + i
        );
    }
    let _ = pending_value;
    assert!(
        bus.stats().contention_cycles > 0,
        "CPU traffic and OCP DMA must have contended"
    );
}
