//! Randomized invariant tests for the simulation substrate: the bus
//! must never lose, duplicate or reorder data, whatever the burst plan,
//! wait states or interconnect flavour; width adapters must be exact
//! bit-stream transformers.
//!
//! Formerly `proptest` properties; now driven by the in-repo seeded
//! generator so the workspace tests fully offline.

use ouessant_sim::axi::{AxiBus, SystemBus};
use ouessant_sim::bus::{Bus, BusConfig, PortState, TxnRequest};
use ouessant_sim::memory::{Sram, SramConfig};
use ouessant_sim::rng::XorShift64;
use ouessant_sim::WidthAdapter;

/// Writes `data` at `addr` in chunks described by `plan`, reads it all
/// back in one burst, on any SystemBus.
fn scatter_then_gather(bus: &mut dyn SystemBus, data: &[u32], plan: &[u16]) -> Vec<u32> {
    let m = bus.register_master();
    bus.add_slave_boxed(
        0,
        Box::new(Sram::with_words(
            data.len().max(1) + 4,
            SramConfig::default(),
        )),
    );
    let mut cursor = 0usize;
    let mut plan_idx = 0usize;
    while cursor < data.len() {
        let chunk = usize::from(plan[plan_idx % plan.len()].max(1)).min(data.len() - cursor);
        plan_idx += 1;
        bus.try_begin(
            m,
            TxnRequest::write((cursor * 4) as u32, data[cursor..cursor + chunk].to_vec()),
        )
        .expect("request valid");
        let mut fuel = 1_000_000;
        while bus.poll(m).is_pending() {
            bus.tick();
            fuel -= 1;
            assert!(fuel > 0);
        }
        bus.take_completion(m).expect("present").expect("no fault");
        cursor += chunk;
    }
    bus.try_begin(m, TxnRequest::read(0, data.len() as u16))
        .expect("request valid");
    let mut fuel = 1_000_000;
    while bus.poll(m).is_pending() {
        bus.tick();
        fuel -= 1;
        assert!(fuel > 0);
    }
    bus.take_completion(m)
        .expect("present")
        .expect("no fault")
        .data
}

fn random_plan(rng: &mut XorShift64) -> Vec<u16> {
    let len = rng.gen_range_u32(1..8) as usize;
    (0..len).map(|_| rng.gen_range_u32(1..64) as u16).collect()
}

/// AHB-like bus: arbitrary write plans scatter correctly.
#[test]
fn ahb_scatter_gather_is_identity() {
    let mut rng = XorShift64::new(0xB0_0001);
    for _ in 0..32 {
        let data_len = rng.gen_range_u32(1..300) as usize;
        let data = rng.vec_u32(data_len);
        let plan = random_plan(&mut rng);
        let max_burst = rng.gen_range_u32(1..32) as u16;
        let mut bus = Bus::new(BusConfig {
            max_burst_beats: max_burst,
        });
        let out = scatter_then_gather(&mut bus, &data, &plan);
        assert_eq!(out, data, "plan={plan:?} max_burst={max_burst}");
    }
}

/// AXI-like bus: identical guarantee on the other interconnect.
#[test]
fn axi_scatter_gather_is_identity() {
    let mut rng = XorShift64::new(0xB0_0002);
    for _ in 0..32 {
        let data_len = rng.gen_range_u32(1..200) as usize;
        let data = rng.vec_u32(data_len);
        let plan = random_plan(&mut rng);
        let mut bus = AxiBus::new();
        let out = scatter_then_gather(&mut bus, &data, &plan);
        assert_eq!(out, data, "plan={plan:?}");
    }
}

/// Burst timing is monotone in beats and never below one cycle per
/// beat.
#[test]
fn burst_cycles_bounded() {
    for beats in 1u16..=256 {
        let mut bus = Bus::new(BusConfig::default());
        let m = Bus::register_master(&mut bus);
        bus.add_slave(0, Sram::with_words(512, SramConfig::no_wait()));
        bus.try_begin(m, TxnRequest::read(0, beats)).unwrap();
        let c = bus.run_to_completion(m).unwrap();
        assert!(c.cycles >= u64::from(beats));
        // Upper bound: grant+addr per 16-beat sub-burst.
        let sub_bursts = u64::from(beats).div_ceil(16);
        assert!(c.cycles <= u64::from(beats) + sub_bursts * 2);
    }
}

/// A width adapter, composed with its inverse, is the identity on
/// arbitrary word streams — for any width pair.
#[test]
fn width_adapter_inverse_identity() {
    let mut rng = XorShift64::new(0xB0_0003);
    for _ in 0..200 {
        let in_width = rng.gen_range_u32(1..65);
        let out_width = rng.gen_range_u32(1..65);
        let count = rng.gen_range_u32(1..64) as usize;
        let words: Vec<u64> = (0..count).map(|_| rng.next_u64()).collect();
        let mut forward = WidthAdapter::new("f", in_width, out_width, 16 * 1024);
        let mut backward = WidthAdapter::new("b", out_width, in_width, 16 * 1024);
        let mask = if in_width == 64 {
            u64::MAX
        } else {
            (1u64 << in_width) - 1
        };
        let masked: Vec<u128> = words.iter().map(|&w| u128::from(w & mask)).collect();
        for &w in &masked {
            forward.push(w).expect("capacity ample");
        }
        while let Some(v) = forward.pop() {
            backward.push(v).expect("capacity ample");
        }
        let mut recovered = Vec::new();
        while let Some(v) = backward.pop() {
            recovered.push(v);
        }
        // The inverse can only recover whole output words; residual bits
        // (< lcm alignment) stay buffered. Everything recovered must
        // match, and each adapter must have emitted every whole word its
        // input holds: none may be left buffered.
        let fwd = count * in_width as usize / out_width as usize;
        assert_eq!(
            recovered.len(),
            fwd * out_width as usize / in_width as usize,
            "a whole word left buffered for {in_width}->{out_width}"
        );
        for (r, w) in recovered.iter().zip(&masked) {
            assert_eq!(r, w, "widths {in_width}->{out_width}");
        }
    }
}

/// Two masters issuing interleaved single-word writes to disjoint
/// regions never corrupt each other.
#[test]
fn concurrent_masters_keep_data_disjoint() {
    let mut rng = XorShift64::new(0xB0_0004);
    for round in 0..24 {
        let a_vals_len = rng.gen_range_u32(1..40) as usize;
        let a_vals = rng.vec_u32(a_vals_len);
        let b_vals_len = rng.gen_range_u32(1..40) as usize;
        let b_vals = rng.vec_u32(b_vals_len);
        // This coin once picked the arbiter. Drawing it still keeps
        // every round on the values it drew before.
        rng.gen_bool();
        let mut bus = Bus::new(BusConfig::default());
        let a = Bus::register_master(&mut bus);
        let b = Bus::register_master(&mut bus);
        bus.add_slave(0, Sram::with_words(256, SramConfig::no_wait()));
        let mut ai = 0usize;
        let mut bi = 0usize;
        let mut fuel = 1_000_000;
        while ai < a_vals.len() || bi < b_vals.len() {
            fuel -= 1;
            assert!(fuel > 0, "deadlock in round {round}");
            if ai < a_vals.len() && bus.poll(a) == PortState::Idle {
                bus.try_begin(a, TxnRequest::write_word((ai * 4) as u32, a_vals[ai]))
                    .unwrap();
            }
            if bi < b_vals.len() && bus.poll(b) == PortState::Idle {
                bus.try_begin(
                    b,
                    TxnRequest::write_word(0x200 + (bi * 4) as u32, b_vals[bi]),
                )
                .unwrap();
            }
            bus.tick();
            if bus.poll(a) == PortState::Complete {
                bus.take_completion(a).unwrap().unwrap();
                ai += 1;
            }
            if bus.poll(b) == PortState::Complete {
                bus.take_completion(b).unwrap().unwrap();
                bi += 1;
            }
        }
        for (i, &v) in a_vals.iter().enumerate() {
            assert_eq!(bus.debug_read((i * 4) as u32).unwrap(), v);
        }
        for (i, &v) in b_vals.iter().enumerate() {
            assert_eq!(bus.debug_read(0x200 + (i * 4) as u32).unwrap(), v);
        }
    }
}
