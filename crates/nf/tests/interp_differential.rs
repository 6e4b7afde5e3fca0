//! The interpreter is generic over its sink. Whether the sink arrives as
//! `&mut dyn ExecSink` or monomorphised must change nothing: the result, the
//! final memory, and every event, in order, are the same for every NF. The
//! recorder keeps each block charge whole, so a `&mut dyn` path that fell
//! back to per-class `retire` calls would show up as a different stream.

use castan_ir::{BlockCost, CostClass, DataMemory, ExecResult, ExecSink, Interpreter};
use castan_nf::{all_nfs, layout, NfKind, NfSpec};
use castan_packet::{Ipv4Addr, Packet, PacketBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Debug, PartialEq, Eq)]
enum Event {
    Block(BlockCost),
    Retire(CostClass),
    Mem(u64, u64, bool),
    NativeEnter,
    NativeExit,
}

#[derive(Default)]
struct Recorder(Vec<Event>);

impl ExecSink for Recorder {
    fn retire(&mut self, class: CostClass) {
        self.0.push(Event::Retire(class));
    }
    fn retire_block(&mut self, cost: &BlockCost) {
        self.0.push(Event::Block(cost.clone()));
    }
    fn mem_access(&mut self, addr: u64, width: u64, is_write: bool) {
        self.0.push(Event::Mem(addr, width, is_write));
    }
    fn native_enter(&mut self) {
        self.0.push(Event::NativeEnter);
    }
    fn native_exit(&mut self) {
        self.0.push(Event::NativeExit);
    }
}

/// 300 packets over ~40 flows (so stateful NFs both insert and find),
/// aimed at the addresses the NFs serve and at ones they do not.
fn packets(seed: u64) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..300)
        .map(|_| {
            let flow: u32 = rng.random_range(0..40);
            let dst = match rng.random_range(0..3u32) {
                0 => layout::LB_VIP,
                1 => 0x0a00_0000 | rng.random_range(0..1u32 << 24),
                _ => rng.random(),
            };
            PacketBuilder::new()
                .src_ip(Ipv4Addr(0xc0a8_0000 + flow))
                .src_port(1024 + (flow * 7) as u16)
                .dst_ip(Ipv4Addr(dst))
                .dst_port(if flow & 1 == 0 { 80 } else { 443 })
                .build()
        })
        .collect()
}

fn run(nf: &NfSpec, packets: &[Packet], as_dyn: bool) -> (Vec<ExecResult>, Vec<Event>, DataMemory) {
    let interp = Interpreter::new(&nf.program, &nf.natives);
    let mut mem = nf.initial_memory.clone();
    let mut rec = Recorder::default();
    let results = packets
        .iter()
        .map(|pkt| {
            if as_dyn {
                // Borrowed again: the sink the interpreter sees is the
                // blanket `&mut S` impl, forwarding to the trait object.
                let mut sink: &mut dyn ExecSink = &mut rec;
                interp.run_packet(&mut mem, pkt, &mut sink)
            } else {
                interp.run_packet(&mut mem, pkt, &mut rec)
            }
            .expect("catalogue NFs run to completion")
        })
        .collect();
    (results, rec.0, mem)
}

#[test]
fn dyn_and_monomorphised_sinks_see_the_same_execution() {
    let packets = packets(7);
    let mut saw_native = false;
    for nf in all_nfs() {
        let (res_dyn, events_dyn, mem_dyn) = run(&nf, &packets, true);
        let (res_mono, events_mono, mem_mono) = run(&nf, &packets, false);
        assert_eq!(res_dyn, res_mono, "{}: results", nf.name());
        assert_eq!(events_dyn.len(), events_mono.len(), "{}", nf.name());
        assert!(events_dyn == events_mono, "{}: event streams", nf.name());
        assert_eq!(
            mem_dyn.resident_pages(),
            mem_mono.resident_pages(),
            "{}",
            nf.name()
        );
        // Final memory, at every address either run touched.
        let mut stored = 0;
        for ev in &events_dyn {
            if let Event::Mem(addr, width, is_write) = *ev {
                stored += usize::from(is_write);
                assert_eq!(
                    mem_dyn.read(addr, width),
                    mem_mono.read(addr, width),
                    "{}: memory at {addr:#x}",
                    nf.name()
                );
            }
        }
        // Blocks charge every IR step; only native helpers retire one
        // instruction at a time.
        let steps: u64 = res_dyn.iter().map(|r| r.steps).sum();
        let mut charged = 0;
        let mut native_depth = 0;
        for ev in &events_dyn {
            match ev {
                Event::Block(cost) => {
                    assert_eq!(native_depth, 0, "{}: block inside a helper", nf.name());
                    charged += cost.instructions();
                }
                Event::Retire(_) => {
                    assert!(native_depth > 0, "{}: IR retire outside a block", nf.name())
                }
                Event::NativeEnter => native_depth += 1,
                Event::NativeExit => native_depth -= 1,
                Event::Mem(..) => {}
            }
        }
        assert_eq!(charged, steps, "{}: every step is charged once", nf.name());
        if matches!(nf.kind, NfKind::Nat | NfKind::Lb) {
            assert!(stored > 0, "{}: stateful NFs store", nf.name());
        }
        saw_native |= events_dyn.contains(&Event::NativeEnter);
    }
    assert!(saw_native, "the red-black tree NFs call a native helper");
}
