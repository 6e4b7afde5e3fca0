//! The interpreter is generic over its sink. Whether the sink arrives as
//! `&mut dyn ExecSink` or monomorphised must change nothing: the result, the
//! final memory, and every event, in order, are the same for every NF.

use castan_ir::{CostClass, DataMemory, ExecResult, ExecSink, Interpreter};
use castan_nf::{all_nfs, layout, NfKind, NfSpec};
use castan_packet::{Ipv4Addr, Packet, PacketBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Debug, PartialEq, Eq)]
enum Event {
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
                let sink: &mut dyn ExecSink = &mut rec;
                interp.run_packet(&mut mem, pkt, sink)
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
        let steps: u64 = res_dyn.iter().map(|r| r.steps).sum();
        let retired = events_dyn
            .iter()
            .filter(|e| matches!(e, Event::Retire(_)))
            .count() as u64;
        assert!(retired >= steps, "{}: every step retires", nf.name());
        if matches!(nf.kind, NfKind::Nat | NfKind::Lb) {
            assert!(stored > 0, "{}: stateful NFs store", nf.name());
        }
        saw_native |= events_dyn.contains(&Event::NativeEnter);
    }
    assert!(saw_native, "the red-black tree NFs call a native helper");
}
