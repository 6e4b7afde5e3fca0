//! `DataMemory` against a plain byte map: random interleavings of every
//! mutating call, at the places the page directory changes shape (page
//! boundaries, the end of the radix, the top of the address space).

use std::collections::{BTreeMap, BTreeSet};

use castan_ir::DataMemory;
use proptest::prelude::*;

/// The reference: every byte ever written, zeroes included.
type Model = BTreeMap<u64, u8>;

/// Operations land within 64 bytes of one of these, so they overlap.
const ANCHORS: [u64; 7] = [
    0,
    0x0FF8,             // straddles the first page boundary
    0x2000_0FFC,        // a node-pool page boundary
    (1 << 36) - 4,      // last radix page into the first far page
    (1 << 45) + 0x0FFD, // far pages
    u64::MAX - 0x1010,  // the last two pages
    u64::MAX - 3,       // wraps to address 0
];

fn le_bytes(value: u64, width: u64) -> Vec<u8> {
    value.to_le_bytes()[..width as usize].to_vec()
}

fn model_write(model: &mut Model, addr: u64, bytes: &[u8]) {
    for (i, &b) in bytes.iter().enumerate() {
        model.insert(addr.wrapping_add(i as u64), b);
    }
}

fn model_read(model: &Model, addr: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| *model.get(&addr.wrapping_add(i as u64)).unwrap_or(&0))
        .collect()
}

fn assert_matches(mem: &DataMemory, model: &Model) {
    for (&addr, &byte) in model {
        assert_eq!(mem.read_byte(addr), byte, "byte at {addr:#x}");
    }
    let pages: BTreeSet<u64> = model.keys().map(|a| a >> 12).collect();
    assert_eq!(mem.resident_pages(), pages.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn data_memory_matches_a_byte_map(
        ops in proptest::collection::vec(
            (0usize..4, 0usize..ANCHORS.len(), 0u64..64, any::<u64>(), 1u64..=8),
            1..80,
        ),
        count in 0u64..600,
    ) {
        let mut mem = DataMemory::new();
        let mut model = Model::new();
        let mut snapshot = None;
        for (n, &(kind, anchor, offset, value, width)) in ops.iter().enumerate() {
            if n == ops.len() / 2 {
                snapshot = Some((mem.clone(), model.clone()));
            }
            let addr = ANCHORS[anchor].wrapping_add(offset);
            match kind {
                0 => {
                    mem.write(addr, value, width);
                    model_write(&mut model, addr, &le_bytes(value, width));
                }
                1 => {
                    // Up to 4.8 kB: two or three pages per call.
                    mem.fill(addr, value, width, count);
                    for i in 0..count {
                        let at = addr.wrapping_add(i * width);
                        model_write(&mut model, at, &le_bytes(value, width));
                    }
                }
                2 => {
                    let bytes: Vec<u8> = (0..(value % 5000) as usize)
                        .map(|i| (value >> (i % 8 * 8)) as u8 ^ i as u8)
                        .collect();
                    mem.write_bytes(addr, &bytes);
                    model_write(&mut model, addr, &bytes);
                }
                _ => {}
            }
            // Every step also reads, at this width and across the span.
            let expect = model_read(&model, addr, width as usize);
            prop_assert_eq!(le_bytes(mem.read(addr, width), width), expect);
            let back = addr.wrapping_sub(16);
            prop_assert_eq!(mem.read_bytes(back, 4200), model_read(&model, back, 4200));
        }
        assert_matches(&mem, &model);
        // The clone taken half-way saw none of the later writes.
        let (old_mem, old_model) = snapshot.expect("at least one op");
        assert_matches(&old_mem, &old_model);
    }
}
