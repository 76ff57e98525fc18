//! The machine-speed reference: a fixed loop, independent of the repo's
//! crates, timed between units so that the end-to-end figures can be
//! scaled to a reference speed.
//!
//! On a shared VM the same unit's wall time drifts by 10–40% in phases
//! that last from seconds to minutes, because neighbouring tenants contend
//! for the cores' pipelines and the shared cache. A run of a minute sits
//! inside one phase, so two runs of the same code can differ by more than
//! any useful bound. The reference loop does the same kinds of work as the
//! simulator (a binary-heap event calendar, per-entity state vectors, a
//! hash map, small allocations, floating-point updates) over a working set
//! of a few MiB, so a phase slows it by about as much as it slows a unit.
//! Scaling each run by `REFERENCE_MS / median reference time` cancels the
//! phase and keeps the program's own speed: the loop's code is the
//! benchmark's, so no change to the repo moves it.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The reference loop's median wall time on the machine the benchmark was
/// tuned on (Xeon Sapphire Rapids, 2 vCPUs of a KVM guest at 2.0 GHz,
/// rustc 1.95, release build) in a quiet phase, ms. Calibrated figures on
/// that machine read as its wall-clock figures when nothing contends.
pub const REFERENCE_MS: f64 = 7.3;

/// Entities in the reference loop's calendar.
const ENTITIES: usize = 4096;
/// Events one reference call dispatches.
const EVENTS: usize = 40_000;
/// Key space of the reference loop's hash map.
const KEYS: u64 = 1 << 16;

/// One entity's state: a few floats and a short history that is pushed to
/// and trimmed, as the simulator's VMs and jobs are.
struct Entity {
    busy: f64,
    load: f64,
    history: Vec<u64>,
}

/// Runs the reference loop once and returns a checksum that depends on
/// every step, so the optimiser cannot drop any of it.
pub fn reference_loop() -> u64 {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut entities: Vec<Entity> =
        (0..ENTITIES).map(|_| Entity { busy: 0.0, load: 1.0, history: Vec::new() }).collect();
    let mut calendar = BinaryHeap::with_capacity(ENTITIES);
    for id in 0..ENTITIES as u32 {
        calendar.push(Reverse((rnd() % 1_000_000, id)));
    }
    // Fixed hash keys, so that every call builds the same table layout.
    let mut table: HashMap<u64, f64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut sum = 0u64;
    for step in 0..EVENTS {
        let Reverse((t, id)) = calendar.pop().expect("the calendar never empties");
        let e = &mut entities[id as usize];
        e.history.push(t);
        if e.history.len() > 12 {
            e.history.drain(..6);
        }
        let mean = e.history.iter().sum::<u64>() as f64 / e.history.len() as f64;
        e.load = 0.9 * e.load + 0.1 * (mean.sqrt() + 1.0).ln();
        e.busy += e.load;
        *table.entry(rnd() % KEYS).or_insert(0.0) += e.load;
        sum = sum.wrapping_add(e.busy.to_bits() >> 20);
        calendar.push(Reverse((t + 1 + rnd() % 20_000, id)));
        if step % 4096 == 4095 {
            let mut loads: Vec<f64> = entities.iter().map(|e| e.load).collect();
            loads.sort_by(f64::total_cmp);
            sum = sum.wrapping_add(loads[loads.len() / 2].to_bits());
            table.retain(|k, _| k % 3 != 0);
        }
    }
    sum.wrapping_add(table.len() as u64)
}

/// Times one call of the reference loop, ms.
fn reference_ms() -> f64 {
    let t = Instant::now();
    black_box(reference_loop());
    t.elapsed().as_secs_f64() * 1e3
}

/// Times reference calls worth about an eighth of `after_ms`, at least
/// one, into `samples`: run right after a timed stretch, they see the same
/// phase of the machine.
pub fn sample(after_ms: f64, samples: &mut Vec<f64>) {
    let mut spent = 0.0;
    while spent == 0.0 || spent < after_ms / 8.0 {
        let r = reference_ms();
        samples.push(r);
        spent += r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_loop_is_deterministic() {
        assert_eq!(reference_loop(), reference_loop());
    }
}
