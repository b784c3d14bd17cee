//! The host-speed yardstick.
//!
//! The host this benchmark was designed on runs in phases: for seconds to
//! minutes at a time every instruction stream gets ~1.6x faster or slower,
//! so a run's raw rep times depend on which phases it caught. Each rep is
//! therefore bracketed by this fixed kernel, and the rep's wall time is
//! divided by the host factor it measures (see [`host_factor`]).
//!
//! The kernel is a miniature event loop — a binary-heap calendar, an
//! ordered map of boxed records and a FIFO, driven by a xorshift stream —
//! so it leans on the same branchy, allocation- and pointer-heavy
//! instruction mix as the simulator and slows with it. It is part of the
//! benchmark, not of the program under test: editing it changes every
//! normalized figure, and `kernel_is_frozen` pins its result.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Iterations per kernel call (~2.5 ms on the reference host).
pub const ITERATIONS: u64 = 30_000;

/// The kernel's wall time on the reference host in its slow phase (a
/// 2-vCPU KVM guest), seconds. Normalized times are expressed in seconds
/// of that host.
pub const NOMINAL_S: f64 = 2.4e-3;

/// Run the kernel for `n` iterations; returns a checksum.
pub fn kernel(n: u64) -> u64 {
    let mut calendar = BinaryHeap::new();
    let mut records: BTreeMap<u64, Box<[u64; 8]>> = BTreeMap::new();
    let mut fifo: VecDeque<u64> = VecDeque::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for id in 0..64u64 {
        calendar.push(Reverse((id * 100, id)));
    }
    for i in 0..n {
        let Reverse((now, id)) = calendar.pop().expect("the calendar never drains");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x.is_multiple_of(3) {
            records.insert(id.wrapping_mul(2_654_435_761) ^ i, Box::new([x; 8]));
            fifo.push_back(id);
        } else if let Some(k) = fifo.pop_front() {
            if let Some((_, r)) = records.pop_first() {
                acc = acc.wrapping_add(r[k as usize % 8]);
            }
        }
        if records.len() > 512 {
            records.pop_first();
        }
        calendar.push(Reverse((now + 100 + x % 1000, id)));
    }
    acc
}

/// Wall seconds of one [`ITERATIONS`]-long kernel call.
pub fn measure() -> f64 {
    let t = Instant::now();
    black_box(kernel(black_box(ITERATIONS)));
    t.elapsed().as_secs_f64()
}

/// How much slower than nominal the host ran, from the kernel times taken
/// just before and just after a rep: a wall time divided by this factor
/// is in reference-host seconds.
pub fn host_factor(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_frozen() {
        assert_eq!(kernel(ITERATIONS), kernel(ITERATIONS));
        assert_eq!(kernel(ITERATIONS), 15_537_376_592_440_349_686);
    }

    #[test]
    fn host_factor_scales_by_nominal() {
        assert_eq!(host_factor(NOMINAL_S, NOMINAL_S), 1.0);
        assert_eq!(host_factor(NOMINAL_S, 3.0 * NOMINAL_S), 2.0);
    }
}
