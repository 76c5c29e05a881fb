//! A fixed piece of work timed next to every call, to take the box's speed
//! out of the numbers.
//!
//! The benchmark runs on a shared two-core box whose effective speed moves
//! by up to 1.4× for tens of seconds at a time (a busy neighbour on the
//! same core): one seed of `sim_hot` read 9 540 to 12 530 ops/s over eight
//! runs in a row, and no way of sampling inside a 10 s run removes a state
//! that outlasts the run. The yardstick is a loop of this package's own —
//! a small event queue, a hash map and vectors, the instruction mix of the
//! engine — that does the same work every time. A call's time is scaled by
//! `NOMINAL_NS ÷ (the yardstick's time next to the call)`, i.e. reported
//! in **reference microseconds**: what the call would take on a box where
//! the yardstick takes exactly 20 µs. Because the yardstick is benchmark
//! code and never changes with the crates, a faster engine still reads as
//! faster. Over 24 runs of a `sim_hot`-shaped list the interquartile
//! spread of the summed call times fell from 8.3 % (per-call minimum of raw
//! time) to 2.2 % (per-call median of scaled time), and the largest run
//! over the smallest from 1.29 to 1.08.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The yardstick time that reference microseconds are defined by. About
/// what the loop takes on the development box at its fastest, so reference
/// microseconds there read close to wall-clock ones.
pub const NOMINAL_NS: f64 = 20_000.0;

const ROUNDS: u64 = 300;

/// The work: timed events pushed to a heap and filed under a key, every
/// third round the earliest event popped and unfiled.
fn work() -> u64 {
    let mut heap = BinaryHeap::new();
    let mut filed: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut sum = 0;
    let mut x = 88_172_645_463_325_252u64;
    for i in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse((x % 1000, i)));
        filed.entry(x % 64).or_default().push(i);
        if i % 3 == 2 {
            if let Some(Reverse((at, id))) = heap.pop() {
                sum += at + id;
                if let Some(ids) = filed.get_mut(&(id % 64)) {
                    ids.pop();
                }
            }
        }
    }
    sum + heap.len() as u64
}

/// Runs the yardstick once and returns how long it took, in nanoseconds.
pub fn measure() -> f64 {
    let t0 = Instant::now();
    black_box(work());
    (t0.elapsed().as_nanos() as f64).max(1.0)
}

/// The median of five runs in a row: for scaling something long and
/// memory-hungry like a set-up, after which a single run mostly measures
/// cold caches.
pub fn measure_settled() -> f64 {
    let mut runs = [0.0; 5].map(|_: f64| measure());
    runs.sort_by(f64::total_cmp);
    runs[2]
}

/// `ns` of wall time, measured while the yardstick took `yardstick_ns`, in
/// reference nanoseconds.
pub fn scale(ns: f64, yardstick_ns: f64) -> f64 {
    ns * NOMINAL_NS / yardstick_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_the_same_every_time() {
        assert_eq!(work(), work());
        assert!(measure() >= 1.0);
    }

    #[test]
    fn a_slow_box_scales_down_and_a_fast_one_up() {
        // The yardstick took twice its nominal time: the box ran at half
        // speed, so the call would have taken half as long.
        assert_eq!(scale(1000.0, 2.0 * NOMINAL_NS), 500.0);
        assert_eq!(scale(1000.0, NOMINAL_NS), 1000.0);
        assert_eq!(scale(1000.0, NOMINAL_NS / 2.0), 2000.0);
    }
}
