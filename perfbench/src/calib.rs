//! Host-speed calibration.
//!
//! The benchmark runs on shared machines whose speed drifts by a quarter
//! or more over tens of seconds while other tenants load them. Longer
//! runs and medians do not remove drift that lasts longer than a run, so
//! every timed repetition is paired with a short, fixed calibration
//! kernel that uses only the standard library (so no change to the
//! repository can alter it) and, like the simulator's memory models,
//! makes random accesses into a hash map of a few MiB: of the kernels
//! tried (arithmetic, branches and queues, allocation, hash map), its
//! time tracked the simulator's through host drift most closely. Host
//! times are then reported in *reference seconds*: wall seconds scaled
//! by [`KERNEL_REF_S`] over the kernel's time measured next to them. On
//! an unloaded host of the kind the benchmark was defined on, a
//! reference second is about a wall second; the raw wall-clock values
//! are printed beside the normalized ones.
//!
//! Set-up is scaled the same way by a second kernel: constructing an
//! assembly is allocation and zero-filling, which the hash-map kernel
//! does not track, so each set-up sample is paired with a short
//! allocation kernel run right after it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Map operations of the calibration kernel per measurement.
const KERNEL_OPS: u64 = 400_000;

/// Distinct keys the kernel's map holds at most (a few MiB, like the
/// memory models' backing stores).
const KERNEL_KEYS: u64 = 150_000;

/// Time the kernel takes on the reference host, in seconds (the 2-vCPU
/// x86-64 virtual machine the benchmark was defined on, release build,
/// unloaded).
pub const KERNEL_REF_S: f64 = 0.020;

fn kernel(ops: u64) -> u64 {
    // A fixed-key hasher, so every run builds the same table.
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc = 0u64;
    for _ in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % KERNEL_KEYS;
        *map.entry(key).or_insert(0) += 1;
        acc ^= map.get(&(key ^ 1)).copied().unwrap_or(3);
    }
    acc.wrapping_add(map.len() as u64)
}

/// Rounds of the allocation kernel per measurement.
const ALLOC_ROUNDS: u64 = 1_000;

/// Time the allocation kernel takes on the reference host, in seconds
/// (measured beside the hash-map kernel, scaled to its reference time).
pub const ALLOC_KERNEL_REF_S: f64 = 0.000_5;

fn alloc_kernel(rounds: u64) -> u64 {
    let mut acc = 0u64;
    for r in 0..rounds {
        // Sixteen small buffers of assorted sizes and one zeroed 32 KiB
        // buffer, all freed at the end of the round, as building and
        // dropping an assembly does.
        let small: Vec<Vec<u64>> = (0..16u64)
            .map(|i| {
                let n = 4 + ((r * 31 + i * 17) % 60) as usize;
                let mut v = vec![0u64; n];
                v[n / 2] = i;
                v
            })
            .collect();
        let mut big = vec![0u64; 4096];
        big[(r % 4096) as usize] = r;
        let small = std::hint::black_box(small);
        let sum: u64 = small.iter().map(|v| v[v.len() / 2]).sum();
        acc = acc.wrapping_add(sum ^ std::hint::black_box(big)[0]);
    }
    acc
}

/// Runs the allocation kernel once; returns its wall time in seconds.
#[must_use]
pub fn alloc_kernel_s() -> f64 {
    let start = Instant::now();
    std::hint::black_box(alloc_kernel(std::hint::black_box(ALLOC_ROUNDS)));
    start.elapsed().as_secs_f64()
}

/// Runs the calibration kernel once; returns its wall time in seconds.
#[must_use]
pub fn kernel_s() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(KERNEL_OPS)));
    start.elapsed().as_secs_f64()
}

/// Converts `wall_s` measured while the kernel took `kernel_s` into
/// reference seconds.
#[must_use]
pub fn to_ref_s(wall_s: f64, kernel_s: f64) -> f64 {
    wall_s * KERNEL_REF_S / kernel_s
}
