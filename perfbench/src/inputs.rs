//! Inputs derived from the run's `--seed`: the same seed always gives the
//! same bytes, and the program only ever sees generated CSV.

use tracelearn_workloads::Workload as System;

/// Rows of the `learn-long` stream.
pub const LONG_ROWS: usize = 2_000_000;

/// The `index`-th seed derived from the run seed (SplitMix64 of both), so
/// neighbouring run seeds do not share inputs.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A system's trace as CSV bytes (header first), from the workloads crate's
/// simulator.
pub fn csv_of(system: System, rows: usize, seed: u64) -> Vec<u8> {
    let mut csv = Vec::with_capacity(rows * 18);
    system
        .write_csv(rows, seed, &mut csv)
        .expect("writing to memory cannot fail");
    csv
}

/// The data rows of a CSV document (everything after the header line).
pub fn data_rows(csv: &[u8]) -> impl Iterator<Item = &str> {
    std::str::from_utf8(csv)
        .expect("generated CSV is UTF-8")
        .lines()
        .skip(1)
        .filter(|row| !row.trim().is_empty())
}

/// The header line of a CSV document.
pub fn header(csv: &[u8]) -> &str {
    std::str::from_utf8(csv)
        .expect("generated CSV is UTF-8")
        .lines()
        .next()
        .unwrap_or_default()
}

/// The short name a system's per-layer metric carries.
pub fn short_name(system: System) -> &'static str {
    match system {
        System::UsbSlot => "usb_slot",
        System::UsbAttach => "usb_attach",
        System::Counter => "counter",
        System::SerialPort => "serial",
        System::LinuxKernel => "rtlinux",
        System::Integrator => "integrator",
    }
}

/// Generator seeds `1..=PAPER_POOL` of the `learn-paper` inputs, each
/// with its state counts recorded below.
pub const PAPER_POOL: u64 = 64;

/// Generator seeds `1..=LONG_POOL` of the `learn-long` stream.
pub const LONG_POOL: u64 = 16;

/// Pool seeds on which the integrator's model has six states, not five.
const INTEGRATOR_SIX_STATES: [u64; 5] = [21, 41, 47, 55, 61];

/// The state count the default learner reaches on `system` generated from
/// pool seed `seed` — at the paper length, and for rtlinux also on the
/// `learn-long` stream. Recorded by learning every pool seed once.
pub fn expected_states(system: System, seed: u64) -> usize {
    match system {
        System::UsbSlot | System::Counter => 4,
        System::UsbAttach => 8,
        System::SerialPort => 3,
        System::LinuxKernel => 5,
        System::Integrator if INTEGRATOR_SIX_STATES.contains(&seed) => 6,
        System::Integrator => 5,
    }
}

/// `count` distinct seeds of `1..=pool`, chosen by the run seed.
pub fn pool_seeds(seed: u64, pool: u64, count: usize) -> Vec<u64> {
    let mut seeds: Vec<u64> = (1..=pool).collect();
    // Fisher–Yates, drawing from the derived seeds.
    for i in (1..seeds.len()).rev() {
        let j = (derive_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        seeds.swap(i, j);
    }
    seeds.truncate(count);
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn pool_seeds_are_distinct_members_of_the_pool() {
        let picked = pool_seeds(9, PAPER_POOL, 12);
        assert_eq!(picked, pool_seeds(9, PAPER_POOL, 12));
        assert_ne!(picked, pool_seeds(10, PAPER_POOL, 12));
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
        assert!(sorted.iter().all(|s| (1..=PAPER_POOL).contains(s)));
    }

    #[test]
    fn csv_helpers_split_header_and_rows() {
        let csv = csv_of(System::Counter, 5, 0);
        assert_eq!(header(&csv), "x:int");
        assert_eq!(
            data_rows(&csv).collect::<Vec<_>>(),
            ["1", "2", "3", "4", "5"]
        );
    }
}
