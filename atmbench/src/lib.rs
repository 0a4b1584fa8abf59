//! The workload-independent parts of the `atmbench` benchmark: order
//! statistics, wall-clock spans, run records, and the parent-versus-change
//! comparison. The workloads themselves live in the binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod record;
pub mod stats;
pub mod trace;

/// SplitMix64: the one-shot mixer behind every derived seed.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of job `i` of a workload run with seed `seed`. The run seed
/// is mixed before the job index is added, so runs with neighbouring
/// seeds share no jobs.
#[must_use]
pub fn job_seed(seed: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed).wrapping_add(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seeds_are_distinct_and_reproducible() {
        assert_eq!(job_seed(7, 3), job_seed(7, 3));
        assert_ne!(job_seed(7, 3), job_seed(7, 4));
        // Neighbouring run seeds do not shift onto each other's jobs.
        assert_ne!(job_seed(7, 1), job_seed(8, 0));
        // The published SplitMix64 output for state 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }
}
