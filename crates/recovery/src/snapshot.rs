//! Sealed, checksummed snapshots of deterministic state.
//!
//! Every layer of the stack already exposes a deep-copy checkpoint
//! (`SystemCheckpoint`, `ManagerCheckpoint`, `ChipServerCheckpoint`,
//! `FleetRunCheckpoint`). A [`Snapshot`] wraps any of them — any
//! `Debug + Clone` state, in fact — behind a format version and an
//! FNV-1a 64 checksum of the state's exhaustive `Debug` rendering, so a
//! checkpoint that was corrupted (or produced by an incompatible build)
//! is *refused* at restore time instead of silently resuming a diverged
//! timeline.
//!
//! The `Debug` rendering is the right integrity witness here because the
//! whole stack already treats it as the canonical byte-identity format:
//! `f64` renders shortest-roundtrip (equal renderings ⟺ equal bits), the
//! few maps involved are `BTreeMap`s, and the golden files under
//! `tests/data/` pin exactly these renderings.

use std::fmt;

/// The snapshot format version this build seals and accepts.
///
/// Bump it whenever the `Debug` rendering of any checkpointed layer
/// changes shape — a sealed snapshot is only meaningful to the build
/// that produced it (checkpoints are in-memory values, not archives),
/// and the version check turns a cross-build mix-up into a clean error.
pub const SNAPSHOT_VERSION: u32 = 2;

/// FNV-1a 64-bit over `bytes` — the stack's standing checksum for
/// deterministic renderings (no dependencies, stable across platforms).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The FNV-1a 64 digest of a state's exhaustive `Debug` rendering — the
/// byte-identity witness two equal deterministic states must share.
#[must_use]
pub fn state_digest<T: fmt::Debug>(state: &T) -> u64 {
    fnv1a64(format!("{state:?}").as_bytes())
}

/// Why a sealed snapshot was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was sealed by a different format version.
    VersionMismatch {
        /// The version recorded in the snapshot.
        found: u32,
        /// The version this build accepts ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The state's digest no longer matches the sealed checksum.
    ChecksumMismatch {
        /// The digest recomputed from the carried state.
        found: u64,
        /// The checksum recorded at seal time.
        expected: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "snapshot version {found} (this build accepts {expected})"
                )
            }
            SnapshotError::ChecksumMismatch { found, expected } => write!(
                f,
                "snapshot checksum {found:#018x} does not match sealed {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A versioned, checksummed deep copy of one deterministic state.
///
/// Sealing computes the state's [`state_digest`]; every access through
/// [`state`](Snapshot::state) or [`into_state`](Snapshot::into_state)
/// re-verifies it, so corruption between seal and restore surfaces as a
/// [`SnapshotError`] instead of a diverged resume. The `version` and
/// `checksum` fields are public — deliberately, so integrity tests can
/// corrupt them and prove the refusal path works.
#[derive(Debug, Clone)]
pub struct Snapshot<T> {
    /// Format version at seal time ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// [`state_digest`] of the carried state at seal time.
    pub checksum: u64,
    state: T,
}

impl<T: fmt::Debug> Snapshot<T> {
    /// Seals `state` under the current version and its digest.
    #[must_use]
    pub fn seal(state: T) -> Self {
        Snapshot {
            version: SNAPSHOT_VERSION,
            checksum: state_digest(&state),
            state,
        }
    }

    /// Checks the version and re-derives the checksum.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::VersionMismatch`] when the snapshot was sealed
    /// under a different [`SNAPSHOT_VERSION`];
    /// [`SnapshotError::ChecksumMismatch`] when the carried state no
    /// longer digests to the sealed checksum.
    pub fn verify(&self) -> Result<(), SnapshotError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: self.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let found = state_digest(&self.state);
        if found != self.checksum {
            return Err(SnapshotError::ChecksumMismatch {
                found,
                expected: self.checksum,
            });
        }
        Ok(())
    }

    /// Borrows the sealed state after verifying it.
    ///
    /// # Errors
    ///
    /// Propagates [`Snapshot::verify`]'s errors.
    pub fn state(&self) -> Result<&T, SnapshotError> {
        self.verify()?;
        Ok(&self.state)
    }

    /// Unwraps the sealed state after verifying it.
    ///
    /// # Errors
    ///
    /// Propagates [`Snapshot::verify`]'s errors.
    pub fn into_state(self) -> Result<T, SnapshotError> {
        self.verify()?;
        Ok(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn a_clean_snapshot_round_trips() {
        let snap = Snapshot::seal(vec![1u32, 2, 3]);
        assert_eq!(snap.state().unwrap(), &vec![1, 2, 3]);
        assert_eq!(snap.clone().into_state().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn a_corrupted_checksum_is_refused() {
        let mut snap = Snapshot::seal(String::from("state"));
        snap.checksum ^= 1;
        assert!(matches!(
            snap.verify(),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        assert!(snap.state().is_err());
    }

    #[test]
    fn a_foreign_version_is_refused_before_the_checksum() {
        let mut snap = Snapshot::seal(0u8);
        snap.version += 1;
        assert_eq!(
            snap.verify(),
            Err(SnapshotError::VersionMismatch {
                found: SNAPSHOT_VERSION + 1,
                expected: SNAPSHOT_VERSION,
            })
        );
    }

    #[test]
    fn errors_render_for_operators() {
        let err = SnapshotError::VersionMismatch {
            found: 2,
            expected: 1,
        };
        assert!(err.to_string().contains("version 2"));
    }
}
