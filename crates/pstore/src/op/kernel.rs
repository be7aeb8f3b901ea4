//! Shared primitives of the morsel-driven execution kernel.
//!
//! The paper's kernel is "cache-conscious and multi-threaded" (Section 5.1).
//! This module holds the pieces the operators share to earn that description:
//!
//! * [`JoinKernelConfig`] — the two tunables of the join kernel (morsel size
//!   and radix bits) with validated, benchmarked defaults,
//! * [`KeySlice`] — an integer key column borrowed as a typed slice, so the
//!   hot loops hash raw `i64`/`i32` values with no per-row type dispatch,
//! * [`MorselCursor`] — the shared atomic cursor workers steal fixed-size
//!   row ranges (*morsels*) from until the probe side is drained,
//! * [`RadixTable`] — an open-addressing hash table from each distinct key
//!   to its build-side multiplicity: one flat allocation per partition, no
//!   per-key `Vec`s.

use crate::error::PStoreError;
use eedc_storage::Column;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default morsel size in rows. 16K rows of the paper's 20-byte projected
/// tuples is ~320 KB — comfortably inside an L2 cache while still coarse
/// enough that cursor traffic is negligible (one atomic op per ~16K rows).
const DEFAULT_MORSEL_ROWS: usize = 16_384;

/// Default number of radix bits. 2^4 = 16 partitions keeps each partition's
/// open-addressing table small enough to stay cache-resident for the
/// paper-scale build sides (10 MB) without paying partitioning overhead on
/// tiny inputs.
const DEFAULT_RADIX_BITS: u8 = 4;

/// Upper bound on radix bits (4096 partitions); beyond this the per-partition
/// bookkeeping dominates any locality win at the data sizes this engine runs.
const MAX_RADIX_BITS: u8 = 12;

/// Number of probe worker threads to use when the caller does not pin one:
/// the machine's available parallelism, clamped to `[1, 16]`.
///
/// The pre-morsel kernel hard-coded 2 workers; callers that want that exact
/// behaviour back set `threads: 2` explicitly instead of relying on the
/// default.
#[expect(
    clippy::disallowed_methods,
    reason = "the thread-count *default* is deliberately machine-sized; join results are thread-count invariant (pinned by kernel_properties.rs)"
)]
pub fn default_worker_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 16)
}

/// Tunables of the morsel-driven join kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinKernelConfig {
    /// Rows per morsel claimed from the shared probe cursor.
    pub morsel_rows: usize,
    /// log2 of the number of radix partitions the build side is split into
    /// before per-partition hash tables are built. `0` disables partitioning
    /// (a single table).
    pub radix_bits: u8,
}

impl Default for JoinKernelConfig {
    fn default() -> Self {
        Self {
            morsel_rows: DEFAULT_MORSEL_ROWS,
            radix_bits: DEFAULT_RADIX_BITS,
        }
    }
}

impl JoinKernelConfig {
    /// Reject configurations the kernel cannot run with.
    pub fn validate(&self) -> Result<(), PStoreError> {
        if self.morsel_rows == 0 {
            return Err(PStoreError::planning("morsel size must be at least 1 row"));
        }
        if self.radix_bits > MAX_RADIX_BITS {
            return Err(PStoreError::planning(format!(
                "radix bits {} exceed the maximum of {MAX_RADIX_BITS}",
                self.radix_bits
            )));
        }
        Ok(())
    }

    /// Number of radix partitions (`2^radix_bits`).
    pub fn partitions(&self) -> usize {
        1 << self.radix_bits
    }
}

/// An integer key column borrowed as a typed slice. Resolving the column to a
/// slice once up front is what lets the build and probe loops hash raw
/// integers.
#[derive(Debug, Clone, Copy)]
pub enum KeySlice<'a> {
    /// A 64-bit integer key column.
    I64(&'a [i64]),
    /// A 32-bit integer key column (widened to `i64` per access, as partition
    /// placement widens it, so mixed-width joins keep working).
    I32(&'a [i32]),
}

impl<'a> KeySlice<'a> {
    /// Borrow `column` as a key slice.
    pub fn from_column(column: &'a Column) -> Self {
        match column {
            Column::Int64(values) => KeySlice::I64(values),
            Column::Int32(values) => KeySlice::I32(values),
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        match self {
            KeySlice::I64(values) => values.len(),
            KeySlice::I32(values) => values.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key of `row`, widened to `i64`.
    #[inline]
    pub fn get(&self, row: usize) -> i64 {
        match self {
            KeySlice::I64(values) => values[row],
            KeySlice::I32(values) => i64::from(values[row]),
        }
    }
}

/// The shared morsel cursor. Workers are pre-assigned one *first-claim*
/// morsel each (worker `w` starts on morsel `w`) and the atomic cursor hands
/// out the rest, so every worker is guaranteed to retire at least one morsel
/// whenever there are at least as many morsels as workers — even on a single
/// hardware thread, where a purely shared cursor would let the first worker
/// drain everything before the others get scheduled.
#[derive(Debug)]
pub struct MorselCursor {
    next: AtomicUsize,
    morsels: usize,
    morsel_rows: usize,
    total_rows: usize,
}

impl MorselCursor {
    /// A cursor over `total_rows` rows in morsels of `morsel_rows`, with the
    /// first `reserved` morsels pre-assigned (one per worker).
    pub fn new(total_rows: usize, morsel_rows: usize, reserved: usize) -> Self {
        let morsels = total_rows.div_ceil(morsel_rows.max(1));
        Self {
            next: AtomicUsize::new(reserved),
            morsels,
            morsel_rows: morsel_rows.max(1),
            total_rows,
        }
    }

    /// Total number of morsels.
    pub fn morsels(&self) -> usize {
        self.morsels
    }

    /// The row range of `morsel`.
    pub fn range_of(&self, morsel: usize) -> std::ops::Range<usize> {
        let start = morsel * self.morsel_rows;
        start..(start + self.morsel_rows).min(self.total_rows)
    }

    /// Steal the next unclaimed morsel, or `None` once the input is drained.
    pub fn claim(&self) -> Option<usize> {
        let morsel = self.next.fetch_add(1, Ordering::Relaxed);
        (morsel < self.morsels).then_some(morsel)
    }
}

/// An open-addressing hash table from each distinct key of one radix
/// partition of the build side to its multiplicity — the number of build
/// rows carrying it, which is all a counting probe reads.
///
/// Layout: `slots` is a power-of-two probe array holding entry indices (`-1`
/// for empty); `keys`/`counts` are parallel entry arrays, one entry per
/// distinct key in first-insertion order. Duplicate keys share one entry, so
/// a probe reads one count however many build rows matched.
///
/// Slot indices are taken from the hash bits *above* the radix bits
/// (`hash >> radix_bits`); the low bits already picked the partition, so
/// reusing them would collapse every key in a partition onto a few slots.
#[derive(Debug)]
pub struct RadixTable {
    slots: Vec<i32>,
    keys: Vec<i64>,
    counts: Vec<u32>,
    mask: u64,
    radix_bits: u8,
}

impl RadixTable {
    /// A table sized for `expected` build rows in a partition selected by
    /// `radix_bits` low hash bits.
    pub fn with_capacity(expected: usize, radix_bits: u8) -> Self {
        // Keep the load factor at or below 0.5.
        let slot_count = (expected.max(1) * 2).next_power_of_two();
        Self {
            slots: vec![-1; slot_count],
            keys: Vec::with_capacity(expected),
            counts: Vec::with_capacity(expected),
            mask: (slot_count - 1) as u64,
            radix_bits,
        }
    }

    #[inline]
    fn slot_of(&self, hash: u64) -> usize {
        ((hash >> self.radix_bits) & self.mask) as usize
    }

    /// Count one build row with `key`. `hash` must be the key's full hash
    /// (the same one that selected this partition).
    pub fn insert(&mut self, key: i64, hash: u64) {
        debug_assert!(
            self.keys.len() * 2 < self.slots.len(),
            "RadixTable sized for {} keys overfilled",
            self.slots.len() / 2
        );
        let mut slot = self.slot_of(hash);
        loop {
            let entry = self.slots[slot];
            if entry < 0 {
                self.slots[slot] = self.keys.len() as i32;
                self.keys.push(key);
                self.counts.push(1);
                return;
            }
            if self.keys[entry as usize] == key {
                self.counts[entry as usize] += 1;
                return;
            }
            slot = (slot + 1) & self.mask as usize;
        }
    }

    /// How many build rows carry `key`.
    #[inline]
    pub fn matches(&self, key: i64, hash: u64) -> usize {
        let mut slot = self.slot_of(hash);
        loop {
            let entry = self.slots[slot];
            if entry < 0 {
                return 0;
            }
            if self.keys[entry as usize] == key {
                return self.counts[entry as usize] as usize;
            }
            slot = (slot + 1) & self.mask as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eedc_storage::hash_i64;

    #[test]
    fn config_defaults_and_validation() {
        let config = JoinKernelConfig::default();
        assert_eq!(config.morsel_rows, DEFAULT_MORSEL_ROWS);
        assert_eq!(config.radix_bits, DEFAULT_RADIX_BITS);
        assert_eq!(config.partitions(), 16);
        config.validate().unwrap();
        assert!(JoinKernelConfig {
            morsel_rows: 0,
            ..config
        }
        .validate()
        .is_err());
        assert!(JoinKernelConfig {
            radix_bits: MAX_RADIX_BITS + 1,
            ..config
        }
        .validate()
        .is_err());
        assert_eq!(
            JoinKernelConfig {
                radix_bits: 0,
                ..config
            }
            .partitions(),
            1
        );
    }

    #[test]
    fn key_slice_widens_i32() {
        let narrow = Column::Int32(vec![-3, 7, i32::MIN]);
        let keys = KeySlice::from_column(&narrow);
        assert_eq!(keys.len(), 3);
        assert!(!keys.is_empty());
        assert_eq!(keys.get(0), -3_i64);
        assert_eq!(keys.get(2), i64::from(i32::MIN));
        let wide = Column::Int64(vec![i64::MIN]);
        let keys = KeySlice::from_column(&wide);
        assert_eq!(keys.get(0), i64::MIN);
    }

    #[test]
    fn morsel_cursor_covers_every_row_exactly_once() {
        let cursor = MorselCursor::new(100, 32, 2);
        assert_eq!(cursor.morsels(), 4);
        // First-claim morsels 0 and 1 are reserved; the cursor serves 2, 3.
        let mut claimed = vec![0, 1];
        while let Some(m) = cursor.claim() {
            claimed.push(m);
        }
        claimed.sort_unstable();
        assert_eq!(claimed, vec![0, 1, 2, 3]);
        let rows: usize = claimed.iter().map(|&m| cursor.range_of(m).len()).sum();
        assert_eq!(rows, 100);
        assert_eq!(cursor.range_of(3), 96..100);
        // Empty input has zero morsels.
        assert_eq!(MorselCursor::new(0, 32, 1).morsels(), 0);
        assert!(MorselCursor::new(0, 32, 0).claim().is_none());
    }

    #[test]
    fn radix_table_probes_duplicates_and_misses() {
        let mut table = RadixTable::with_capacity(4, 0);
        for key in [10, 11, 10, 10] {
            table.insert(key, hash_i64(key));
        }
        assert_eq!(table.matches(10, hash_i64(10)), 3);
        assert_eq!(table.matches(11, hash_i64(11)), 1);
        assert_eq!(table.matches(99, hash_i64(99)), 0);
        assert_eq!(table.matches(0, hash_i64(0)), 0);
    }

    #[test]
    fn radix_table_survives_slot_collisions() {
        // A tightly sized slot array (load factor 0.5 over 128 keys) makes
        // slot collisions certain; linear probing must keep every distinct
        // key retrievable.
        let keys: Vec<i64> = (0..128).map(|i| (i as i64 - 64) * 7919).collect();
        let mut table = RadixTable::with_capacity(keys.len(), 4);
        for &key in &keys {
            table.insert(key, hash_i64(key));
        }
        for &key in &keys {
            assert_eq!(table.matches(key, hash_i64(key)), 1);
        }
    }

    #[test]
    fn default_worker_threads_is_clamped() {
        let threads = default_worker_threads();
        assert!((1..=16).contains(&threads));
    }
}
