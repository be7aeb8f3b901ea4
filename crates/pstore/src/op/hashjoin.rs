//! The morsel-driven in-memory hash join operator.
//!
//! This is the paper's workhorse compute operator: "our hash join code is
//! cache-conscious and multi-threaded" (Section 5.1). Every caller reads the
//! join's cardinality and nothing else — the measured path checks it against
//! a reference, the microbenchmark against the foreign key, and time and
//! energy are modeled, not timed — so the product of the join *is* its
//! cardinality, and the kernel runs in two stages:
//!
//! 1. **Partitioned radix build** — build-side keys are hashed once, radix-
//!    partitioned on the low hash bits (counting sort, no per-key
//!    allocations), and workers steal partitions to build private
//!    open-addressing [`RadixTable`]s that map each distinct key to its
//!    multiplicity.
//! 2. **Morsel-stealing count** — probe rows are consumed in fixed-size
//!    *morsels* claimed from a shared atomic [`MorselCursor`], so fast
//!    workers steal work from slow ones instead of idling at a static chunk
//!    boundary. A worker adds up, per probe row, how many build rows share
//!    its key; nothing is written per match.
//!
//! `output_rows` is a sum of per-row counts, so it is the same number for
//! every thread count, morsel size and radix width. A kernel rung that
//! needs the joined rows brings back its own gather, with a caller.

use crate::error::PStoreError;
use crate::op::kernel::{JoinKernelConfig, KeySlice, MorselCursor, RadixTable};
use eedc_storage::{hash_i64, Table};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Row counts of a hash join.
#[derive(Debug, Clone, PartialEq)]
pub struct HashJoinOutput {
    /// Number of rows in the build-side hash table.
    pub build_rows: usize,
    /// Number of probe-side rows scanned.
    pub probe_rows: usize,
    /// Number of output (matching) rows: the sum over probe rows of how many
    /// build rows share the probe row's key.
    pub output_rows: usize,
    /// Morsels retired by each probe worker, in worker order: one entry per
    /// requested thread, zero for a worker that was never started because no
    /// morsel existed for it. With the first-claim scheme every worker
    /// retires at least one morsel whenever there are at least as many
    /// morsels as workers.
    pub morsels_per_worker: Vec<usize>,
}

/// A key's build rows are counted in `u32`, so the build side must have at
/// most `u32::MAX` rows; the probe side is held to the same bound, so the
/// join's limit reads the same from either side. Checked once here; no
/// count can overflow after it.
fn addressable_rows(side: &str, rows: usize) -> Result<usize, PStoreError> {
    match u32::try_from(rows) {
        Ok(_) => Ok(rows),
        Err(_) => Err(PStoreError::planning(format!(
            "{side} side has {rows} rows; the join kernel addresses at most {} per side",
            u32::MAX
        ))),
    }
}

/// Run `task(i)` for every `i` in `0..items` and return the results in index
/// order. Up to `workers` scoped threads share the items: worker `w` starts
/// on item `w` and then steals the next unclaimed index off a shared counter
/// until none is left. With one worker, or at most one item, everything runs
/// on the calling thread. A panicking task panics the caller with the task's
/// own payload.
fn steal<T: Send>(workers: usize, items: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = workers.min(items);
    if workers <= 1 {
        return (0..items).map(task).collect();
    }
    // The counter publishes nothing: results travel through `join`.
    let next = AtomicUsize::new(workers);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|first| {
                let (task, next) = (&task, &next);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut item = first;
                    while item < items {
                        mine.push((item, task(item)));
                        item = next.fetch_add(1, Ordering::Relaxed);
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(item, _)| item);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Join `probe` against `build` on integer key columns `probe_key` /
/// `build_key` and count the joined rows.
///
/// Every `threads` and every `config` (morsel size, radix bits) give the
/// same `output_rows`; the tunables trade cache locality against scheduling
/// overhead, never the result.
///
/// `threads` is an upper bound on the workers of each stage; values of 0 or
/// 1 run everything on the calling thread. A worker is spawned only if work
/// exists for it: the probe starts `min(threads, probe morsels)` workers (on
/// the calling thread when that is one), and a build side smaller than one
/// morsel is hashed and built on the calling thread.
pub fn hash_join_with(
    probe: &Table,
    probe_key: &str,
    build: &Table,
    build_key: &str,
    threads: usize,
    config: JoinKernelConfig,
) -> Result<HashJoinOutput, PStoreError> {
    config.validate()?;
    // Resolve both key columns to typed slices up front: unknown columns are
    // rejected before any work runs.
    let build_keys = KeySlice::from_column(build.column_by_name(build_key)?);
    let probe_keys = KeySlice::from_column(probe.column_by_name(probe_key)?);
    let build_rows = addressable_rows("build", build_keys.len())?;
    let probe_rows = addressable_rows("probe", probe_keys.len())?;

    let workers = threads.max(1);
    let partitions = config.partitions();
    let partition_mask = (partitions - 1) as u64;

    // ---- Stage 1: partitioned radix build -------------------------------
    // A morsel is the smallest unit of parallel work: a build side under
    // one is hashed and built right here, with no thread to start and join.
    let build_workers = if build_rows < config.morsel_rows {
        1
    } else {
        workers
    };
    let mut hashes = vec![0u64; build_rows];
    let hash_range = |hashes: &mut [u64], start: usize| {
        for (i, hash) in hashes.iter_mut().enumerate() {
            *hash = hash_i64(build_keys.get(start + i));
        }
    };
    let hash_chunk = build_rows.div_ceil(build_workers).max(1);
    if build_workers <= 1 || build_rows <= hash_chunk {
        hash_range(&mut hashes, 0);
    } else {
        std::thread::scope(|scope| {
            for (index, chunk) in hashes.chunks_mut(hash_chunk).enumerate() {
                let hash_range = &hash_range;
                scope.spawn(move || hash_range(chunk, index * hash_chunk));
            }
        });
    }

    // Counting sort by partition id (the low radix bits of the hash): one
    // flat array of `(key, hash)` pairs replaces any per-partition Vecs.
    let mut offsets = vec![0usize; partitions + 1];
    for &hash in &hashes {
        offsets[(hash & partition_mask) as usize + 1] += 1;
    }
    for p in 0..partitions {
        offsets[p + 1] += offsets[p];
    }
    let mut cursors: Vec<usize> = offsets[..partitions].to_vec();
    let mut ordered = vec![(0i64, 0u64); build_rows];
    for (row, &hash) in hashes.iter().enumerate() {
        let p = (hash & partition_mask) as usize;
        ordered[cursors[p]] = (build_keys.get(row), hash);
        cursors[p] += 1;
    }
    drop(hashes);

    // Workers steal whole partitions and build private open-addressing
    // tables; nothing is shared mutably, so no locks anywhere.
    let build_partition = |p: usize| {
        let entries = &ordered[offsets[p]..offsets[p + 1]];
        let mut table = RadixTable::with_capacity(entries.len(), config.radix_bits);
        for &(key, hash) in entries {
            table.insert(key, hash);
        }
        table
    };
    let tables = steal(build_workers, partitions, build_partition);
    drop(ordered);

    // ---- Stage 2: morsel-stealing count ---------------------------------
    let cursor = MorselCursor::new(probe_rows, config.morsel_rows, workers);
    // `(matches, morsels retired)` of one worker.
    let probe_worker = |worker: usize| {
        let (mut matches, mut retired) = (0usize, 0usize);
        // First-claim morsel, then steal from the shared cursor until drained.
        let mut morsel = (worker < cursor.morsels()).then_some(worker);
        while let Some(m) = morsel {
            for row in cursor.range_of(m) {
                let key = probe_keys.get(row);
                let hash = hash_i64(key);
                matches += tables[(hash & partition_mask) as usize].matches(key, hash);
            }
            retired += 1;
            morsel = cursor.claim();
        }
        (matches, retired)
    };
    // A worker past the last morsel would find its first claim missing and
    // the cursor drained, so it is never started and reports zero morsels
    // below. One item per started worker: what *they* steal is morsels.
    let probe_workers = workers.min(cursor.morsels());
    let runs = steal(probe_workers, probe_workers, probe_worker);
    let mut morsels_per_worker = vec![0; workers];
    for (slot, &(_, retired)) in morsels_per_worker.iter_mut().zip(&runs) {
        *slot = retired;
    }

    Ok(HashJoinOutput {
        build_rows,
        probe_rows,
        output_rows: runs.iter().map(|&(matches, _)| matches).sum(),
        morsels_per_worker,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eedc_storage::{Column, ColumnType, Predicate, Schema};
    use eedc_tpch::gen::{LineitemGenerator, OrdersGenerator};
    use eedc_tpch::scale::ScaleFactor;

    const SCALE: ScaleFactor = ScaleFactor(0.002);

    fn lineitem() -> Table {
        Table::from_lineitem(LineitemGenerator::new(SCALE, 1))
    }

    fn orders() -> Table {
        Table::from_orders(OrdersGenerator::new(SCALE, 1))
    }

    /// [`hash_join_with`] under the default kernel configuration.
    fn hash_join(
        probe: &Table,
        probe_key: &str,
        build: &Table,
        build_key: &str,
        threads: usize,
    ) -> Result<HashJoinOutput, PStoreError> {
        let config = JoinKernelConfig::default();
        hash_join_with(probe, probe_key, build, build_key, threads, config)
    }

    #[test]
    fn every_lineitem_row_finds_its_order() {
        // LINEITEM.L_ORDERKEY is a foreign key into ORDERS, so an unfiltered
        // join returns exactly one output row per LINEITEM row.
        let li = lineitem();
        let ord = orders();
        let joined = hash_join(&li, "L_ORDERKEY", &ord, "O_ORDERKEY", 1).unwrap();
        assert_eq!(joined.output_rows, li.row_count());
        assert_eq!(joined.build_rows, ord.row_count());
        assert_eq!(joined.probe_rows, li.row_count());
        // The other direction fans out: every order has its 1–7 lines.
        let reverse = hash_join(&ord, "O_ORDERKEY", &li, "L_ORDERKEY", 1).unwrap();
        assert_eq!(reverse.output_rows, li.row_count());
    }

    #[test]
    fn thread_count_does_not_change_the_result_set() {
        let li = lineitem();
        let ord = orders();
        let serial = hash_join(&li, "L_ORDERKEY", &ord, "O_ORDERKEY", 1).unwrap();
        let parallel = hash_join(&li, "L_ORDERKEY", &ord, "O_ORDERKEY", 8).unwrap();
        assert_eq!(serial.output_rows, parallel.output_rows);
        assert_eq!(serial.build_rows, parallel.build_rows);
        assert_eq!(serial.probe_rows, parallel.probe_rows);
    }

    #[test]
    fn kernel_config_does_not_change_the_result_set() {
        let li = lineitem();
        let ord = orders();
        let reference = hash_join(&li, "L_ORDERKEY", &ord, "O_ORDERKEY", 1).unwrap();
        for (morsel_rows, radix_bits) in [(64, 0), (1 << 20, 8), (100, 4)] {
            let config = JoinKernelConfig {
                morsel_rows,
                radix_bits,
            };
            let joined = hash_join_with(&li, "L_ORDERKEY", &ord, "O_ORDERKEY", 3, config).unwrap();
            assert_eq!(
                joined.output_rows, reference.output_rows,
                "config {config:?} changed the result set"
            );
        }
    }

    #[test]
    fn morsel_accounting_covers_the_probe_side() {
        let li = lineitem();
        let config = JoinKernelConfig {
            morsel_rows: 100,
            ..JoinKernelConfig::default()
        };
        let joined = hash_join_with(&li, "L_ORDERKEY", &orders(), "O_ORDERKEY", 4, config).unwrap();
        assert_eq!(joined.morsels_per_worker.len(), 4);
        let total: usize = joined.morsels_per_worker.iter().sum();
        assert_eq!(total, li.row_count().div_ceil(100));
    }

    #[test]
    fn sub_morsel_joins_are_thread_count_invariant() {
        // Below one morsel no worker past the first can have work: whatever
        // `threads` says, the join runs inline and reports its morsel (or
        // none) under worker 0 and zero for the rest.
        let config = JoinKernelConfig::default();
        let li = lineitem();
        let ord = orders();
        assert!(li.row_count() < config.morsel_rows && ord.row_count() < config.morsel_rows);
        let one = |table: &Table| table.gather_rows(table.name(), &[0]);
        let cases = [
            (li.clone(), ord.clone(), li.row_count()),
            (
                Table::empty("LINEITEM", li.schema().clone()),
                ord.clone(),
                0,
            ),
            (li.clone(), Table::empty("ORDERS", ord.schema().clone()), 0),
            (one(&li), one(&ord), 1),
        ];
        for (probe, build, expected) in &cases {
            let morsels = probe.row_count().div_ceil(config.morsel_rows);
            for threads in [1, 2, 4, 8] {
                let joined = hash_join(probe, "L_ORDERKEY", build, "O_ORDERKEY", threads).unwrap();
                assert_eq!(joined.morsels_per_worker.len(), threads);
                assert_eq!(joined.morsels_per_worker.iter().sum::<usize>(), morsels);
                assert_eq!(joined.morsels_per_worker[0], morsels);
                assert_eq!(
                    joined.output_rows,
                    *expected,
                    "{} x {} rows on {threads} threads",
                    probe.row_count(),
                    build.row_count()
                );
            }
        }
    }

    #[test]
    fn row_counts_past_u32_are_planning_errors() {
        let most = u32::MAX as usize;
        assert_eq!(addressable_rows("build", 0).unwrap(), 0);
        assert_eq!(addressable_rows("build", most).unwrap(), most);
        let error = addressable_rows("probe", most + 1).unwrap_err().to_string();
        assert!(
            error.contains("probe") && error.contains("4294967296"),
            "{error}"
        );
    }

    #[test]
    fn invalid_kernel_configs_are_rejected() {
        let li = lineitem();
        let ord = orders();
        let zero_morsels = JoinKernelConfig {
            morsel_rows: 0,
            ..JoinKernelConfig::default()
        };
        assert!(hash_join_with(&li, "L_ORDERKEY", &ord, "O_ORDERKEY", 1, zero_morsels).is_err());
        let too_many_bits = JoinKernelConfig {
            radix_bits: 13,
            ..JoinKernelConfig::default()
        };
        assert!(hash_join_with(&li, "L_ORDERKEY", &ord, "O_ORDERKEY", 1, too_many_bits).is_err());
    }

    #[test]
    fn filtered_join_respects_selectivity() {
        // 1% of ORDERS qualify; only LINEITEM rows referencing those orders
        // survive the join.
        let li = lineitem();
        let ord = orders();
        let cutoff = eedc_tpch::gen::custkey_cutoff_for_selectivity(SCALE, 0.01);
        let filtered =
            eedc_storage::scan(&ord, &Predicate::orders_custkey_at_most(cutoff), None).unwrap();
        let joined = hash_join(&li, "L_ORDERKEY", &filtered.output, "O_ORDERKEY", 2).unwrap();
        let ratio = joined.output_rows as f64 / li.row_count() as f64;
        let build_ratio = filtered.rows_passed as f64 / ord.row_count() as f64;
        assert!(
            (ratio - build_ratio).abs() < 0.02,
            "ratio {ratio} vs {build_ratio}"
        );
    }

    #[test]
    fn empty_inputs_produce_empty_output() {
        let li = lineitem();
        let empty_orders = Table::empty("ORDERS", Schema::orders_projection());
        let joined = hash_join(&li, "L_ORDERKEY", &empty_orders, "O_ORDERKEY", 4).unwrap();
        assert_eq!(joined.output_rows, 0);
        let empty_li = Table::empty("LINEITEM", Schema::lineitem_projection());
        let joined = hash_join(&empty_li, "L_ORDERKEY", &orders(), "O_ORDERKEY", 4).unwrap();
        assert_eq!(joined.output_rows, 0);
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let build = Table::from_columns(
            "B",
            Schema::new([("B_KEY", ColumnType::Int64), ("B_VAL", ColumnType::Int32)]),
            vec![
                Column::Int64(vec![1, 1, 2]),
                Column::Int32(vec![10, 11, 20]),
            ],
        )
        .unwrap();
        let probe = Table::from_columns(
            "P",
            Schema::new([("P_KEY", ColumnType::Int64)]),
            vec![Column::Int64(vec![1, 2, 3])],
        )
        .unwrap();
        let joined = hash_join(&probe, "P_KEY", &build, "B_KEY", 1).unwrap();
        assert_eq!(joined.output_rows, 3); // key 1 matches twice, key 2 once, key 3 never
    }

    #[test]
    fn unknown_keys_are_errors() {
        let li = lineitem();
        let ord = orders();
        assert!(hash_join(&li, "L_NOPE", &ord, "O_ORDERKEY", 1).is_err());
        assert!(hash_join(&li, "L_ORDERKEY", &ord, "O_NOPE", 1).is_err());
    }

    #[test]
    #[should_panic(expected = "task 1 failed")]
    fn a_worker_panic_reaches_the_caller_with_its_message() {
        // Worker 1 starts on item 1, so the panic is on a spawned thread.
        steal(2, 2, |i| {
            if i == 1 {
                panic!("task {i} failed");
            }
            i
        });
    }
}
