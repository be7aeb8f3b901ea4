//! The morsel-driven in-memory hash join operator.
//!
//! This is the paper's workhorse compute operator: "our hash join code is
//! cache-conscious and multi-threaded" (Section 5.1). One rule governs its
//! output — **match first, write once** — and the kernel runs in four stages:
//!
//! 1. **Partitioned radix build** — build-side keys are hashed once, rows are
//!    radix-partitioned on the low hash bits (counting sort, no per-key
//!    allocations), and workers steal partitions to build private
//!    open-addressing [`RadixTable`]s over `(key, row)` pairs.
//! 2. **Morsel-stealing probe** — probe rows are consumed in fixed-size
//!    *morsels* claimed from a shared atomic [`MorselCursor`], so fast
//!    workers steal work from slow ones instead of idling at a static chunk
//!    boundary. A worker only *records* its matches: a `(probe_row,
//!    build_row)` pair of `u32` index lists, and where each morsel it retired
//!    ends in them. No output cell is written yet.
//! 3. **Order** — the match lists are laid end to end in *morsel* order,
//!    which is probe-row order, whatever the schedule was.
//! 4. **Columnar materialization** — every output column is one gather from
//!    its source column through the ordered index list, allocated once at its
//!    final length; workers steal whole columns. No row-at-a-time `Value`
//!    boxing, no per-worker fragment, no second copy.
//!
//! The output is therefore the same table, bit for bit, for every thread
//! count, morsel size and radix width: rows in probe-row order, and a probe
//! row's several matches in the build's chain order (latest build row first).

use crate::error::PStoreError;
use crate::op::kernel::{JoinKernelConfig, KeySlice, MorselCursor, RadixTable};
use eedc_storage::{hash_i64, Column, Schema, Table};
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Output of a hash join.
#[derive(Debug, Clone, PartialEq)]
pub struct HashJoinOutput {
    /// The joined rows: probe columns followed by build columns.
    pub output: Table,
    /// Number of rows in the build-side hash table.
    pub build_rows: usize,
    /// Number of probe-side rows scanned.
    pub probe_rows: usize,
    /// Number of output (matching) rows.
    pub output_rows: usize,
    /// Morsels retired by each probe worker, in worker order: one entry per
    /// requested thread, zero for a worker that was never started because no
    /// morsel existed for it. With the first-claim scheme every worker
    /// retires at least one morsel whenever there are at least as many
    /// morsels as workers.
    pub morsels_per_worker: Vec<usize>,
}

/// The output-table name of a join, with bounded growth under chaining.
///
/// A naive `{probe}_join_{build}` doubles in length on every chained join
/// (the previous output becomes the next probe). Instead, a probe name that
/// is itself a join output is compacted to its original base plus a depth
/// counter: `LINEITEM_join_ORDERS` joined with `CUSTOMER` becomes
/// `LINEITEM_join2_CUSTOMER`, then `LINEITEM_join3_…`, and the result is
/// capped at 64 bytes.
fn join_output_name(probe: &str, build: &str) -> String {
    const MAX_LEN: usize = 64;
    let (base, depth) = match probe.find("_join") {
        Some(i) => {
            let digits: String = probe[i + 5..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            (&probe[..i], digits.parse::<u64>().unwrap_or(1))
        }
        None => (probe, 0),
    };
    let mut name = if depth == 0 {
        format!("{base}_join_{build}")
    } else {
        format!("{base}_join{}_{build}", depth + 1)
    };
    if name.len() > MAX_LEN {
        let mut cut = MAX_LEN;
        while !name.is_char_boundary(cut) {
            cut -= 1;
        }
        name.truncate(cut);
    }
    name
}

/// The kernel addresses rows with `u32` ids — half the index traffic of
/// `usize` through the build chains and the match lists — so a side must have
/// at most `u32::MAX` rows. Checked once here; the `as u32` in the build and
/// probe loops cannot truncate after it.
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

/// What one probe worker found: the matching `(probe row, build row)` pairs
/// in the order it probed them, and where each morsel it retired ends in them.
struct ProbeRun {
    probe_idx: Vec<u32>,
    build_idx: Vec<u32>,
    /// `(morsel, match count once it was retired)`, in claim order.
    morsels: Vec<(usize, usize)>,
}

/// Join `probe` against `build` on integer key columns `probe_key` /
/// `build_key`, producing probe columns followed by build columns.
///
/// Every `threads` and every `config` (morsel size, radix bits) produce the
/// same output table, bit for bit: rows in probe-row order, and the several
/// matches of one probe row in the build's chain order (latest build row
/// first). The tunables trade cache locality against scheduling overhead,
/// never the result.
///
/// `threads` is an upper bound on the workers of each stage; values of 0 or
/// 1 run everything on the calling thread. A worker is spawned only if work
/// exists for it: the probe starts `min(threads, probe morsels)` workers (on
/// the calling thread when that is one), a build side smaller than one
/// morsel is hashed and built on the calling thread, and an output smaller
/// than one morsel is gathered on the calling thread (a larger one by at
/// most one worker per output column).
pub fn hash_join_with(
    probe: &Table,
    probe_key: &str,
    build: &Table,
    build_key: &str,
    threads: usize,
    config: JoinKernelConfig,
) -> Result<HashJoinOutput, PStoreError> {
    config.validate()?;
    // Resolve both key columns to typed slices up front: unknown columns and
    // non-integer key types are rejected before any work runs.
    let build_keys = KeySlice::try_from_column(build.column_by_name(build_key)?)?;
    let probe_keys = KeySlice::try_from_column(probe.column_by_name(probe_key)?)?;
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
    // flat `ordered_rows` array replaces any per-partition or per-key Vecs.
    let mut offsets = vec![0usize; partitions + 1];
    for &hash in &hashes {
        offsets[(hash & partition_mask) as usize + 1] += 1;
    }
    for p in 0..partitions {
        offsets[p + 1] += offsets[p];
    }
    let mut cursors: Vec<usize> = offsets[..partitions].to_vec();
    let mut ordered_rows = vec![0u32; build_rows];
    let mut ordered_hashes = vec![0u64; build_rows];
    for (row, &hash) in hashes.iter().enumerate() {
        let p = (hash & partition_mask) as usize;
        ordered_rows[cursors[p]] = row as u32;
        ordered_hashes[cursors[p]] = hash;
        cursors[p] += 1;
    }
    drop(hashes);

    // Workers steal whole partitions and build private open-addressing
    // tables; nothing is shared mutably, so no locks anywhere.
    let build_partition = |p: usize| {
        let range = offsets[p]..offsets[p + 1];
        let mut table = RadixTable::with_capacity(range.len(), config.radix_bits);
        for i in range {
            let row = ordered_rows[i];
            table.insert(build_keys.get(row as usize), row, ordered_hashes[i]);
        }
        table
    };
    let tables = steal(build_workers, partitions, build_partition);

    // ---- Stage 2: morsel-stealing probe — match, write nothing ----------
    let cursor = MorselCursor::new(probe_rows, config.morsel_rows, workers);
    let probe_worker = |worker: usize| {
        let mut run = ProbeRun {
            probe_idx: Vec::new(),
            build_idx: Vec::new(),
            morsels: Vec::new(),
        };
        // First-claim morsel, then steal from the shared cursor until drained.
        let mut morsel = (worker < cursor.morsels()).then_some(worker);
        while let Some(m) = morsel {
            for row in cursor.range_of(m) {
                let key = probe_keys.get(row);
                let hash = hash_i64(key);
                let matched = tables[(hash & partition_mask) as usize].probe_into(
                    key,
                    hash,
                    &mut run.build_idx,
                );
                run.probe_idx
                    .extend(std::iter::repeat_n(row as u32, matched));
            }
            run.morsels.push((m, run.probe_idx.len()));
            morsel = cursor.claim();
        }
        run
    };
    // A worker past the last morsel would find its first claim missing and
    // the cursor drained, so it is never started and reports zero morsels
    // below. One item per started worker: what *they* steal is morsels.
    let probe_workers = workers.min(cursor.morsels());
    let mut runs = steal(probe_workers, probe_workers, probe_worker);
    let mut morsels_per_worker = vec![0; workers];
    for (slot, run) in morsels_per_worker.iter_mut().zip(&runs) {
        *slot = run.morsels.len();
    }

    // ---- Stage 3: order — match lists end to end, in probe-row order ----
    let output_rows: usize = runs.iter().map(|run| run.probe_idx.len()).sum();
    let (probe_idx, build_idx) = if runs.len() <= 1 {
        // One worker retired the morsels in order: its lists are the answer.
        runs.pop()
            .map_or_else(Default::default, |run| (run.probe_idx, run.build_idx))
    } else {
        // Each morsel was retired once: `(worker, its matches in that worker's lists)`.
        let mut by_morsel: Vec<(usize, Range<usize>)> = vec![(0, 0..0); cursor.morsels()];
        for (worker, run) in runs.iter().enumerate() {
            let mut start = 0;
            for &(morsel, end) in &run.morsels {
                by_morsel[morsel] = (worker, start..end);
                start = end;
            }
        }
        let mut probe_idx = Vec::with_capacity(output_rows);
        let mut build_idx = Vec::with_capacity(output_rows);
        for (worker, range) in by_morsel {
            probe_idx.extend_from_slice(&runs[worker].probe_idx[range.clone()]);
            build_idx.extend_from_slice(&runs[worker].build_idx[range]);
        }
        (probe_idx, build_idx)
    };
    // The per-worker lists are spent; free them before the output is allocated.
    drop(runs);

    // ---- Stage 4: materialise — one exact-size gather per output column -
    let mut sources: Vec<(&Column, &[u32])> = Vec::new();
    for (side, table, rows) in [("probe", probe, &probe_idx), ("build", build, &build_idx)] {
        for index in 0..table.schema().len() {
            let column = table.column(index).ok_or_else(|| {
                PStoreError::planning(format!(
                    "{side} table {} has no column {index} of its own schema",
                    table.name()
                ))
            })?;
            sources.push((column, rows));
        }
    }
    let gather_workers = if output_rows < config.morsel_rows {
        1
    } else {
        workers
    };
    let columns = steal(gather_workers, sources.len(), |c| {
        let (source, rows) = sources[c];
        source.gathered(rows)
    });
    let output_schema = Schema::new(
        probe
            .schema()
            .columns()
            .iter()
            .chain(build.schema().columns())
            .map(|(name, ty)| (name.clone(), *ty)),
    );
    let output = Table::from_columns(
        join_output_name(probe.name(), build.name()),
        output_schema,
        columns,
    )?;

    Ok(HashJoinOutput {
        build_rows,
        probe_rows,
        output_rows,
        output,
        morsels_per_worker,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eedc_storage::{ColumnType, Predicate, Value};
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
        // Output schema is probe columns then build columns.
        assert_eq!(joined.output.schema().len(), 8);
        assert_eq!(joined.output.schema().columns()[0].0, "L_ORDERKEY");
        assert_eq!(joined.output.schema().columns()[4].0, "O_ORDERKEY");
    }

    #[test]
    fn join_keys_match_on_every_output_row() {
        let joined = hash_join(&lineitem(), "L_ORDERKEY", &orders(), "O_ORDERKEY", 2).unwrap();
        let l_keys = joined.output.column_by_name("L_ORDERKEY").unwrap();
        let o_keys = joined.output.column_by_name("O_ORDERKEY").unwrap();
        for i in 0..joined.output_rows {
            assert_eq!(
                l_keys.get(i).unwrap().as_i64(),
                o_keys.get(i).unwrap().as_i64()
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_the_result_set() {
        let li = lineitem();
        let ord = orders();
        let serial = hash_join(&li, "L_ORDERKEY", &ord, "O_ORDERKEY", 1).unwrap();
        let parallel = hash_join(&li, "L_ORDERKEY", &ord, "O_ORDERKEY", 8).unwrap();
        assert_eq!(serial.output_rows, parallel.output_rows);
        // Compare multisets of full output rows.
        let columns = ["L_ORDERKEY", "L_EXTENDEDPRICE", "O_ORDERKEY", "O_CUSTKEY"];
        assert_eq!(
            serial.output.sorted_row_signature(&columns).unwrap(),
            parallel.output.sorted_row_signature(&columns).unwrap()
        );
    }

    #[test]
    fn kernel_config_does_not_change_the_result_set() {
        let li = lineitem();
        let ord = orders();
        let reference = hash_join(&li, "L_ORDERKEY", &ord, "O_ORDERKEY", 1).unwrap();
        let columns = ["L_ORDERKEY", "L_EXTENDEDPRICE", "O_ORDERKEY", "O_CUSTKEY"];
        let expected = reference.output.sorted_row_signature(&columns).unwrap();
        for (morsel_rows, radix_bits) in [(64, 0), (1 << 20, 8), (100, 4)] {
            let config = JoinKernelConfig {
                morsel_rows,
                radix_bits,
            };
            let joined = hash_join_with(&li, "L_ORDERKEY", &ord, "O_ORDERKEY", 3, config).unwrap();
            assert_eq!(
                joined.output.sorted_row_signature(&columns).unwrap(),
                expected,
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
        let columns = ["L_ORDERKEY", "L_EXTENDEDPRICE", "O_ORDERKEY", "O_CUSTKEY"];
        let cases = [
            (li.clone(), ord.clone()),
            (Table::empty("LINEITEM", li.schema().clone()), ord.clone()),
            (li.clone(), Table::empty("ORDERS", ord.schema().clone())),
            (one(&li), one(&ord)),
        ];
        for (probe, build) in &cases {
            let morsels = probe.row_count().div_ceil(config.morsel_rows);
            let mut expected = None;
            for threads in [1, 2, 4, 8] {
                let joined = hash_join(probe, "L_ORDERKEY", build, "O_ORDERKEY", threads).unwrap();
                assert_eq!(joined.morsels_per_worker.len(), threads);
                assert_eq!(joined.morsels_per_worker.iter().sum::<usize>(), morsels);
                assert_eq!(joined.morsels_per_worker[0], morsels);
                let signature = joined.output.sorted_row_signature(&columns).unwrap();
                assert_eq!(
                    expected.get_or_insert(signature.clone()),
                    &signature,
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
        let mut build = Table::empty(
            "B",
            Schema::new([("B_KEY", ColumnType::Int64), ("B_VAL", ColumnType::Int32)]),
        );
        build
            .append_row(&[Value::Int64(1), Value::Int32(10)])
            .unwrap();
        build
            .append_row(&[Value::Int64(1), Value::Int32(11)])
            .unwrap();
        build
            .append_row(&[Value::Int64(2), Value::Int32(20)])
            .unwrap();
        let mut probe = Table::empty("P", Schema::new([("P_KEY", ColumnType::Int64)]));
        probe.append_row(&[Value::Int64(1)]).unwrap();
        probe.append_row(&[Value::Int64(2)]).unwrap();
        probe.append_row(&[Value::Int64(3)]).unwrap();
        let joined = hash_join(&probe, "P_KEY", &build, "B_KEY", 1).unwrap();
        assert_eq!(joined.output_rows, 3); // key 1 matches twice, key 2 once, key 3 never
    }

    #[test]
    fn unknown_or_non_integer_keys_are_errors() {
        let li = lineitem();
        let ord = orders();
        assert!(hash_join(&li, "L_NOPE", &ord, "O_ORDERKEY", 1).is_err());
        assert!(hash_join(&li, "L_ORDERKEY", &ord, "O_NOPE", 1).is_err());
        // A float column cannot be a join key.
        let mut build = Table::empty("B", Schema::new([("B_KEY", ColumnType::Float64)]));
        build.append_row(&[Value::Float64(1.0)]).unwrap();
        let mut probe = Table::empty("P", Schema::new([("P_KEY", ColumnType::Int64)]));
        probe.append_row(&[Value::Int64(1)]).unwrap();
        assert!(hash_join(&probe, "P_KEY", &build, "B_KEY", 1).is_err());
    }

    #[test]
    fn chained_join_names_stay_bounded() {
        assert_eq!(
            join_output_name("LINEITEM", "ORDERS"),
            "LINEITEM_join_ORDERS"
        );
        assert_eq!(
            join_output_name("LINEITEM_join_ORDERS", "CUSTOMER"),
            "LINEITEM_join2_CUSTOMER"
        );
        assert_eq!(
            join_output_name("LINEITEM_join2_CUSTOMER", "NATION"),
            "LINEITEM_join3_NATION"
        );
        // Names never exceed the cap even for pathological inputs.
        let long = "X".repeat(200);
        assert!(join_output_name(&long, &long).len() <= 64);
        // And the output table actually carries the compacted name.
        let mut t = Table::empty("A_join_B", Schema::new([("K", ColumnType::Int64)]));
        t.append_row(&[Value::Int64(1)]).unwrap();
        let mut u = Table::empty("C", Schema::new([("K2", ColumnType::Int64)]));
        u.append_row(&[Value::Int64(1)]).unwrap();
        let joined = hash_join(&t, "K", &u, "K2", 1).unwrap();
        assert_eq!(joined.output.name(), "A_join2_C");
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
