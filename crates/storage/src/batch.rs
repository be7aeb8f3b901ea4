//! Reusable columnar output buffers for batch materialization.
//!
//! The execution kernel never materializes join output row-at-a-time.
//! Workers accumulate `(probe_row, build_row)` index pairs per morsel and
//! flush them with a per-column *gather* into the builders here: one typed
//! slice append per column per flush, no `Value` boxing, no per-row schema
//! checks. Builders are reusable — [`ColumnBuilder::take`] hands the built
//! column out while retaining the allocation for the next batch.

use crate::column::{Column, ColumnType, Value};
use crate::error::StorageError;
use crate::table::{Schema, Table};

/// A reusable, growable buffer for one output column.
#[derive(Debug, Clone)]
pub struct ColumnBuilder {
    column: Column,
}

impl ColumnBuilder {
    /// An empty builder for values of `column_type`.
    pub fn new(column_type: ColumnType) -> Self {
        Self {
            column: Column::empty(column_type),
        }
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(column_type: ColumnType, capacity: usize) -> Self {
        Self {
            column: Column::with_capacity(column_type, capacity),
        }
    }

    /// The type of the column being built.
    pub fn column_type(&self) -> ColumnType {
        self.column.column_type()
    }

    /// Number of values accumulated so far.
    pub fn len(&self) -> usize {
        self.column.len()
    }

    /// Whether no values have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.column.is_empty()
    }

    /// Append `source[i]` for every index in `indices` (per-column gather).
    /// Indices must be in bounds of `source`.
    pub fn gather(&mut self, source: &Column, indices: &[u32]) -> Result<(), StorageError> {
        self.column.gather_from(source, indices)
    }

    /// Append a single value (type-checked; the gather path is the hot one).
    pub fn push(&mut self, value: Value) -> Result<(), StorageError> {
        self.column.push(value)
    }

    /// Take the built column out, leaving an empty builder of the same type
    /// behind so the allocation pattern restarts cleanly.
    pub fn take(&mut self) -> Column {
        let ty = self.column.column_type();
        std::mem::replace(&mut self.column, Column::empty(ty))
    }
}

/// A reusable builder for whole output batches: one [`ColumnBuilder`] per
/// schema column, filled by gathering from source tables.
///
/// A hash-join worker builds its fragment by gathering the probe table's
/// columns at the matched probe rows into builders `0..probe_cols` and the
/// build table's columns at the matched build rows into the rest:
///
/// ```
/// use eedc_storage::{BatchBuilder, ColumnType, Schema, Table, Value};
/// let mut probe = Table::empty("P", Schema::new([("K", ColumnType::Int64)]));
/// probe.append_row(&[Value::Int64(7)]).unwrap();
/// let mut build = Table::empty("B", Schema::new([("V", ColumnType::Int32)]));
/// build.append_row(&[Value::Int32(70)]).unwrap();
///
/// let schema = Schema::new([("K", ColumnType::Int64), ("V", ColumnType::Int32)]);
/// let mut batch = BatchBuilder::new(schema);
/// batch.gather_table(&probe, &[0], 0).unwrap();
/// batch.gather_table(&build, &[0], 1).unwrap();
/// let fragment = batch.finish("F").unwrap();
/// assert_eq!(fragment.row_count(), 1);
/// assert_eq!(fragment.row(0), Some(vec![Value::Int64(7), Value::Int32(70)]));
/// ```
#[derive(Debug, Clone)]
pub struct BatchBuilder {
    schema: Schema,
    builders: Vec<ColumnBuilder>,
}

impl BatchBuilder {
    /// An empty batch for `schema`.
    pub fn new(schema: Schema) -> Self {
        Self::with_capacity(schema, 0)
    }

    /// An empty batch with reserved row capacity.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let builders = schema
            .columns()
            .iter()
            .map(|(_, ty)| ColumnBuilder::with_capacity(*ty, rows))
            .collect();
        Self { schema, builders }
    }

    /// The schema being built.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows accumulated so far (of the first column; the columns only agree
    /// once a full row's worth of gathers has been applied).
    pub fn rows(&self) -> usize {
        self.builders.first().map_or(0, ColumnBuilder::len)
    }

    /// Whether no rows have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Gather every column of `source` at `indices` into the builders
    /// starting at schema position `at_column`.
    pub fn gather_table(
        &mut self,
        source: &Table,
        indices: &[u32],
        at_column: usize,
    ) -> Result<(), StorageError> {
        let width = source.schema().len();
        if at_column + width > self.builders.len() {
            return Err(StorageError::schema(format!(
                "gather of {width} columns at offset {at_column} overflows a {}-column batch",
                self.builders.len()
            )));
        }
        for (offset, builder) in self.builders[at_column..at_column + width]
            .iter_mut()
            .enumerate()
        {
            let column = source
                .column(offset)
                .expect("source column index within schema width");
            builder.gather(column, indices)?;
        }
        Ok(())
    }

    /// Finish the batch into a table, leaving empty builders behind (the
    /// allocations of the taken columns move into the table).
    pub fn finish(&mut self, name: impl Into<String>) -> Result<Table, StorageError> {
        let columns = self.builders.iter_mut().map(ColumnBuilder::take).collect();
        Table::from_columns(name, self.schema.clone(), columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_builder_round_trip_retains_type() {
        let mut builder = ColumnBuilder::with_capacity(ColumnType::Int64, 4);
        assert!(builder.is_empty());
        builder.push(Value::Int64(1)).unwrap();
        builder
            .gather(&Column::Int64(vec![10, 20, 30]), &[2, 0])
            .unwrap();
        assert_eq!(builder.len(), 3);
        let column = builder.take();
        assert_eq!(column.as_i64_slice(), Some(&[1i64, 30, 10][..]));
        assert!(builder.is_empty());
        assert_eq!(builder.column_type(), ColumnType::Int64);
        // The emptied builder is immediately reusable.
        builder.push(Value::Int64(9)).unwrap();
        assert_eq!(builder.len(), 1);
        // Type mismatches are schema errors.
        assert!(builder.push(Value::Int32(1)).is_err());
        assert!(builder.gather(&Column::Float64(vec![1.0]), &[0]).is_err());
    }

    #[test]
    fn batch_builder_gathers_two_sides_into_one_schema() {
        let probe = Table::from_columns(
            "P",
            Schema::new([("K", ColumnType::Int64), ("X", ColumnType::Int32)]),
            vec![
                Column::Int64(vec![1, 2, 3]),
                Column::Int32(vec![10, 20, 30]),
            ],
        )
        .unwrap();
        let build = Table::from_columns(
            "B",
            Schema::new([("V", ColumnType::Float64)]),
            vec![Column::Float64(vec![0.5, 1.5])],
        )
        .unwrap();
        let schema = Schema::new([
            ("K", ColumnType::Int64),
            ("X", ColumnType::Int32),
            ("V", ColumnType::Float64),
        ]);
        let mut batch = BatchBuilder::with_capacity(schema, 4);
        batch.gather_table(&probe, &[2, 0], 0).unwrap();
        batch.gather_table(&build, &[1, 1], 2).unwrap();
        assert_eq!(batch.rows(), 2);
        let fragment = batch.finish("F").unwrap();
        assert_eq!(fragment.row_count(), 2);
        assert_eq!(
            fragment.row(0),
            Some(vec![Value::Int64(3), Value::Int32(30), Value::Float64(1.5)])
        );
        // The builder is reusable after finish.
        assert!(batch.is_empty());
        batch.gather_table(&probe, &[1], 0).unwrap();
        batch.gather_table(&build, &[0], 2).unwrap();
        assert_eq!(batch.finish("F2").unwrap().row_count(), 1);
        // Column overflow is an error.
        assert!(batch.gather_table(&probe, &[0], 2).is_err());
    }
}
