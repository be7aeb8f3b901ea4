//! Schemas and in-memory columnar tables.

use crate::column::{Column, ColumnType, Value};
use crate::error::StorageError;
use eedc_simkit::units::Megabytes;
use eedc_tpch::gen::{LineitemRow, OrdersRow};

/// An ordered list of named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    pub fn new(columns: impl IntoIterator<Item = (impl Into<String>, ColumnType)>) -> Self {
        Self {
            columns: columns
                .into_iter()
                .map(|(name, ty)| (name.into(), ty))
                .collect(),
        }
    }

    /// The projected LINEITEM schema used throughout the paper's experiments.
    pub fn lineitem_projection() -> Self {
        Schema::new([
            ("L_ORDERKEY", ColumnType::Int64),
            ("L_EXTENDEDPRICE", ColumnType::Int64),
            ("L_DISCOUNT", ColumnType::Int32),
            ("L_SHIPDATE", ColumnType::Int32),
        ])
    }

    /// The projected ORDERS schema used throughout the paper's experiments.
    pub fn orders_projection() -> Self {
        Schema::new([
            ("O_ORDERKEY", ColumnType::Int64),
            ("O_ORDERDATE", ColumnType::Int32),
            ("O_SHIPPRIORITY", ColumnType::Int32),
            ("O_CUSTKEY", ColumnType::Int64),
        ])
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The `(name, type)` pairs in order.
    pub fn columns(&self) -> &[(String, ColumnType)] {
        &self.columns
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// A schema containing only the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Schema, StorageError> {
        let mut columns = Vec::with_capacity(names.len());
        for &name in names {
            let index = self
                .index_of(name)
                .ok_or_else(|| StorageError::UnknownColumn {
                    column: name.into(),
                    table: "<schema>".into(),
                })?;
            columns.push(self.columns[index].clone());
        }
        Ok(Schema { columns })
    }
}

/// The rows to reserve for the table built from `rows`: the upper bound of
/// its size hint, else the lower. Reserving the lower bound and growing from
/// there is slower than reserving a generous upper bound once, and neither
/// generator's upper bound exceeds its row count by more than 7×.
fn reserved_rows(rows: &impl Iterator) -> usize {
    let (lower, upper) = rows.size_hint();
    upper.unwrap_or(lower)
}

/// An in-memory columnar table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
}

impl Table {
    /// An empty table with the given name and schema.
    pub fn empty(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|(_, ty)| Column::empty(*ty))
            .collect();
        Self {
            name: name.into(),
            schema,
            columns,
        }
    }

    /// An empty table with reserved row capacity.
    pub fn with_capacity(name: impl Into<String>, schema: Schema, rows: usize) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|(_, ty)| Column::with_capacity(*ty, rows))
            .collect();
        Self {
            name: name.into(),
            schema,
            columns,
        }
    }

    /// A table assembled from pre-built columns. The columns must match the
    /// schema's types and all have the same length — this is how a scan
    /// turns its gathered output columns into a table without touching any
    /// per-row path.
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
    ) -> Result<Self, StorageError> {
        let name = name.into();
        if columns.len() != schema.len() {
            return Err(StorageError::schema(format!(
                "table {} given {} columns for a {}-column schema",
                name,
                columns.len(),
                schema.len()
            )));
        }
        let rows = columns.first().map_or(0, Column::len);
        for (column, (col_name, ty)) in columns.iter().zip(schema.columns()) {
            if column.column_type() != *ty {
                return Err(StorageError::schema(format!(
                    "column {col_name} of table {name} is {} but the schema says {ty}",
                    column.column_type()
                )));
            }
            if column.len() != rows {
                return Err(StorageError::schema(format!(
                    "column {col_name} of table {name} has {} rows, expected {rows}",
                    column.len()
                )));
            }
        }
        Ok(Self {
            name,
            schema,
            columns,
        })
    }

    /// Materialise the projected LINEITEM table from generated rows. The
    /// columns are built directly from the typed row fields — no per-row
    /// schema validation on this hot path.
    #[expect(
        clippy::expect_used,
        reason = "the four columns are built to the lineitem projection's schema"
    )]
    pub fn from_lineitem(rows: impl IntoIterator<Item = LineitemRow>) -> Self {
        let iter = rows.into_iter();
        let capacity = reserved_rows(&iter);
        let mut orderkey = Vec::with_capacity(capacity);
        let mut extendedprice = Vec::with_capacity(capacity);
        let mut discount = Vec::with_capacity(capacity);
        let mut shipdate = Vec::with_capacity(capacity);
        for row in iter {
            orderkey.push(row.orderkey);
            extendedprice.push(row.extendedprice);
            discount.push(row.discount);
            shipdate.push(row.shipdate);
        }
        Table::from_columns(
            "LINEITEM",
            Schema::lineitem_projection(),
            vec![
                Column::Int64(orderkey),
                Column::Int64(extendedprice),
                Column::Int32(discount),
                Column::Int32(shipdate),
            ],
        )
        .expect("lineitem projection columns match their schema")
    }

    /// Materialise the projected ORDERS table from generated rows.
    #[expect(
        clippy::expect_used,
        reason = "the four columns are built to the orders projection's schema"
    )]
    pub fn from_orders(rows: impl IntoIterator<Item = OrdersRow>) -> Self {
        let iter = rows.into_iter();
        let capacity = reserved_rows(&iter);
        let mut orderkey = Vec::with_capacity(capacity);
        let mut orderdate = Vec::with_capacity(capacity);
        let mut shippriority = Vec::with_capacity(capacity);
        let mut custkey = Vec::with_capacity(capacity);
        for row in iter {
            orderkey.push(row.orderkey);
            orderdate.push(row.orderdate);
            shippriority.push(row.shippriority);
            custkey.push(row.custkey);
        }
        Table::from_columns(
            "ORDERS",
            Schema::orders_projection(),
            vec![
                Column::Int64(orderkey),
                Column::Int32(orderdate),
                Column::Int32(shippriority),
                Column::Int64(custkey),
            ],
        )
        .expect("orders projection columns match their schema")
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table (used when deriving partitions or join outputs).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.row_count() == 0
    }

    /// Payload size of the table.
    pub fn byte_size(&self) -> Megabytes {
        Megabytes::from_bytes(self.columns.iter().map(Column::byte_size).sum())
    }

    /// The column at `index`.
    pub fn column(&self, index: usize) -> Option<&Column> {
        self.columns.get(index)
    }

    /// The column with the given name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, StorageError> {
        let index = self
            .schema
            .index_of(name)
            .ok_or_else(|| StorageError::UnknownColumn {
                column: name.into(),
                table: self.name.clone(),
            })?;
        Ok(&self.columns[index])
    }

    /// Append one row given values in schema order.
    pub fn append_row(&mut self, values: &[Value]) -> Result<(), StorageError> {
        if values.len() != self.schema.len() {
            return Err(StorageError::schema(format!(
                "row has {} values but table {} has {} columns",
                values.len(),
                self.name,
                self.schema.len()
            )));
        }
        for (column, value) in self.columns.iter_mut().zip(values) {
            column.push(*value)?;
        }
        Ok(())
    }

    /// A new table holding row `i` of `self` for every index in `indices`,
    /// in order — per-column gather, no per-row dispatch. Indices must be in
    /// bounds (panics otherwise).
    pub fn gather_rows(&self, name: impl Into<String>, indices: &[u32]) -> Table {
        Table {
            name: name.into(),
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gathered(indices)).collect(),
        }
    }

    /// The row multiset as a sorted list of value tuples over the named
    /// columns — the order-insensitive signature used to assert that two
    /// executions produced the same rows regardless of worker count, morsel
    /// size, or partitioning. Rows sort lexicographically by
    /// [`Value::compare`].
    pub fn sorted_row_signature(&self, columns: &[&str]) -> Result<Vec<Vec<Value>>, StorageError> {
        let cols: Vec<&Column> = columns
            .iter()
            .map(|name| self.column_by_name(name))
            .collect::<Result<_, _>>()?;
        #[expect(clippy::expect_used, reason = "every index is below row_count")]
        let mut rows: Vec<Vec<Value>> = (0..self.row_count())
            .map(|i| {
                cols.iter()
                    .map(|c| c.get(i).expect("row index within row_count"))
                    .collect()
            })
            .collect();
        rows.sort_unstable_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.compare(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(rows)
    }

    /// Read a full row as a vector of values.
    #[expect(
        clippy::expect_used,
        reason = "the index was checked against row_count on entry"
    )]
    pub fn row(&self, index: usize) -> Option<Vec<Value>> {
        if index >= self.row_count() {
            return None;
        }
        Some(
            self.columns
                .iter()
                .map(|c| c.get(index).expect("row index checked against row_count"))
                .collect(),
        )
    }

    /// A new table containing only the named columns (in the given order) of
    /// every row.
    pub fn project(&self, names: &[&str]) -> Result<Table, StorageError> {
        let schema = self.schema.project(names)?;
        let mut columns = Vec::with_capacity(names.len());
        for &name in names {
            let index = self
                .schema
                .index_of(name)
                .ok_or_else(|| StorageError::UnknownColumn {
                    column: name.into(),
                    table: self.name.clone(),
                })?;
            columns.push(self.columns[index].clone());
        }
        Ok(Table {
            name: format!("{}_proj", self.name),
            schema,
            columns,
        })
    }

    /// Concatenate another table with an identical schema onto this one.
    /// Appends column-wise: one schema check and one slice copy per column,
    /// never a per-row dispatch.
    pub fn append_table(&mut self, other: &Table) -> Result<(), StorageError> {
        if self.schema != other.schema {
            return Err(StorageError::schema(format!(
                "cannot append {} to {}: schemas differ",
                other.name, self.name
            )));
        }
        for (dest, src) in self.columns.iter_mut().zip(&other.columns) {
            dest.extend_from(src)?;
        }
        Ok(())
    }

    /// Append row `i` of `source` for every index in `rows`, in order:
    /// [`Table::gather_rows`] straight onto the end of this table, without
    /// the fragment in between. One schema check, then one gather per
    /// column. Indices must be in bounds of `source` (panics otherwise).
    pub fn append_gathered(&mut self, source: &Table, rows: &[u32]) -> Result<(), StorageError> {
        if self.schema != source.schema {
            return Err(StorageError::schema(format!(
                "cannot gather {} into {}: schemas differ",
                source.name, self.name
            )));
        }
        for (dest, src) in self.columns.iter_mut().zip(&source.columns) {
            dest.gather_from(src, rows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eedc_tpch::gen::{LineitemGenerator, OrdersGenerator};
    use eedc_tpch::scale::ScaleFactor;

    fn small_orders() -> Table {
        Table::from_orders(OrdersGenerator::new(ScaleFactor(0.001), 1))
    }

    #[test]
    fn generated_tables_equal_tables_of_their_collected_rows() {
        for (scale, seed) in [(0.0, 1), (0.0001, 3), (0.001, 1), (0.002, 11)] {
            let scale = ScaleFactor(scale);
            let rows: Vec<_> = LineitemGenerator::new(scale, seed).collect();
            let lineitem = Table::from_lineitem(LineitemGenerator::new(scale, seed));
            assert_eq!(lineitem, Table::from_lineitem(rows.iter().copied()));
            assert_eq!(lineitem.row_count(), rows.len());
            let rows: Vec<_> = OrdersGenerator::new(scale, seed).collect();
            let orders = Table::from_orders(OrdersGenerator::new(scale, seed));
            assert_eq!(orders, Table::from_orders(rows));
        }
    }

    #[test]
    fn schema_round_trip() {
        let schema = Schema::lineitem_projection();
        assert_eq!(schema.len(), 4);
        assert_eq!(schema.index_of("L_SHIPDATE"), Some(3));
        assert_eq!(schema.index_of("NOPE"), None);
        let projected = schema.project(&["L_SHIPDATE", "L_ORDERKEY"]).unwrap();
        assert_eq!(
            projected.columns()[0],
            ("L_SHIPDATE".into(), ColumnType::Int32)
        );
        assert_eq!(
            projected.columns()[1],
            ("L_ORDERKEY".into(), ColumnType::Int64)
        );
        assert!(schema.project(&["MISSING"]).is_err());
    }

    #[test]
    fn projected_tuples_are_20_bytes_plus_alignment() {
        // The paper stores 20-byte projected tuples; our typed layout uses 24
        // bytes per LINEITEM row (two i64 + two i32) which preserves the same
        // four-column shape. The byte_size accessor reflects the real layout.
        let orders = small_orders();
        let bytes = 24 * orders.row_count() as u64;
        assert_eq!(orders.byte_size(), Megabytes::from_bytes(bytes));
    }

    #[test]
    fn append_and_read_rows() {
        let mut table = Table::empty(
            "T",
            Schema::new([("A", ColumnType::Int64), ("B", ColumnType::Int32)]),
        );
        table
            .append_row(&[Value::Int64(1), Value::Int32(10)])
            .unwrap();
        table
            .append_row(&[Value::Int64(2), Value::Int32(20)])
            .unwrap();
        assert_eq!(table.row_count(), 2);
        assert_eq!(table.row(1), Some(vec![Value::Int64(2), Value::Int32(20)]));
        assert_eq!(table.row(2), None);
        assert!(
            table.append_row(&[Value::Int64(3)]).is_err(),
            "wrong arity must fail"
        );
        assert!(
            table
                .append_row(&[Value::Int32(3), Value::Int32(1)])
                .is_err(),
            "wrong type must fail"
        );
    }

    #[test]
    fn from_generators_builds_projections() {
        let orders = small_orders();
        assert_eq!(orders.name(), "ORDERS");
        assert_eq!(orders.row_count(), 1500);
        assert_eq!(orders.schema(), &Schema::orders_projection());
        let lineitem = Table::from_lineitem(LineitemGenerator::new(ScaleFactor(0.001), 1));
        assert!(lineitem.row_count() > 4000 && lineitem.row_count() < 8000);
        assert!(lineitem.byte_size().value() > 0.0);
    }

    #[test]
    fn projection_copies_columns() {
        let orders = small_orders();
        let keys = orders.project(&["O_ORDERKEY"]).unwrap();
        assert_eq!(keys.row_count(), orders.row_count());
        assert_eq!(keys.schema().len(), 1);
        assert!(orders.project(&["O_NOPE"]).is_err());
    }

    #[test]
    fn append_table_requires_identical_schema() {
        let mut a = small_orders();
        let b = small_orders();
        let before = a.row_count();
        a.append_table(&b).unwrap();
        assert_eq!(a.row_count(), 2 * before);
        let lineitem = Table::from_lineitem(LineitemGenerator::new(ScaleFactor(0.001), 1));
        assert!(a.append_table(&lineitem).is_err());
    }

    #[test]
    fn append_gathered_is_gather_rows_then_append_table() {
        let orders = small_orders();
        let rows = [5u32, 0, 5, 1499];
        let mut direct = orders.gather_rows("D", &[7]);
        direct.append_gathered(&orders, &rows).unwrap();
        direct.append_gathered(&orders, &[]).unwrap();
        let mut staged = orders.gather_rows("D", &[7]);
        staged
            .append_table(&orders.gather_rows("F", &rows))
            .unwrap();
        assert_eq!(direct, staged);
        let lineitem = Table::from_lineitem(LineitemGenerator::new(ScaleFactor(0.001), 1));
        assert!(direct.append_gathered(&lineitem, &[0]).is_err());
        assert_eq!(direct, staged, "a refused gather appends nothing");
    }

    #[test]
    fn from_columns_validates_shape() {
        let schema = Schema::new([("A", ColumnType::Int64), ("B", ColumnType::Int32)]);
        let table = Table::from_columns(
            "T",
            schema.clone(),
            vec![Column::Int64(vec![1, 2]), Column::Int32(vec![10, 20])],
        )
        .unwrap();
        assert_eq!(table.row_count(), 2);
        assert_eq!(table.row(1), Some(vec![Value::Int64(2), Value::Int32(20)]));
        // Wrong column count, wrong type, ragged lengths.
        assert!(Table::from_columns("T", schema.clone(), vec![Column::Int64(vec![1])]).is_err());
        assert!(Table::from_columns(
            "T",
            schema.clone(),
            vec![Column::Int32(vec![1]), Column::Int32(vec![10])]
        )
        .is_err());
        assert!(Table::from_columns(
            "T",
            schema,
            vec![Column::Int64(vec![1, 2]), Column::Int32(vec![10])]
        )
        .is_err());
    }

    #[test]
    fn gather_rows_selects_in_index_order() {
        let orders = small_orders();
        let gathered = orders.gather_rows("G", &[2, 0, 2]);
        assert_eq!(gathered.row_count(), 3);
        assert_eq!(gathered.name(), "G");
        assert_eq!(gathered.row(0), orders.row(2));
        assert_eq!(gathered.row(1), orders.row(0));
        assert_eq!(gathered.row(2), orders.row(2));
        assert_eq!(gathered.schema(), orders.schema());
    }

    #[test]
    fn sorted_row_signature_is_order_insensitive() {
        let orders = small_orders();
        let backwards: Vec<u32> = (0..orders.row_count() as u32).rev().collect();
        let reversed = orders.gather_rows("R", &backwards);
        let cols = ["O_ORDERKEY", "O_CUSTKEY"];
        assert_eq!(
            orders.sorted_row_signature(&cols).unwrap(),
            reversed.sorted_row_signature(&cols).unwrap()
        );
        assert!(orders.sorted_row_signature(&["O_NOPE"]).is_err());
    }

    #[test]
    fn column_lookup_by_name() {
        let orders = small_orders();
        assert!(orders.column_by_name("O_CUSTKEY").is_ok());
        assert!(orders.column_by_name("O_NOPE").is_err());
        assert!(orders.column(0).is_some());
        assert!(orders.column(9).is_none());
    }

    #[test]
    fn set_name_renames() {
        let mut orders = small_orders();
        orders.set_name("ORDERS_PART_3");
        assert_eq!(orders.name(), "ORDERS_PART_3");
    }
}
