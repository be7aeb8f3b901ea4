//! Typed columns and scalar values.

use crate::error::StorageError;
use std::fmt;

/// The scalar types the engine stores. The paper's projected tuples only need
/// integers (keys, dates, priorities, prices-in-cents) and the occasional
/// float.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer (keys, prices in cents).
    Int64,
    /// 32-bit signed integer (dates as day offsets, small codes).
    Int32,
    /// 64-bit float (aggregation results).
    Float64,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int64 => write!(f, "INT64"),
            ColumnType::Int32 => write!(f, "INT32"),
            ColumnType::Float64 => write!(f, "FLOAT64"),
        }
    }
}

impl ColumnType {
    /// Storage width of one value of this type in bytes.
    pub fn width_bytes(self) -> u32 {
        match self {
            ColumnType::Int64 | ColumnType::Float64 => 8,
            ColumnType::Int32 => 4,
        }
    }
}

/// A single scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int64(i64),
    /// 32-bit signed integer.
    Int32(i32),
    /// 64-bit float.
    Float64(f64),
}

impl Value {
    /// The type of this value.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::Int64(_) => ColumnType::Int64,
            Value::Int32(_) => ColumnType::Int32,
            Value::Float64(_) => ColumnType::Float64,
        }
    }

    /// Interpret the value as a float (for aggregation).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Value::Int64(v) => v as f64,
            Value::Int32(v) => f64::from(v),
            Value::Float64(v) => v,
        }
    }

    /// Interpret the value as an i64 if it is an integer type.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int64(v) => Some(v),
            Value::Int32(v) => Some(i64::from(v)),
            Value::Float64(_) => None,
        }
    }

    /// Total order over values of the *same* type; comparing across numeric
    /// types falls back to the f64 interpretation.
    pub fn compare(&self, other: &Value) -> std::cmp::Ordering {
        match (self, other) {
            (Value::Int64(a), Value::Int64(b)) => a.cmp(b),
            (Value::Int32(a), Value::Int32(b)) => a.cmp(b),
            _ => self.as_f64().total_cmp(&other.as_f64()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int64(v) => write!(f, "{v}"),
            Value::Int32(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
        }
    }
}

/// A typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integer column.
    Int64(Vec<i64>),
    /// 32-bit integer column.
    Int32(Vec<i32>),
    /// 64-bit float column.
    Float64(Vec<f64>),
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(column_type: ColumnType) -> Self {
        match column_type {
            ColumnType::Int64 => Column::Int64(Vec::new()),
            ColumnType::Int32 => Column::Int32(Vec::new()),
            ColumnType::Float64 => Column::Float64(Vec::new()),
        }
    }

    /// An empty column with reserved capacity.
    pub fn with_capacity(column_type: ColumnType, capacity: usize) -> Self {
        match column_type {
            ColumnType::Int64 => Column::Int64(Vec::with_capacity(capacity)),
            ColumnType::Int32 => Column::Int32(Vec::with_capacity(capacity)),
            ColumnType::Float64 => Column::Float64(Vec::with_capacity(capacity)),
        }
    }

    /// The column's type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Column::Int64(_) => ColumnType::Int64,
            Column::Int32(_) => ColumnType::Int32,
            Column::Float64(_) => ColumnType::Float64,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Int32(v) => v.len(),
            Column::Float64(v) => v.len(),
        }
    }

    /// Whether the column has no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<Value> {
        match self {
            Column::Int64(v) => v.get(index).copied().map(Value::Int64),
            Column::Int32(v) => v.get(index).copied().map(Value::Int32),
            Column::Float64(v) => v.get(index).copied().map(Value::Float64),
        }
    }

    /// Append a value; errors if the value's type does not match the column.
    pub fn push(&mut self, value: Value) -> Result<(), StorageError> {
        match (self, value) {
            (Column::Int64(v), Value::Int64(x)) => v.push(x),
            (Column::Int32(v), Value::Int32(x)) => v.push(x),
            (Column::Float64(v), Value::Float64(x)) => v.push(x),
            (col, value) => {
                return Err(StorageError::schema(format!(
                    "cannot push {:?} value into {} column",
                    value.column_type(),
                    col.column_type()
                )))
            }
        }
        Ok(())
    }

    /// Append the whole of `source` onto this column in one slice copy —
    /// the column-wise building block of [`crate::Table::append_table`].
    pub fn extend_from(&mut self, source: &Column) -> Result<(), StorageError> {
        match (self, source) {
            (Column::Int64(dst), Column::Int64(src)) => dst.extend_from_slice(src),
            (Column::Int32(dst), Column::Int32(src)) => dst.extend_from_slice(src),
            (Column::Float64(dst), Column::Float64(src)) => dst.extend_from_slice(src),
            (dst, src) => {
                return Err(StorageError::schema(format!(
                    "cannot extend {} column from {} column",
                    dst.column_type(),
                    src.column_type()
                )))
            }
        }
        Ok(())
    }

    /// Append `source[i]` for every index in `indices`, in order — the
    /// column-wise building block of [`crate::Table::append_gathered`].
    /// Indices must be in bounds of `source` (panics otherwise, like slice
    /// indexing).
    pub fn gather_from(&mut self, source: &Column, indices: &[u32]) -> Result<(), StorageError> {
        match (self, source) {
            (Column::Int64(dst), Column::Int64(src)) => {
                dst.extend(indices.iter().map(|&i| src[i as usize]));
            }
            (Column::Int32(dst), Column::Int32(src)) => {
                dst.extend(indices.iter().map(|&i| src[i as usize]));
            }
            (Column::Float64(dst), Column::Float64(src)) => {
                dst.extend(indices.iter().map(|&i| src[i as usize]));
            }
            (dst, src) => {
                return Err(StorageError::schema(format!(
                    "cannot gather {} column into {} column",
                    src.column_type(),
                    dst.column_type()
                )))
            }
        }
        Ok(())
    }

    /// A new column holding `self[i]` for every index in `indices`, in
    /// order. Indices must be in bounds (panics otherwise).
    pub fn gathered(&self, indices: &[u32]) -> Column {
        match self {
            Column::Int64(v) => Column::Int64(indices.iter().map(|&i| v[i as usize]).collect()),
            Column::Int32(v) => Column::Int32(indices.iter().map(|&i| v[i as usize]).collect()),
            Column::Float64(v) => Column::Float64(indices.iter().map(|&i| v[i as usize]).collect()),
        }
    }

    /// Bytes of payload stored in the column.
    pub fn byte_size(&self) -> u64 {
        self.len() as u64 * u64::from(self.column_type().width_bytes())
    }

    /// Borrow as an i64 slice (only for `Int64` columns).
    pub fn as_i64_slice(&self) -> Option<&[i64]> {
        match self {
            Column::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as an i32 slice (only for `Int32` columns).
    pub fn as_i32_slice(&self) -> Option<&[i32]> {
        match self {
            Column::Int32(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut col = Column::empty(ColumnType::Int64);
        col.push(Value::Int64(42)).unwrap();
        col.push(Value::Int64(-7)).unwrap();
        assert_eq!(col.len(), 2);
        assert_eq!(col.get(0), Some(Value::Int64(42)));
        assert_eq!(col.get(1), Some(Value::Int64(-7)));
        assert_eq!(col.get(2), None);
        assert_eq!(col.byte_size(), 16);
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut col = Column::empty(ColumnType::Int32);
        assert!(col.push(Value::Int64(1)).is_err());
        assert!(col.push(Value::Float64(1.0)).is_err());
        assert!(col.push(Value::Int32(1)).is_ok());
    }

    #[test]
    fn value_conversions_and_comparison() {
        assert_eq!(Value::Int32(7).as_f64(), 7.0);
        assert_eq!(Value::Int64(7).as_i64(), Some(7));
        assert_eq!(Value::Int32(7).as_i64(), Some(7));
        assert_eq!(Value::Float64(7.5).as_i64(), None);
        assert_eq!(
            Value::Int64(3).compare(&Value::Int64(5)),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            Value::Int32(5).compare(&Value::Int32(5)),
            std::cmp::Ordering::Equal
        );
        assert_eq!(
            Value::Float64(9.0).compare(&Value::Int64(5)),
            std::cmp::Ordering::Greater
        );
    }

    #[test]
    fn widths_and_display() {
        assert_eq!(ColumnType::Int64.width_bytes(), 8);
        assert_eq!(ColumnType::Int32.width_bytes(), 4);
        assert_eq!(ColumnType::Float64.width_bytes(), 8);
        assert_eq!(ColumnType::Int32.to_string(), "INT32");
        assert_eq!(Value::Int64(9).to_string(), "9");
    }

    #[test]
    fn extend_from_appends_column_wise() {
        let mut dst = Column::Int64(vec![1, 2]);
        dst.extend_from(&Column::Int64(vec![3, 4])).unwrap();
        assert_eq!(dst.as_i64_slice(), Some(&[1i64, 2, 3, 4][..]));
        assert!(dst.extend_from(&Column::Int32(vec![5])).is_err());
        assert!(dst.extend_from(&Column::Float64(vec![5.0])).is_err());
    }

    #[test]
    fn gather_selects_in_index_order() {
        let source = Column::Int32(vec![10, 20, 30, 40]);
        let gathered = source.gathered(&[3, 0, 0, 2]);
        assert_eq!(gathered.as_i32_slice(), Some(&[40i32, 10, 10, 30][..]));
        let mut dst = Column::Int32(vec![5]);
        dst.gather_from(&source, &[1, 1]).unwrap();
        assert_eq!(dst.as_i32_slice(), Some(&[5i32, 20, 20][..]));
        assert!(dst.gather_from(&Column::Int64(vec![1]), &[0]).is_err());
        assert!(source.gathered(&[]).is_empty());
    }

    #[test]
    fn slice_accessors() {
        let col = Column::Int64(vec![1, 2, 3]);
        assert_eq!(col.as_i64_slice(), Some(&[1i64, 2, 3][..]));
        assert!(col.as_i32_slice().is_none());
        assert!(!col.is_empty());
        assert!(Column::empty(ColumnType::Float64).is_empty());
    }
}
