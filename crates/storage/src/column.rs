//! Typed columns.

use crate::error::StorageError;
use std::fmt;

/// The two scalar types the engine stores. The paper's projected tuples are
/// all integers: keys and prices in cents as `Int64`, dates as day offsets
/// and small codes as `Int32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer (keys, prices in cents).
    Int64,
    /// 32-bit signed integer (dates as day offsets, small codes).
    Int32,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int64 => write!(f, "INT64"),
            ColumnType::Int32 => write!(f, "INT32"),
        }
    }
}

impl ColumnType {
    /// Storage width of one value of this type in bytes.
    pub fn width_bytes(self) -> u32 {
        match self {
            ColumnType::Int64 => 8,
            ColumnType::Int32 => 4,
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
}

impl Column {
    /// An empty column with reserved capacity.
    pub fn with_capacity(column_type: ColumnType, capacity: usize) -> Self {
        match column_type {
            ColumnType::Int64 => Column::Int64(Vec::with_capacity(capacity)),
            ColumnType::Int32 => Column::Int32(Vec::with_capacity(capacity)),
        }
    }

    /// The column's type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Column::Int64(_) => ColumnType::Int64,
            Column::Int32(_) => ColumnType::Int32,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Int32(v) => v.len(),
        }
    }

    /// Whether the column has no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append the whole of `source` onto this column in one slice copy —
    /// the column-wise building block of [`crate::Table::append_table`].
    pub fn extend_from(&mut self, source: &Column) -> Result<(), StorageError> {
        match (self, source) {
            (Column::Int64(dst), Column::Int64(src)) => dst.extend_from_slice(src),
            (Column::Int32(dst), Column::Int32(src)) => dst.extend_from_slice(src),
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
            Column::Int32(_) => None,
        }
    }

    /// Borrow as an i32 slice (only for `Int32` columns).
    pub fn as_i32_slice(&self) -> Option<&[i32]> {
        match self {
            Column::Int32(v) => Some(v),
            Column::Int64(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_mismatch_is_rejected() {
        let mut wide = Column::Int64(vec![1]);
        let narrow = Column::Int32(vec![2]);
        assert!(wide.extend_from(&narrow).is_err());
        assert!(wide.gather_from(&narrow, &[0]).is_err());
        assert_eq!(
            wide,
            Column::Int64(vec![1]),
            "a refused append adds nothing"
        );
        let mut narrow = narrow;
        assert!(narrow.extend_from(&wide).is_err());
        assert!(narrow.gather_from(&wide, &[0]).is_err());
    }

    #[test]
    fn widths_and_display() {
        assert_eq!(ColumnType::Int64.width_bytes(), 8);
        assert_eq!(ColumnType::Int32.width_bytes(), 4);
        assert_eq!(ColumnType::Int32.to_string(), "INT32");
        assert_eq!(ColumnType::Int64.to_string(), "INT64");
        assert_eq!(Column::Int64(vec![42, -7]).byte_size(), 16);
        assert_eq!(Column::Int32(vec![42, -7]).byte_size(), 8);
    }

    #[test]
    fn extend_from_appends_column_wise() {
        let mut dst = Column::Int64(vec![1, 2]);
        dst.extend_from(&Column::Int64(vec![3, 4])).unwrap();
        assert_eq!(dst.as_i64_slice(), Some(&[1i64, 2, 3, 4][..]));
        assert!(dst.extend_from(&Column::Int32(vec![5])).is_err());
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
        assert!(Column::Int32(vec![1]).as_i64_slice().is_none());
        assert!(!col.is_empty());
        assert!(Column::with_capacity(ColumnType::Int32, 4).is_empty());
        let empty = Column::with_capacity(ColumnType::Int64, 0);
        assert_eq!(empty.column_type(), ColumnType::Int64);
    }
}
