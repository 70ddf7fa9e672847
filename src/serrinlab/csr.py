"""Compressed sparse row matrices on scipy's compiled sparse kernels.

A CSR holds the row pointers, int32 column indices and float64 values of a
(rows, cols) matrix.  Each operation calls the kernel of
scipy.sparse._sparsetools that scipy.sparse 1.17.1 calls for it, with the
arguments scipy passes, so every result equals scipy's array for array, the
order of the entries in a row included.  scipy.sparse itself, whose import
runs scipy's array-API layer and numpy.random, is never imported.  Only the
operations the program runs are here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse._sparsetools import (
    coo_tocsr,
    csr_column_index1,
    csr_column_index2,
    csr_diagonal,
    csr_has_canonical_format,
    csr_has_sorted_indices,
    csr_matmat,
    csr_matmat_maxnnz,
    csr_matvec,
    csr_matvecs,
    csr_plus_csr,
    csr_row_index,
    csr_sort_indices,
    csr_sum_duplicates,
    csr_tocsc,
)


def _empty(nnz):
    """Uninitialised int32 index and float64 value buffers of nnz entries."""
    return np.empty(nnz, dtype=np.int32), np.empty(nnz)


@dataclass(eq=False)
class CSR:
    """A (rows, cols) sparse matrix: the columns and values of row i are
    indices[indptr[i]:indptr[i + 1]] and data[...] of the same slice."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @classmethod
    def from_coo(cls, rows, cols, values, shape):
        """The matrix with values[k] added at (rows[k], cols[k]), each row's
        columns sorted: coo_matrix((values, (rows, cols)), shape).tocsr()."""
        m, n = shape
        rows, cols = (np.asarray(a, dtype=np.int32) for a in (rows, cols))
        values = np.asarray(values, dtype=float)
        indptr = np.empty(m + 1, dtype=np.int32)
        indices, data = _empty(len(values))
        coo_tocsr(m, n, len(values), rows, cols, values, indptr, indices, data)
        if not csr_has_canonical_format(m, indptr, indices):
            if not csr_has_sorted_indices(m, indptr, indices):
                csr_sort_indices(m, indptr, indices, data)
            csr_sum_duplicates(m, n, indptr, indices, data)
            indices, data = indices[:indptr[-1]].copy(), data[:indptr[-1]].copy()
        return cls(indptr, indices, data, (m, n))

    def rows(self, idx):
        """A[idx] for an array of row ids."""
        idx = np.asarray(idx, dtype=np.int32).ravel()
        indptr = np.zeros(len(idx) + 1, dtype=np.int32)
        np.cumsum(self.indptr[idx + 1] - self.indptr[idx], out=indptr[1:])
        indices, data = _empty(indptr[-1])
        csr_row_index(len(idx), idx, self.indptr, self.indices, self.data, indices, data)
        return CSR(indptr, indices, data, (len(idx), self.shape[1]))

    def columns(self, idx):
        """A[:, idx] for an array of column ids."""
        idx = np.asarray(idx, dtype=np.int32).ravel()
        m, n = self.shape
        offsets = np.zeros(n, dtype=np.int32)
        indptr = np.empty(m + 1, dtype=np.int32)
        csr_column_index1(len(idx), idx, m, n, self.indptr, self.indices, offsets, indptr)
        indices, data = _empty(indptr[-1])
        csr_column_index2(np.argsort(idx).astype(np.int32, copy=False), offsets,
                          len(self.indices), self.indices, self.data, indices, data)
        return CSR(indptr, indices, data, (m, len(idx)))

    def transpose(self):
        """A^T, each row's columns sorted (its arrays are A's CSC arrays)."""
        m, n = self.shape
        indptr = np.empty(n + 1, dtype=np.int32)
        indices, data = _empty(len(self.indices))
        csr_tocsc(m, n, self.indptr, self.indices, self.data, indptr, indices, data)
        return CSR(indptr, indices, data, (n, m))

    def diagonal(self):
        y = np.empty(min(self.shape))
        csr_diagonal(0, *self.shape, self.indptr, self.indices, self.data, y)
        return y

    def __add__(self, other):
        """A + B; rows are merged in sorted order only when both are canonical."""
        m, n = self.shape
        indptr = np.empty(m + 1, dtype=np.int32)
        indices, data = _empty(len(self.indices) + len(other.indices))
        csr_plus_csr(m, n, self.indptr, self.indices, self.data,
                     other.indptr, other.indices, other.data, indptr, indices, data)
        return CSR(indptr, indices[:indptr[-1]].copy(), data[:indptr[-1]].copy(), (m, n))

    def __matmul__(self, other):
        """A @ B for a CSR B, whose rows come out unsorted in csr_matmat's
        order; A @ x for a vector or an (n, k) array x."""
        m = self.shape[0]
        if isinstance(other, CSR):
            n = other.shape[1]
            nnz = csr_matmat_maxnnz(m, n, self.indptr, self.indices, other.indptr, other.indices)
            indptr = np.empty(m + 1, dtype=np.int32)
            indices, data = _empty(nnz)
            csr_matmat(m, n, self.indptr, self.indices, self.data,
                       other.indptr, other.indices, other.data, indptr, indices, data)
            return CSR(indptr, indices[:indptr[-1]], data[:indptr[-1]], (m, n))
        x = np.asarray(other)
        if x.ndim == 1:
            y = np.zeros(m)
            csr_matvec(m, self.shape[1], self.indptr, self.indices, self.data, x, y)
            return y
        y = np.zeros((m, x.shape[1]))
        csr_matvecs(m, self.shape[1], x.shape[1], self.indptr, self.indices, self.data,
                    x.ravel(), y.ravel())
        return y
