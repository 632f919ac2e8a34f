"""Dense complex matrix kernel.

All operators in this package are plain ``numpy.ndarray`` values of dtype
complex128, row-major, with multipartite structure carried separately by a
``SystemLayout``. Row and column indices of an operator on systems with
dimensions ``(d_1, ..., d_n)`` factor as ``i = ((i_1 * d_2 + i_2) * d_3 + ...)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .config import max_total_dimension
from .errors import DimensionError


@dataclass(frozen=True)
class SystemLayout:
    """Ordered tuple of subsystem dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not (isinstance(self.dims, tuple) and all(_is_int(d) and d >= 1 for d in self.dims)):
            raise ValueError(f"dimensions must be positive integers, got {self.dims}")
        if not self.dims:
            raise ValueError("layout needs at least one system")
        # the product stops at the first partial product above the cap, so a
        # long layout is refused before its total grows with it
        total, cap = 1, max_total_dimension()
        for i, d in enumerate(self.dims, 1):
            total *= d
            if total > cap:
                bound = "" if i == len(self.dims) else "at least "
                raise DimensionError(f"total dimension {bound}{total} exceeds the configured cap {cap}")

    @classmethod
    def of(cls, layout) -> "SystemLayout":
        """A checked layout; a given ``SystemLayout`` is rebuilt, so the current cap applies; a scalar is refused."""
        if isinstance(layout, SystemLayout):
            return cls(layout.dims)
        return cls(tuple(int(d) if _is_int(d) else d for d in layout) if np.iterable(layout) else layout)

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def validate_subset(self, subset: Iterable[int]) -> tuple[int, ...]:
        """Sorted, deduplicated system indices; must be a nonempty strict-or-full subset."""
        subset = tuple(subset) if np.iterable(subset) else subset
        if not (isinstance(subset, tuple) and all(map(_is_int, subset))):
            raise ValueError(f"system indices must be integers, got {subset}")
        subset = tuple(sorted({int(i) for i in subset}))
        if not subset:
            raise ValueError("system subset must be nonempty")
        for i in subset:
            if i < 0 or i >= len(self.dims):
                raise ValueError(f"system index {i} out of range for {len(self.dims)} systems")
        return subset

    def split(self, front: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(front, rest)`` of a cut: ``front`` sorted and strict, ``rest`` the other systems in order."""
        front = self.validate_subset(front)
        if len(front) == len(self.dims):
            raise ValueError("grouped subset must be a strict subset of the systems")
        return front, tuple(i for i in range(len(self.dims)) if i not in front)


def _check_budget(what: str, entries: int) -> int:
    """Refuse more than ``2 cap^2`` entries, cap = ``max_total_dimension()``; else return that budget."""
    cap = max_total_dimension()
    if entries > 2 * cap * cap:
        raise DimensionError(f"{what} of {entries} entries exceeds the budget 2 * {cap}^2")
    return 2 * cap * cap


def _is_int(value) -> bool:
    """An integer that is not a bool: Python and numpy ints pass, floats and strings do not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_operator(m, name: str = "operator") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {m.shape}")
    return _require_finite(m, name)


def _require_finite(m, name: str) -> np.ndarray:
    """``m`` as a complex array, or ValueError naming ``name`` when an entry is nan or inf."""
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _as_square_family(ops, name: str):
    """The family as one finite complex ``(n, d, d)`` stack, and d."""
    if len(ops) == 0:
        raise ValueError(f"{name} must not be empty")
    if isinstance(ops, np.ndarray) and ops.ndim == 3:
        members = ops
    else:
        members = [np.asarray(op) for op in ops]
        if any(op.shape != members[0].shape for op in members):
            raise ValueError(f"{name} must share one square shape")
    stack = np.asarray(members, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionError(
            f"{name} must be square matrices, got shape {stack.shape[1:]}"
        )
    return _require_finite(stack, name), stack.shape[1]


def on_layout(u, layout, name: str = "operator", unitary: bool = False):
    """``(u, layout)``: ``layout`` checked, ``u`` a finite square matrix (unitary, if asked) of its side.

    The one check that a gate fits its layout; every entry point that takes both calls it once.
    """
    layout = SystemLayout.of(layout)
    u = assert_unitary(u, name) if unitary else as_operator(u, name)
    if u.shape[0] != layout.total:
        raise DimensionError(f"{name} has side {u.shape[0]} but layout {layout.dims} implies {layout.total}")
    return u, layout


def frobenius_norm(m: np.ndarray) -> float:
    """``np.linalg.norm(m)`` as numpy evaluates it, without its argument handling: ``sqrt(re . re + im . im)``."""
    m = np.asarray(m).ravel(order="K")
    return float(np.sqrt(m.real.dot(m.real) + m.imag.dot(m.imag) if m.dtype.kind == "c" else m.dot(m)))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """``frobenius_norm`` of each matrix of a stack, from two BLAS dots each.

    Bitwise equal to ``frobenius_norm`` on Gram deviations of unitaries; on
    general complex stacks the two may differ in the last bits.
    """
    re, im = stack.real.reshape(*stack.shape[:-2], 1, -1), stack.imag.reshape(*stack.shape[:-2], 1, -1)
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def checked_tol(tol, name: str = "tol"):
    """``tol``, or ValueError naming ``name`` when it is not a finite number in (0, 1)."""
    if not (_only_numbers([tol]) and 0.0 < tol < 1.0):
        raise ValueError(f"{name} must be a finite number in (0, 1), got {tol!r}")
    return tol


def unitarity_residuals(stack: np.ndarray) -> np.ndarray:
    """``||V^dagger V - I||_F / sqrt(d)`` of each ``V`` of a ``(n, d, d)`` stack, one batched Gram."""
    d = stack.shape[-1]
    gram = stack.conj().transpose(0, 2, 1) @ stack
    # 1 off the fresh Gram's diagonal in place: the bits of ``gram - I``, without forming I
    gram.reshape(len(gram), d * d)[:, :: d + 1] -= 1.0
    return frobenius_norms(gram) / math.sqrt(d)


def _stacked(arrays) -> np.ndarray:
    """``arrays`` as one stack along a new leading axis; a single array is viewed, not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def assert_unitary(u: np.ndarray, name: str = "operator", rtol: float = 1e-10) -> np.ndarray:
    u = as_operator(u, name)
    residual = unitarity_residuals(u[None])[0]
    if residual > rtol:
        raise ValueError(f"{name} is not unitary (residual {residual:.3e})")
    return u


def realign(u: np.ndarray, layout) -> np.ndarray:
    """Bipartite realignment: M[(i,k), (j,l)] = u[(i,j), (k,l)].

    For u = A (x) B this is the rank-one matrix vec(A) vec(B)^T, so the SVD of
    the realignment is the operator Schmidt decomposition.
    """
    u, layout = on_layout(u, layout, "realign input")
    if len(layout) != 2:
        raise DimensionError(f"realign needs a bipartite layout, got {layout.dims}")
    return _realigned(u, layout.dims)


def _realigned(u: np.ndarray, dims, parts=None) -> np.ndarray:
    """The realignment of ``u`` on ``dims``, one axis of ``prod(d_i)^2`` per part (each system alone by default):
    on a cut's ``(front, rest)``, the grouped operator's realignment, in one transpose and no grouped copy."""
    parts = parts or [(i,) for i in range(len(dims))]
    axes = [x for part in parts for x in (*part, *(len(dims) + i for i in part))]
    return np.reshape(u, tuple(dims) * 2).transpose(axes).reshape([math.prod(dims[i] for i in p) ** 2 for p in parts])


def _realigned_sum(c, lefts, rights) -> np.ndarray:
    """The realignment of sum_i c_i A_i (x) B_i: sum_i c_i vec(A_i) vec(B_i)^T."""
    return (np.reshape(lefts, (len(lefts), -1)).T * c) @ np.reshape(rights, (len(rights), -1))


def _realigned_sum_norms(lefts, rights) -> np.ndarray:
    """``||_realigned_sum(1, A, B)||_F = ||L M^T||_F`` of each ``(A, B)`` of two ``(k, n, d, d)`` stacks, read as
    ``||L R^T||_F`` through the QR ``M = Q R`` of the right frame (``Q^T`` keeps the norm): no Gram, no full product."""
    frame, right = (np.reshape(f, (*np.shape(f)[:2], -1)).swapaxes(1, 2) for f in (lefts, rights))
    return frobenius_norms(frame @ np.linalg.qr(right, mode="r").swapaxes(1, 2))


def unrealign(m: np.ndarray, layout) -> np.ndarray:
    """Inverse of :func:`realign`."""
    layout = SystemLayout.of(layout)
    if len(layout) != 2:
        raise DimensionError(f"unrealign needs a bipartite layout, got {layout.dims}")
    da, db = layout.dims
    m = np.asarray(m, dtype=complex)
    if m.shape != (da * da, db * db):
        raise DimensionError(
            f"unrealign input has shape {m.shape}, expected {(da * da, db * db)}"
        )
    t = m.reshape(da, da, db, db)  # indices (i, k, j, l)
    return t.transpose(0, 2, 1, 3).reshape(da * db, da * db)


def permute_systems(u: np.ndarray, layout, perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors: factor ``k`` of the result is factor ``perm[k]`` of ``u``."""
    u, layout = on_layout(u, layout, "permute input")
    n = len(layout)
    perm = tuple(perm) if np.iterable(perm) else perm
    if not (isinstance(perm, tuple) and all(map(_is_int, perm))) or sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    return _permuted(u, layout.dims, tuple(map(int, perm)))


def _permuted(u: np.ndarray, dims: tuple, perm: tuple) -> np.ndarray:
    axes = perm + tuple(len(perm) + p for p in perm)
    return u.reshape(dims * 2).transpose(axes).reshape(u.shape)


def cut_order(layout: SystemLayout, front) -> tuple[tuple, tuple, tuple]:
    """``(front, front + rest, (d_front, d_rest))``: a cut checked, and the one system order of its grouped frame."""
    front, rest = layout.split(front)
    d_front = math.prod(layout.dims[i] for i in front)
    return front, front + rest, (d_front, layout.total // d_front)


def group_systems(u: np.ndarray, layout, front: Iterable[int]):
    """Permute ``front`` systems (sorted) to the left; returns (operator, (d_front, d_rest)).

    The grouped operator is bipartite with the chosen subset as its first factor, which is the
    frame every cut-based routine works in. Only the shape of ``u`` is checked, not its entries.
    """
    layout = SystemLayout.of(layout)
    _, order, dims = cut_order(layout, front)
    u = np.asarray(u, dtype=complex)
    if u.shape != (layout.total,) * 2:
        raise DimensionError(f"grouped operator has shape {u.shape}, layout {layout.dims}")
    return _permuted(u, layout.dims, order), dims


def group_states(vectors: np.ndarray, layout: SystemLayout, order: tuple, dims: tuple) -> np.ndarray:
    """A ``(k, D)`` stack of states on ``layout`` as ``(k, d_front, d_rest)`` matrices, in a cut's order."""
    axes = (0, *(1 + i for i in order))
    return vectors.reshape(-1, *layout.dims).transpose(axes).reshape(len(vectors), *dims)


# No library path calls ``partial_trace``; it stays because ``bench/spans.py`` wraps it by name
# and the tests use it as the reference formula of a control-side trace.
def partial_trace(u: np.ndarray, layout, keep: Iterable[int]) -> np.ndarray:
    """Trace out every system not listed in ``keep`` (original order preserved)."""
    u, layout = on_layout(u, layout, "partial_trace input")
    keep = layout.validate_subset(keep)
    n = len(layout)
    t = u.reshape(layout.dims + layout.dims)
    # Trace discarded systems from the highest axis down so indices stay valid.
    for i in sorted(set(range(n)) - set(keep), reverse=True):
        row_axis = i
        col_axis = i + (t.ndim // 2)
        t = np.trace(t, axis1=row_axis, axis2=col_axis)
    side = math.prod(layout.dims[i] for i in keep)
    return t.reshape(side, side)


# --- JSON schemas ---------------------------------------------------------
#
# Matrix: {"dims": [d1, ...], "rows": N, "cols": N,
#          "data": [[re, im], ...]} with data row-major, N = prod(dims).
# State:  {"dims": [d1, ...], "amplitudes": [[re, im], ...]}.


def _only_numbers(values) -> bool:
    """Every value is an int or a float, numpy's included; a bool, a string and null are not."""
    return all(issubclass(t, (int, float, np.integer, np.floating)) and t is not bool for t in set(map(type, values)))


def _first_bad_pair(pairs, name: str) -> str:
    """Describe the first entry of ``pairs`` that is not a finite [re, im] pair."""
    for idx, entry in enumerate(pairs):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            return f"{name}[{idx}] is not a [re, im] pair"
        if not _only_numbers(entry):
            return f"{name}[{idx}] is not a pair of numbers"
        try:
            re, im = float(entry[0]), float(entry[1])
        except OverflowError:  # an int past the float range
            return f"{name}[{idx}] is not a pair of numbers"
        if not (math.isfinite(re) and math.isfinite(im)):
            return f"{name}[{idx}] is not finite"
    return f"{name} is not a list of finite [re, im] pairs"


def _layout_from_json(dims) -> SystemLayout:
    if not isinstance(dims, list) or not all(_is_int(d) for d in dims):
        raise ValueError("dims must be a list of positive integers")
    return SystemLayout.of(dims)


def _pairs_to_complex(pairs, count: int, name: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != count:
        raise ValueError(f"{name} must be a list of {count} [re, im] pairs")
    try:
        arr = np.array(pairs, dtype=float)
        # numpy also reads numeric strings and bools as numbers; the type scan refuses them
        ok = arr.shape == (count, 2) and bool(np.isfinite(arr).all()) and _only_numbers(chain.from_iterable(pairs))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        # numpy reads a null entry as nan; the scan names it as a non-number.
        raise ValueError(_first_bad_pair(pairs, name))
    # Viewing the pairs as complex keeps every bit, signed zeros included.
    return arr.view(complex).reshape(count)


def _complex_to_pairs(values: np.ndarray) -> list[list[float]]:
    v = values.ravel()
    return np.stack((v.real, v.imag), -1).tolist()


def matrix_to_json(m: np.ndarray, dims: Sequence[int]) -> dict:
    m, layout = on_layout(m, dims, "matrix")
    return {
        "dims": list(layout.dims),
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": _complex_to_pairs(m),
    }


def matrix_from_json(obj: dict) -> tuple[np.ndarray, SystemLayout]:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    for key in ("dims", "rows", "cols", "data"):
        if key not in obj:
            raise ValueError(f"matrix JSON missing key {key!r}")
    layout = _layout_from_json(obj["dims"])
    rows, cols = obj["rows"], obj["cols"]
    if not (_is_int(rows) and _is_int(cols)):
        raise ValueError("rows and cols must be integers")
    if rows != cols or rows != layout.total:
        raise ValueError(
            f"matrix JSON claims shape {rows}x{cols} but dims {layout.dims} "
            f"imply a square side of {layout.total}"
        )
    flat = _pairs_to_complex(obj["data"], rows * cols, "data")
    return flat.reshape(rows, cols), layout


def state_to_json(v: np.ndarray, dims: Sequence[int]) -> dict:
    v = np.asarray(v, dtype=complex).ravel()
    layout = SystemLayout.of(dims)
    if v.shape[0] != layout.total:
        raise DimensionError(
            f"state has length {v.shape[0]} but dims {layout.dims} imply {layout.total}"
        )
    return {"dims": list(layout.dims), "amplitudes": _complex_to_pairs(v)}


def state_from_json(obj: dict) -> tuple[np.ndarray, SystemLayout]:
    if not isinstance(obj, dict):
        raise ValueError("state JSON must be an object")
    for key in ("dims", "amplitudes"):
        if key not in obj:
            raise ValueError(f"state JSON missing key {key!r}")
    layout = _layout_from_json(obj["dims"])
    return _pairs_to_complex(obj["amplitudes"], layout.total, "amplitudes"), layout
