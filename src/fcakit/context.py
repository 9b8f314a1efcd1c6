"""Binary formal contexts: representation, file formats, derivation operators.

A context couples a list of objects with a list of attributes through a
binary incidence relation.  Attribute sets and object sets are plain Python
ints used as bitsets: bit ``j`` of an attribute mask corresponds to
``attribute_names[j]``, bit ``g`` of an object mask to ``object_names[g]``.
Arbitrary-precision ints make the set algebra exact for any width; the
descriptions table, which accounts for every subset of the attributes, is
refused above ``POWERSET_SCAN_LIMIT`` attributes.

The canonical ("lectic") order used throughout treats the first attribute as
most significant: a mask's rank is its bit-reversal within the context width.
``lectic_sorted`` sorts Python ints by that rank, ``lectic_order`` sorts
``uint64`` word arrays through a byte table, and a ``LecticWords`` list
carries its sorted word array along.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, TypeAlias

import numpy as np

AttrSet: TypeAlias = int
ObjSet: TypeAlias = int

# Exhaustive 2**|M| enumerations are refused above this attribute count.
POWERSET_SCAN_LIMIT = 25


class ContextFormatError(ValueError):
    """Raised when an input file does not conform to its declared format."""


class CapacityError(RuntimeError):
    """Raised when an operation would enumerate too large a power set."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_reverse(value: int, width: int) -> int:
    """Reverse the low ``width`` bits of ``value``.

    The result is the lectic rank of ``value`` seen as an attribute mask of
    a ``width``-attribute context, so sorting masks by this key sorts them
    lectically.
    """
    if value >> width:
        raise ValueError(f"value has bits above width {width}")
    return int(f"{value:0{width}b}"[::-1], 2)


def lectic_sorted(masks: Iterable[int], width: int) -> list[int]:
    return sorted(masks, key=lambda m: bit_reverse(m, width))


# _REV8[b] is the byte b with its eight bits in reverse order.
_REV8 = np.array([bit_reverse(b, 8) for b in range(256)], dtype=np.uint8)


def lectic_order(words: np.ndarray) -> np.ndarray:
    """The permutation that sorts a ``uint64`` array of masks lectically.

    The word path's twin of ``lectic_sorted``, for masks of any width up to
    64.  Each word is bit-reversed as a whole: every byte through a table,
    then the byte order.  A mask of a ``width``-attribute context has no bit
    at or above ``width``, so its 64-bit reversal is its ``width``-bit one
    shifted left by ``64 - width``, which sorts alike.  No shift is made,
    so width 0 (all masks empty) needs no special case.
    """
    rev = _REV8[np.ascontiguousarray(words, dtype=np.uint64).view(np.uint8)]
    return np.argsort(rev.view(np.uint64).byteswap(), kind="stable")


# Masks of every other bit, pair and nibble, and a one in every byte.
_M1, _M2, _M4, _H01 = (
    np.uint64(m)
    for m in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101)
)


def popcounts(words: np.ndarray) -> np.ndarray:
    """Attribute count of each mask of a ``uint64`` array, as ``int64``.

    The bits are summed in place by pairs, then nibbles, then bytes; the
    product by a one in every byte adds all bytes into the top one (array
    products wrap silently, as this needs).
    """
    x = words - ((words >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    x *= _H01
    x >>= np.uint64(56)
    return x.view(np.int64)


class LecticWords(list):
    """Distinct masks of up to 64 bits in lectic order, also held as one
    ``uint64`` array, ``words``, in the same order.

    ``enumerate_intents`` returns one, and ``build_lattice`` and
    ``ClassIndex.sizes`` read its array instead of converting the list
    back.  ``terms`` is a ``(2, len)`` array of the two lattice terms of
    each mask, in the same order, which ``build_lattice`` hands to the
    lattice.  The list and the arrays must agree, so none is changed.
    """

    def __init__(self, words: np.ndarray, terms: np.ndarray) -> None:
        super().__init__(words.tolist())
        self.words = words
        self.terms = terms


@dataclass(frozen=True)
class FormalContext:
    """An immutable binary context.

    ``rows[g]`` is the attribute mask of object ``g``.  All derivation
    operators are pure functions of the context, so instances are safe to
    share across workers.
    """

    object_names: tuple[str, ...]
    attribute_names: tuple[str, ...]
    rows: tuple[AttrSet, ...]
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "object_names", tuple(self.object_names))
        object.__setattr__(self, "attribute_names", tuple(self.attribute_names))
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != len(self.object_names):
            raise ValueError(
                f"{len(self.rows)} rows for {len(self.object_names)} objects"
            )
        if len(set(self.object_names)) != len(self.object_names):
            raise ValueError("duplicate object names")
        if len(set(self.attribute_names)) != len(self.attribute_names):
            raise ValueError("duplicate attribute names")
        n = len(self.attribute_names)
        for name, row in zip(self.object_names, self.rows):
            if row < 0 or row >> n:
                raise ValueError(f"row for {name!r} sets bits beyond attribute {n - 1}")

    @property
    def n_objects(self) -> int:
        return len(self.object_names)

    @property
    def n_attrs(self) -> int:
        return len(self.attribute_names)

    @cached_property
    def object_universe(self) -> ObjSet:
        return (1 << self.n_objects) - 1

    @cached_property
    def attribute_universe(self) -> AttrSet:
        return (1 << self.n_attrs) - 1

    @cached_property
    def columns(self) -> tuple[ObjSet, ...]:
        """Per-attribute object masks (the transposed incidence relation).

        The rows are unpacked into a bit matrix, which is transposed and
        packed again, both little-endian, so bit j of row g becomes bit g
        of column j.
        """
        n_g, n_m = self.n_objects, self.n_attrs
        width = (n_m + 7) // 8
        packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in self.rows), np.uint8)
        bits = np.unpackbits(packed.reshape(n_g, width), axis=1, count=n_m, bitorder="little")
        cols = np.packbits(bits.T, axis=1, bitorder="little")
        return tuple(int.from_bytes(col, "little") for col in cols)

    @property
    def crosses(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    @property
    def density(self) -> float:
        cells = self.n_objects * self.n_attrs
        return self.crosses / cells if cells else 0.0

    def attr_index(self, name: str) -> int:
        try:
            return self.attribute_names.index(name)
        except ValueError:
            raise KeyError(name) from None

    def attrs_mask(self, names: Iterable[str]) -> AttrSet:
        mask = 0
        for name in names:
            mask |= 1 << self.attr_index(name)
        return mask

    def attr_names(self, mask: AttrSet) -> tuple[str, ...]:
        return tuple(self.attribute_names[j] for j in iter_bits(mask))

    def objs_mask(self, names: Iterable[str]) -> ObjSet:
        mask = 0
        for name in names:
            try:
                mask |= 1 << self.object_names.index(name)
            except ValueError:
                raise KeyError(name) from None
        return mask

    def obj_names(self, mask: ObjSet) -> tuple[str, ...]:
        return tuple(self.object_names[g] for g in iter_bits(mask))


def extent(ctx: FormalContext, attrs: AttrSet) -> ObjSet:
    """Objects whose rows contain every attribute of ``attrs``."""
    if attrs >> ctx.n_attrs:
        raise ValueError("attribute mask exceeds context capacity")
    out = ctx.object_universe
    cols = ctx.columns
    while attrs:
        low = attrs & -attrs
        out &= cols[low.bit_length() - 1]
        if not out:
            break
        attrs ^= low
    return out


def intent_of(ctx: FormalContext, objs: ObjSet) -> AttrSet:
    """Attributes shared by every object of ``objs`` (all of M when empty).

    An extent of fewer objects than the context has attributes starts from
    M and ANDs in the row of each of its objects: one big-int AND per
    object instead of one subset test per column.  Larger extents test the
    columns.
    """
    if objs >> ctx.n_objects:
        raise ValueError("object mask exceeds context capacity")
    if objs.bit_count() < ctx.n_attrs:
        out = ctx.attribute_universe
        rows = ctx.rows
        while objs and out:
            low = objs & -objs
            out &= rows[low.bit_length() - 1]
            objs ^= low
        return out
    out = 0
    for j, col in enumerate(ctx.columns):
        if col & objs == objs:
            out |= 1 << j
    return out


def closure(ctx: FormalContext, attrs: AttrSet) -> AttrSet:
    """The double-prime closure of an attribute set; always a fixed point."""
    return intent_of(ctx, extent(ctx, attrs))


def clarify_rows(ctx: FormalContext) -> tuple[FormalContext, list[int]]:
    """Merge duplicate rows, keeping first occurrences.

    Returns the clarified context and the multiplicity of each kept row
    (summing to the original object count).  The full name groups are stored
    under ``meta["merged_object_names"]``.
    """
    groups: dict[int, list[int]] = {}
    order: list[int] = []
    for idx, row in enumerate(ctx.rows):
        if row in groups:
            groups[row].append(idx)
        else:
            groups[row] = [idx]
            order.append(row)
    kept_names = tuple(ctx.object_names[groups[row][0]] for row in order)
    multiplicities = [len(groups[row]) for row in order]
    merged = tuple(
        "+".join(ctx.object_names[i] for i in groups[row]) for row in order
    )
    clarified = FormalContext(
        kept_names,
        ctx.attribute_names,
        tuple(order),
        meta={"merged_object_names": merged},
    )
    return clarified, multiplicities


# ---------------------------------------------------------------------------
# Burmeister CXT format


_INCIDENCE_DIGITS = str.maketrans("X.", "10")


def parse_burmeister(text: str) -> FormalContext:
    """Parse the Burmeister CXT format.

    Layout: ``B``, blank, object count, attribute count, blank, one line per
    object name, one per attribute name, then one ``X``/``.`` line per object.
    CRLF input is tolerated; a trailing newline is optional.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 5:
        raise ContextFormatError("truncated CXT header")
    if lines[0] != "B":
        raise ContextFormatError(f"first line must be 'B', got {lines[0]!r}")
    if lines[1] != "":
        raise ContextFormatError("second line must be blank")
    try:
        n_objects = int(lines[2])
        n_attrs = int(lines[3])
    except ValueError as exc:
        raise ContextFormatError(f"bad object/attribute count: {exc}") from None
    if n_objects < 0 or n_attrs < 0:
        raise ContextFormatError("negative object/attribute count")
    if lines[4] != "":
        raise ContextFormatError("fifth line must be blank")
    expected = 5 + 2 * n_objects + n_attrs
    if len(lines) != expected:
        raise ContextFormatError(
            f"expected {expected} lines for {n_objects} objects x {n_attrs} "
            f"attributes, got {len(lines)}"
        )
    object_names = lines[5 : 5 + n_objects]
    attribute_names = lines[5 + n_objects : 5 + n_objects + n_attrs]
    grid = lines[5 + n_objects + n_attrs :]
    rows = []
    for name, line in zip(object_names, grid):
        if len(line) != n_attrs:
            raise ContextFormatError(
                f"incidence row for {name!r} has length {len(line)}, "
                f"expected {n_attrs}"
            )
        if line.count("X") + line.count(".") != n_attrs:
            ch = next(ch for ch in line if ch not in "X.")
            raise ContextFormatError(f"invalid incidence character {ch!r}")
        # Attribute j is character j, so the reversed row reads in binary.
        rows.append(int(line[::-1].translate(_INCIDENCE_DIGITS), 2) if line else 0)
    try:
        return FormalContext(tuple(object_names), tuple(attribute_names), tuple(rows))
    except ValueError as exc:
        raise ContextFormatError(str(exc)) from None


def serialize_burmeister(ctx: FormalContext) -> str:
    for name in ctx.object_names + ctx.attribute_names:
        if "\n" in name or "\r" in name:
            raise ValueError(f"name {name!r} contains a line break")
    parts = ["B", "", str(ctx.n_objects), str(ctx.n_attrs), ""]
    parts.extend(ctx.object_names)
    parts.extend(ctx.attribute_names)
    n = ctx.n_attrs
    for row in ctx.rows:
        parts.append("".join("X" if row >> j & 1 else "." for j in range(n)))
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Dense CSV format


def parse_dense_csv(text: str, max_attrs: int | None = None) -> FormalContext:
    """Parse a dense binary CSV: header of attribute names after an id
    column, then one 0/1 row per object.

    ``max_attrs`` truncates to the first columns at ingestion; cells beyond
    the kept columns are not inspected.
    """
    records = [r for r in csv.reader(io.StringIO(text)) if r]
    if not records:
        raise ContextFormatError("empty CSV")
    header = records[0]
    attribute_names = header[1:]
    if max_attrs is not None:
        if max_attrs < 0:
            raise ValueError("max_attrs must be non-negative")
        attribute_names = attribute_names[:max_attrs]
    n = len(attribute_names)
    object_names = []
    rows = []
    for lineno, cells in enumerate(records[1:], start=2):
        if len(cells) != len(header):
            raise ContextFormatError(
                f"line {lineno}: {len(cells)} cells, header has {len(header)}"
            )
        object_names.append(cells[0])
        mask = 0
        for j in range(n):
            value = cells[1 + j]
            if value == "1":
                mask |= 1 << j
            elif value != "0":
                raise ContextFormatError(
                    f"line {lineno}: non-binary cell {value!r} in column "
                    f"{attribute_names[j]!r}"
                )
        rows.append(mask)
    try:
        return FormalContext(tuple(object_names), tuple(attribute_names), tuple(rows))
    except ValueError as exc:
        raise ContextFormatError(str(exc)) from None


def serialize_dense_csv(ctx: FormalContext) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("id",) + ctx.attribute_names)
    n = ctx.n_attrs
    for name, row in zip(ctx.object_names, ctx.rows):
        writer.writerow([name] + [str(row >> j & 1) for j in range(n)])
    return out.getvalue()
