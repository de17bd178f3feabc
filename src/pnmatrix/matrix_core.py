"""Finite truth-table structures with partial, non-deterministic entries.

A PNMatrix carries a finite ordered value set, a designated subset and, for
each connective, a total table from value tuples to (possibly empty) sets of
values.  It is a read-only value, assembled in one place, its initialiser.
This module provides the matrix algebra: classification, reducts, fully
non-deterministic extensions, strict products, sums, finite powers,
viability analysis (maximal viable sets, found once per matrix in its
``CompiledMatrix`` by branching on violated table entries, with no carrier
cap of its own), pruning, and strict homomorphism checking.

Products, powers and sums share one builder, which bounds what a build may
make (``BUILD_CAP``).  It names the pair (x, y) "x|y", the tuple
(x1, ..., xk) "x1&...&xk" and value x of summand i "i.x", and records each
value's structure in ``meta["parts"]``.  `restrict`,
`prune`, `reduct`, `extend` and `rename_connectives` keep the parts of the
values they keep; `projection` and `inclusion` read them, and refuse a matrix
without them, such as one read from a file.

It also owns the matrix file format.  A file has a `signature:` block,
`values:` and `designated:` lines and one `table` block per connective; `-`
denotes the empty output set and `*` the full value set.  The canonical
writer and the reader round-trip exactly, and `validate` rejects any name the
format cannot carry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .syntax import Signature

#: the most units one build of a product, sum or power may make: a value
#: counts as many units as its part has components, and a table cell or an
#: entry member one; at about 100 bytes a unit, some 200 MB
BUILD_CAP = 2 ** 21

Table = Mapping[tuple[str, ...], frozenset[str]]


class MatrixError(ValueError):
    pass


@dataclass(frozen=True, init=False)
class PNMatrix:
    """A finite PNmatrix, a read-only value.

    The initialiser is the one place a matrix is assembled.  It stores
    read-only copies of every table, of the map of tables, of ``meta`` and
    of ``meta["parts"]``, with each entry a frozenset, so nothing can change
    under ``compiled``.  It does not validate; `make_matrix` does.  A matrix
    is unhashable on purpose: it is compared by value, never used as a key.
    """

    sig: Signature
    values: tuple[str, ...]
    designated: frozenset[str]
    tables: Mapping[str, Table]
    #: free-form metadata (fixture provenance, saturation flags, the structure
    #: of combined values under "parts"); not part of identity
    meta: Mapping[str, object] = field(compare=False)

    def __init__(
        self,
        sig: Signature,
        values: Iterable[str],
        designated: Iterable[str],
        tables: Mapping[str, Mapping[tuple[str, ...], Iterable[str]]],
        meta: Optional[Mapping[str, object]] = None,
    ):
        meta = dict(meta or {})
        if "parts" in meta:
            meta["parts"] = MappingProxyType(dict(meta["parts"]))
        init = object.__setattr__
        init(self, "sig", sig)
        init(self, "values", tuple(values))
        init(self, "designated", frozenset(designated))
        init(self, "tables", MappingProxyType({
            c: MappingProxyType({k: frozenset(v) for k, v in t.items()}) for c, t in tables.items()
        }))
        init(self, "meta", MappingProxyType(meta))

    __hash__ = None

    def entry(self, conn: str, args: tuple[str, ...]) -> frozenset[str]:
        return self.tables[conn][args]

    def is_total(self) -> bool:
        return all(e for t in self.tables.values() for e in t.values())

    def is_deterministic(self) -> bool:
        return all(len(e) <= 1 for t in self.tables.values() for e in t.values())

    # Derived data is built on first use and kept on the object.  Copies and
    # pickles hand plain dicts back to the initialiser (a read-only map can be
    # neither pickled nor deep-copied), so they start without it.

    def __reduce__(self):
        meta = dict(self.meta)
        if "parts" in meta:
            meta["parts"] = dict(meta["parts"])
        tables = {c: dict(t) for c, t in self.tables.items()}
        return type(self), (self.sig, self.values, self.designated, tables, meta)

    @cached_property
    def compiled(self) -> "CompiledMatrix":
        """The index form the engine searches over."""
        return CompiledMatrix(self)


def make_matrix(
    sig: Signature,
    values: Sequence[str],
    designated: Iterable[str],
    tables: Mapping[str, Mapping[tuple[str, ...], Iterable[str]]],
    meta: Optional[Mapping[str, object]] = None,
) -> PNMatrix:
    """Build and validate a PNMatrix; raise MatrixError on any defect."""
    m = PNMatrix(sig, values, designated, tables, meta)
    errors = validate(m)
    if errors:
        raise MatrixError("; ".join(errors))
    return m


def _writable(name: str) -> bool:
    """A matrix file splits its lines on whitespace, ':' and '#'."""
    return bool(name) and not any(ch.isspace() or ch in ":#" for ch in name)


def validate(m: PNMatrix) -> list[str]:
    """Check all structural invariants; return an itemized list of failures."""
    errors: list[str] = []
    vals = set(m.values)
    if len(m.values) != len(vals):
        errors.append("duplicate value names")
    for v in m.values:
        # a table cell reads '-' and '*' as the empty and the full set
        if v in ("-", "*") or not _writable(v):
            errors.append(f"value name {v!r} cannot be written to a matrix file")
    for name in m.sig.names():
        if not _writable(name):
            errors.append(f"connective name {name!r} cannot be written to a matrix file")
    if not m.designated <= vals:
        errors.append(f"designated values {sorted(m.designated - vals)} not in value set")
    declared = set(m.sig.names())
    if set(m.tables) != declared:
        missing = declared - set(m.tables)
        extra = set(m.tables) - declared
        if missing:
            errors.append(f"missing tables for {sorted(missing)}")
        if extra:
            errors.append(f"tables for undeclared connectives {sorted(extra)}")
    for name, arity in m.sig:
        table = m.tables.get(name)
        if table is None:
            continue
        expected = set(itertools.product(m.values, repeat=arity))
        got = set(table)
        for tup in sorted(expected - got):
            errors.append(f"missing entry {name}{tup}")
        for tup in sorted(got - expected):
            errors.append(f"unexpected entry {name}{tup}")
        for tup, out in table.items():
            if not out <= vals:
                errors.append(f"entry {name}{tup} outputs unknown values {sorted(out - vals)}")
    return errors


def classify(m: PNMatrix) -> str:
    """One of "matrix", "Nmatrix", "Pmatrix", "PNmatrix"."""
    total, det = m.is_total(), m.is_deterministic()
    if total and det:
        return "matrix"
    if total:
        return "Nmatrix"
    if det:
        return "Pmatrix"
    return "PNmatrix"


# ---------------------------------------------------------------------------
# Matrix files
# ---------------------------------------------------------------------------

class FormatError(ValueError):
    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def read_matrix(text: str) -> PNMatrix:
    lines = text.splitlines()
    sig_pairs: list[tuple[str, int]] = []
    values: Optional[list[str]] = None
    designated: Optional[list[str]] = None
    tables: dict[str, dict[tuple[str, ...], frozenset[str]]] = {}
    section = None  # None | "signature" | ("table", name)

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "signature:":
            section = "signature"
            continue
        if line.startswith("values:"):
            if values is not None:
                raise FormatError("duplicate values line", lineno)
            values = line[len("values:"):].split()
            section = None
            continue
        if line.startswith("designated:"):
            if designated is not None:
                raise FormatError("duplicate designated line", lineno)
            designated = line[len("designated:"):].split()
            section = None
            continue
        if line.startswith("table ") and line.endswith(":"):
            name = line[len("table "):-1].strip()
            if name in tables:
                raise FormatError(f"duplicate table for {name!r}", lineno)
            tables[name] = {}
            section = ("table", name)
            continue
        if section == "signature":
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise FormatError(f"bad signature line {line!r}", lineno)
            sig_pairs.append((parts[0], int(parts[1])))
            continue
        if isinstance(section, tuple):
            name = section[1]
            if ":" not in line:
                raise FormatError(f"table row needs a ':' separator: {line!r}", lineno)
            left, _, right = line.partition(":")
            args = tuple(left.split())
            out_tokens = right.split()
            if out_tokens == ["-"]:
                out: frozenset[str] = frozenset()
            elif out_tokens == ["*"]:
                if values is None:
                    raise FormatError("'*' before the values line", lineno)
                out = frozenset(values)
            else:
                out = frozenset(out_tokens)
            if args in tables[name]:
                raise FormatError(f"duplicate row {' '.join(args)!r}", lineno)
            tables[name][args] = out
            continue
        raise FormatError(f"unexpected line {line!r}", lineno)

    if not sig_pairs:
        raise FormatError("missing signature block", len(lines))
    if values is None:
        raise FormatError("missing values line", len(lines))
    if designated is None:
        raise FormatError("missing designated line", len(lines))
    names = [n for n, _ in sig_pairs]
    if len(set(names)) != len(names):
        raise FormatError("duplicate connective in signature", len(lines))
    try:
        sig = Signature.of(sig_pairs)
        return make_matrix(sig, values, designated, tables)
    except (ValueError, MatrixError) as e:
        raise FormatError(str(e), len(lines)) from None


def format_matrix(m: PNMatrix) -> str:
    """Canonical text form; read_matrix(format_matrix(m)) == m."""
    out = ["signature:"]
    for name, arity in m.sig:
        out.append(f"  {name} {arity}")
    out.append("values: " + " ".join(m.values))
    out.append("designated: " + " ".join(v for v in m.values if v in m.designated))
    full = frozenset(m.values)
    order = {v: i for i, v in enumerate(m.values)}
    for name, arity in m.sig:
        out.append(f"table {name}:")
        rows = sorted(m.tables[name], key=lambda t: tuple(order[x] for x in t))
        for tup in rows:
            cell = m.tables[name][tup]
            if not cell:
                text = "-"
            elif cell == full:
                text = "*"
            else:
                text = " ".join(v for v in m.values if v in cell)
            out.append("  " + " ".join(tup) + " : " + text)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Reduct / extension / renaming
# ---------------------------------------------------------------------------

def reduct(m: PNMatrix, sub_sig: Signature) -> PNMatrix:
    if not sub_sig.is_subsignature_of(m.sig):
        raise MatrixError("reduct target is not a subsignature")
    tables = {c: m.tables[c] for c in sub_sig.names()}
    return PNMatrix(sub_sig, m.values, m.designated, tables, _parts_meta(m, m.values))


def extend(m: PNMatrix, big_sig: Signature) -> PNMatrix:
    """Interpret the new connectives of big_sig fully non-deterministically."""
    if not m.sig.is_subsignature_of(big_sig):
        raise MatrixError("extension target does not contain the matrix signature")
    full = frozenset(m.values)
    tables = dict(m.tables)
    for name, arity in big_sig:
        if name not in m.sig:
            tables[name] = {tup: full for tup in itertools.product(m.values, repeat=arity)}
    # make_matrix rejects unwritable new names
    return make_matrix(big_sig, m.values, m.designated, tables, meta=_parts_meta(m, m.values))


def rename_connectives(m: PNMatrix, renaming: Mapping[str, str]) -> PNMatrix:
    """Rename connectives (used e.g. to make two copies of a signature disjoint)."""
    new = {n: renaming.get(n, n) for n in m.sig.names()}
    for a, b in itertools.combinations(new, 2):
        if new[a] == new[b]:
            raise MatrixError(f"renaming gives {a!r} and {b!r} the same name {new[a]!r}")
    sig = Signature.of({new[n]: k for n, k in m.sig})
    tables = {new[c]: t for c, t in m.tables.items()}
    return make_matrix(sig, m.values, m.designated, tables, meta=m.meta)  # rejects unwritable names


def restrict(m: PNMatrix, keep: Iterable[str]) -> PNMatrix:
    """Restrict the carrier to a subset of values, intersecting all entries."""
    keep_set = frozenset(keep)
    values = tuple(v for v in m.values if v in keep_set)
    tables = {
        c: {
            tup: out & keep_set
            for tup, out in t.items()
            if all(x in keep_set for x in tup)
        }
        for c, t in m.tables.items()
    }
    return PNMatrix(m.sig, values, m.designated & keep_set, tables, _parts_meta(m, values))


def _parts_meta(m: PNMatrix, values: Iterable[str]) -> dict:
    """The metadata a matrix derived from m keeps: the parts of its values,
    and the number of summands of a sum."""
    parts = m.meta.get("parts")
    kept = {k: m.meta[k] for k in ("summands",) if k in m.meta}
    return {} if parts is None else {"parts": {v: parts[v] for v in values}, **kept}


# ---------------------------------------------------------------------------
# Combinations of matrices
# ---------------------------------------------------------------------------

def _combination(
    kind: str, sig: Signature, size: int, width: int, parts: Callable[[], Iterable[tuple]],
    name: Callable[[tuple], str], designated: Callable[[tuple], bool],
    entry: Callable[[str, tuple], Iterable[tuple]], **meta,
) -> PNMatrix:
    """The `kind` of matrix over the `size` structured values `parts()`,
    each of `width` components; part p is named `name(p)` and is designated
    when `designated(p)`.

    `entry(c, combo)` gives the parts that connective c outputs on a tuple of
    parts.  ``meta["parts"]`` maps each value name back to its part.

    Every product, sum and power is bounded here, by ``BUILD_CAP`` units: a
    value counts `width` units, and a table cell and an entry member one.
    The values and cells are counted from `size` before any part is made,
    and the members as the tables fill, so a build past the bound raises
    MatrixError before it takes the memory.  `size` may be a lower bound
    when that is already past ``BUILD_CAP``.
    """
    cells = sum(size ** k for _, k in sig)
    units = size * width + cells
    too_big = MatrixError(
        f"{kind} needs more than {BUILD_CAP} values, table cells and entry members"
        f" (at least {size} values and {cells} table cells)"
    )
    if units > BUILD_CAP:
        raise too_big
    names = {p: name(p) for p in parts()}
    if len(set(names.values())) != len(names):
        raise MatrixError("two combined values would get the same name")
    tables = {}
    for c, arity in sig:
        table = tables[c] = {}
        for combo in itertools.product(names, repeat=arity):
            table[tuple(names[p] for p in combo)] = out = frozenset(names[q] for q in entry(c, combo))
            units += len(out)
            if units > BUILD_CAP:
                raise too_big
    return PNMatrix(
        sig,
        names.values(),
        (v for p, v in names.items() if designated(p)),
        tables,
        {"parts": {v: p for p, v in names.items()}, **meta},
    )


def strict_product(m1: PNMatrix, m2: PNMatrix) -> PNMatrix:
    """Pair compatible values and constrain each component by its own table.

    Values are the pairs (x, y) that are either both designated or both
    undesignated, named "x|y"; designated pairs are those with both sides
    designated.  A connective owned by one side constrains that component
    only; shared connectives constrain both.
    """
    sig = m1.sig.union(m2.sig)  # raises on arity clash
    d1, d2 = m1.designated, m2.designated
    size = len(d1) * len(d2) + (len(m1.values) - len(d1)) * (len(m2.values) - len(d2))
    full1, full2 = frozenset(m1.values), frozenset(m2.values)

    def entry(c, combo):
        left = m1.entry(c, tuple(x for x, _ in combo)) if c in m1.sig else full1
        right = m2.entry(c, tuple(y for _, y in combo)) if c in m2.sig else full2
        return [(x, y) for x in left for y in right if (x in d1) == (y in d2)]

    def pairs():
        return ((x, y) for x in m1.values for y in m2.values if (x in d1) == (y in d2))

    return _combination(
        "strict product", sig, size, 2, pairs, lambda p: f"{p[0]}|{p[1]}", lambda p: p[0] in d1, entry
    )


def strict_product_is_total(m1: PNMatrix, m2: PNMatrix) -> bool:
    """``strict_product(m1, m2).is_total()``, read off the two parts.

    A product entry holds the pairs of the sides' entries that agree on
    designation, so it is empty exactly when one side's entry meets only
    designated values where the other's meets only undesignated ones.  Per
    connective and side, this collects, for each designation pattern of
    the arguments, the profiles of the entries (bit 1: a designated value,
    bit 2: an undesignated one; a connective a side lacks gives its whole
    carrier).  The product is total iff, under every pattern both sides
    have, every two profiles share a bit.  Nothing is built, so
    ``BUILD_CAP`` does not apply; an arity clash raises as in
    ``strict_product``.
    """
    sig = m1.sig.union(m2.sig)  # raises on arity clash

    def profiles(m: PNMatrix, c: str, arity: int) -> dict[tuple[bool, ...], set[int]]:
        d = m.designated
        table = m.tables[c] if c in m.sig else None
        full = frozenset(m.values)
        out: dict[tuple[bool, ...], set[int]] = {}
        for args in itertools.product(m.values, repeat=arity):
            entry = full if table is None else table[args]
            profile = (not entry.isdisjoint(d)) | (not entry <= d) << 1
            out.setdefault(tuple(map(d.__contains__, args)), set()).add(profile)
        return out

    for c, arity in sig:
        right = profiles(m2, c, arity)
        for pattern, left in profiles(m1, c, arity).items():
            if any(not a & b for a in left for b in right.get(pattern, ())):
                return False
    return True


def sum_matrices(ms: Sequence[PNMatrix]) -> PNMatrix:
    """Disjoint union over a common signature; cross-copy entries are empty."""
    if not ms:
        raise MatrixError("sum of zero matrices")
    sig = ms[0].sig
    if any(m.sig != sig for m in ms):
        raise MatrixError("sum requires identical signatures")
    size = sum(len(m.values) for m in ms)

    def tagged():
        return ((i, x) for i, m in enumerate(ms) for x in m.values)

    def entry(c, combo):
        if not combo:  # a nullary entry is the union of the summands' entries
            return [(i, x) for i, m in enumerate(ms) for x in m.entry(c, ())]
        i = combo[0][0]
        if any(j != i for j, _ in combo):
            return ()
        return [(i, x) for x in ms[i].entry(c, tuple(x for _, x in combo))]

    return _combination(
        "sum", sig, size, 2, tagged, lambda p: f"{p[0]}.{p[1]}",
        lambda p: p[1] in ms[p[0]].designated, entry, summands=len(ms),
    )


def power(m: PNMatrix, k: int) -> PNMatrix:
    """Finite k-th power: k-tuples of values, componentwise tables.

    A tuple is designated iff every component is.
    """
    if k < 1:
        raise MatrixError("power requires k >= 1")
    # past the bound for every k above 22 once there are two values, so a
    # larger k is counted as 22, which keeps the count quick to compute
    size = len(m.values) ** min(k, BUILD_CAP.bit_length())

    def tuples():  # made once the bound holds: product(repeat=k) keeps k references
        return itertools.product(m.values, repeat=k)

    def entry(c, combo):
        return itertools.product(*(m.entry(c, tuple(t[i] for t in combo)) for i in range(k)))

    return _combination(
        "power", m.sig, size, k, tuples, "&".join, lambda t: all(x in m.designated for x in t), entry
    )


# ---------------------------------------------------------------------------
# Viability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ViabilityReport:
    """Maximal viable value sets, their union, and the spurious complement.

    A set W is viable when every table entry over W intersects W; the values
    usable by some valuation are exactly those inside some viable set.
    """

    maximal: tuple[frozenset[str], ...]
    usable: frozenset[str]
    spurious: frozenset[str]


def viable_components(m: PNMatrix) -> ViabilityReport:
    """The viability report of m, computed once per matrix object.

    Maximal sets come by descending size, then by the sorted member list.
    """
    return m.compiled.viability


#: the bits of each mask below 2 ** 8, so that small carriers need no loop
_SMALL_MASK_BITS = tuple(tuple(i for i in range(8) if mask >> i & 1) for mask in range(256))


def mask_bits(mask: int) -> Sequence[int]:
    """The set bits of a mask (value indices), in ascending order."""
    if mask < 256:
        return _SMALL_MASK_BITS[mask]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class CompiledMatrix:
    """A matrix over value indices: value i is ``m.values[i]`` and bit ``1 << i``.

    Value sets are int bitmasks: ``designated``, every table entry, and
    ``components``, the masks of the maximal viable sets of ``viability``,
    in its order.  ``tables[c]`` is indexed by the argument
    indices in turn: ``tables[c][x][y]`` is the entry of a binary c at
    (x, y), ``tables[c][x]`` that of a unary one at x, and a nullary c's
    table is its entry.  ``revisions`` is the engine's memo of arc
    revisions over these tables (see ``engine._propagate``); it starts empty.
    """

    def __init__(self, m: PNMatrix):
        index = {v: i for i, v in enumerate(m.values)}

        def mask(vs: Iterable[str]) -> int:
            return sum(1 << index[v] for v in vs)

        self.designated = mask(m.designated)
        self.tables = {}
        n = len(m.values)
        for c, k in m.sig:
            table = m.tables[c]
            rows = [mask(table[t]) for t in itertools.product(m.values, repeat=k)]
            # group the rows of the last argument, then of each earlier one
            # (over no values there are no rows to group)
            for _ in range(k - 1 if n else 0):
                rows = [rows[j:j + n] for j in range(0, len(rows), n)]
            self.tables[c] = rows if k else rows[0]
        maximal = sorted(
            (frozenset(m.values[i] for i in mask_bits(w))
             for w in self._maximal_viable(m.sig, len(m.values))),
            key=lambda w: (-len(w), sorted(w)),
        )
        usable = frozenset().union(*maximal)
        self.viability = ViabilityReport(tuple(maximal), usable, frozenset(m.values) - usable)
        self.components = tuple(mask(w) for w in maximal)
        self.revisions: dict[tuple, tuple[int, ...]] = {}

    def _maximal_viable(self, sig: Signature, n: int) -> list[int]:
        """The maximal viable sets as masks, by branching on violated entries.

        W is not viable when some tuple over W has an entry that misses W.
        A viable subset of W leaves out a value of that tuple (else the
        entry misses the subset too), so the search goes on with W minus
        each value of the tuple; a nullary violation ends the branch.
        """
        found: list[int] = []
        seen: set[int] = set()
        stack = [(1 << n) - 1]
        while stack:
            w = stack.pop()
            if not w or w in seen or any(w & ~v == 0 for v in found):
                continue
            seen.add(w)
            bad = self._violation(sig, w)
            if bad is None:
                found.append(w)
            else:
                stack.extend(w & ~(1 << x) for x in set(bad))
        return [w for w in found if not any(w != v and w & ~v == 0 for v in found)]

    def _violation(self, sig: Signature, w: int) -> Optional[tuple[int, ...]]:
        """The first argument tuple over the nonempty mask w whose entry
        misses w, or None: the diagonal tuples first, which need no
        branching, then the others in product order, a row at a time."""
        xs = mask_bits(w)
        for c, k in sig:
            for x in xs:
                entry = self.tables[c]
                for _ in range(k):
                    entry = entry[x]
                if not entry & w:
                    return (x,) * k
        for c, k in sig:
            if k < 2:  # all on the diagonal
                continue
            for prefix in itertools.product(xs, repeat=k - 1):
                row = self.tables[c]
                for x in prefix:
                    row = row[x]
                for y in xs:
                    if not row[y] & w:
                        return (*prefix, y)
        return None


def prune(m: PNMatrix) -> PNMatrix:
    """Drop spurious values; the result decides the same queries as m."""
    report = viable_components(m)
    if report.spurious == frozenset():
        return m
    return restrict(m, report.usable)


# ---------------------------------------------------------------------------
# Strict homomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueMap:
    """A total map between the carriers of two matrices."""

    mapping: tuple[tuple[str, str], ...]

    @staticmethod
    def of(mapping: Mapping[str, str]) -> "ValueMap":
        return ValueMap(tuple(sorted(mapping.items())))

    @cached_property
    def _images(self) -> dict[str, str]:
        return dict(self.mapping)

    def __call__(self, x: str) -> str:
        return self._images[x]  # KeyError(x) on a value outside the domain


def check_strict_hom(h: ValueMap, m: PNMatrix, m0: PNMatrix) -> Optional[str]:
    """None if h is a strict homomorphism from m to m0, else the first violation.

    Strictness: h(x) designated in m0 exactly when x is designated in m;
    structure: h maps every table output into the corresponding m0 entry,
    for every connective of m0's signature.
    """
    if not m0.sig.is_subsignature_of(m.sig):
        return "target signature is not a subsignature of the source"
    try:
        images = {x: h(x) for x in m.values}
    except KeyError as e:
        return f"map not total: missing {e.args[0]!r}"
    targets = set(m0.values)
    for x, hx in images.items():
        if hx not in targets:
            return f"value {x!r} maps to unknown value {hx!r}"
        if (x in m.designated) != (hx in m0.designated):
            return f"strictness violated at {x!r} -> {hx!r}"
    for name, arity in m0.sig:
        for tup in itertools.product(m.values, repeat=arity):
            image_out = {images[y] for y in m.entry(name, tup)}
            target = m0.entry(name, tuple(images[x] for x in tup))
            if not image_out <= target:
                return (
                    f"{name}{tup}: image {sorted(image_out)} not within "
                    f"{sorted(target)}"
                )
    return None


def _parts(m: PNMatrix) -> Mapping[str, tuple]:
    parts = m.meta.get("parts")
    if parts is None:
        raise MatrixError("the matrix records no value structure (one read from a file has none)")
    return parts


def projection(m_product: PNMatrix, side: int) -> ValueMap:
    """The coordinate projection out of a strict product (side 1 or 2)."""
    if side not in (1, 2):
        raise MatrixError(f"a strict product has sides 1 and 2, not {side!r}")
    return ValueMap.of({v: p[side - 1] for v, p in _parts(m_product).items()})


def inclusion(m_sum: PNMatrix, index: int) -> ValueMap:
    """The inclusion of summand `index` into a sum, as a map from the
    summand's values to the sum's (empty for an empty summand)."""
    parts = _parts(m_sum)
    if index not in range(m_sum.meta.get("summands", 0)):
        raise MatrixError(f"the matrix has no summand {index!r}")
    return ValueMap.of({p[1]: v for v, p in parts.items() if p[0] == index})
