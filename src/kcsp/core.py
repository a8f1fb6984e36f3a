"""Problem representation for finite-domain CSPs given as nogood lists.

A problem over n variables (indexed 1..n) with domain {0..d-1} is a list
of nogoods.  A nogood is a partial assignment, given as (variable, value)
pairs, that a total assignment must not match in full.  An assignment
satisfies the instance iff no nogood is fully matched.

`CspInstance(n, d, nogoods)` takes each nogood as a plain list of pairs;
`_canonical` checks and sorts one nogood's pairs for the constructor and
the parser alike, so both refuse the same faults with the same messages.
A nogood that is already canonical, a tuple of (int, int) tuples sorted by
variable, passes through as the same object.  The parser canonicalizes
each line once, and the generators build nogoods that are canonical by
construction (all but `gen_coloring`, whose vertices come from the
caller); both hand the constructor a `_CanonicalNogoods` list, whose pairs
it does not check again.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain, repeat
from operator import index, or_
from typing import NamedTuple


class ParseError(ValueError):
    """Instance-file syntax or range violation, with the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _LimitExceeded(ValueError):
    """A runtime limit was reached (enumeration cap or point limit, variable
    or nogood limit, the bytes a DPLL search path would hold): the input is
    well formed but too large to handle."""


# Largest variable count: per-variable tables stay small, whatever the header says.
_MAX_VARIABLES = 1 << 20


def _value_dtype(d: int) -> str:
    """The numpy dtype of an array of values of a domain of size d: uint8
    when d <= 256, else int64."""
    return "u1" if d <= 256 else "i8"


class _NogoodRecord(NamedTuple):
    """One nogood as `CspInstance.nogoods` holds it: its canonical pairs."""

    pairs: tuple[tuple[int, int], ...]


def _canonical(pairs, n: int, d: int) -> tuple[tuple[int, int], ...]:
    """One nogood's (variable, value) pairs as ints, sorted by variable.

    A tuple of (int, int) tuples, with exact int entries, variables
    strictly increasing in 1..n and values in 0..d-1, is returned as it is.
    Anything else goes through the ordered loop.  A nogood that is not
    iterable raises "nogood <repr> is not an iterable of pairs"; otherwise
    its pairs are checked in the order given, each for being a pair (an
    item that does not unpack into two entries raises "pair <repr> is not
    a (variable, value) pair"), then for integer entries (variable, then
    value: an entry that `operator.index` refuses raises "entry <repr> is
    not an integer"), then its variable in 1..n, then its value in 0..d-1,
    then a variable named before; the first fault raises ValueError.  The
    entries become exact ints, so numpy integers and bools are taken as
    integers.
    """
    if type(pairs) is tuple:
        last = 0
        for pair in pairs:
            if type(pair) is not tuple or len(pair) != 2:
                break
            v, a = pair
            if type(v) is not int or type(a) is not int or not last < v <= n or not 0 <= a < d:
                break
            last = v
        else:
            return pairs
    try:
        items = iter(pairs)
    except TypeError:
        raise ValueError(f"nogood {pairs!r} is not an iterable of pairs") from None
    canonical = []
    seen = set()
    for pair in items:
        try:
            v, a = pair
        except (TypeError, ValueError):
            raise ValueError(f"pair {pair!r} is not a (variable, value) pair") from None
        v, a = _as_int(v), _as_int(a)
        if not 1 <= v <= n:
            raise ValueError(f"variable {v} out of range 1..{n}")
        if not 0 <= a < d:
            raise ValueError(f"value {a} out of range 0..{d - 1}")
        if v in seen:
            raise ValueError(f"variable {v} repeated within nogood")
        seen.add(v)
        canonical.append((v, a))
    canonical.sort()
    return tuple(canonical)


def _as_int(entry, name: str = "entry") -> int:
    """`entry` as an exact int, by `operator.index`: a float or a string is
    refused with ValueError ("<name> <repr> is not an integer"), where
    int() would truncate or parse it."""
    try:
        return index(entry)
    except TypeError:
        raise ValueError(f"{name} {entry!r} is not an integer") from None


class _CanonicalNogoods(list):
    """Nogoods already in `_canonical`'s form for the instance's n and d:
    the parser's, each line made by `_canonical`, and those of the
    generators that build them in that form.  `CspInstance` only drops
    their repeats."""


class CspInstance:
    """Immutable CSP instance: n variables over {0..d-1} plus a nogood list.

    n and d become exact ints by `operator.index`; a float or a string
    raises ValueError ("variable count 2.0 is not an integer").  Each
    nogood is given as an iterable of (variable, value) pairs.  Its entries
    become ints and its pairs are sorted by variable; a nogood that is not
    iterable, an item of it that is not a pair of two entries, an entry
    that is not an integer, a variable outside 1..n, a value outside 0..d-1
    or a variable named twice in one nogood raises ValueError.  A nogood
    given in that form already, a tuple of (int, int) tuples sorted by
    variable, is kept as the same object.  Repeated nogoods are dropped,
    keeping first-occurrence order.  `nogoods` holds one record per nogood,
    whose `pairs` is that sorted tuple (pass those `pairs` to build another
    instance from them).  Safe to share across threads.
    """

    def __init__(self, n: int, d: int, nogoods=()):
        n, d = _as_int(n, "variable count"), _as_int(d, "domain size")
        if n < 1:
            raise ValueError(f"variable count must be positive, got {n}")
        if d < 1:
            raise ValueError(f"domain size must be at least 1, got {d}")
        if n > _MAX_VARIABLES:
            raise _LimitExceeded(f"{n} variables exceed the limit of {_MAX_VARIABLES}")
        self.n = n
        self.d = d
        if not isinstance(nogoods, _CanonicalNogoods):
            nogoods = map(_canonical, nogoods, repeat(n), repeat(d))
        unique = dict.fromkeys(nogoods)
        # each record from the 1-tuple (pairs,), as NamedTuple._make builds
        # it, without a Python-level __new__ call per record
        records = map(tuple.__new__, repeat(_NogoodRecord), zip(unique))
        self.nogoods: tuple[_NogoodRecord, ...] = tuple(records)
        self.k_max = max(map(len, unique), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, CspInstance)
            and self.n == other.n
            and self.d == other.d
            and self.nogoods == other.nogoods
        )

    def __hash__(self):
        return hash((self.n, self.d, self.nogoods))

    def __repr__(self):
        return f"CspInstance(n={self.n}, d={self.d}, nogoods={len(self.nogoods)})"

    @cached_property
    def by_var(self) -> tuple[list[int], list[dict[int, int]], list[int]]:
        """The nogood state's tables (see `_step`), built once per instance
        in one pass over the nogoods, bit j standing for nogood j: per
        variable v, the mask of the nogoods naming v (`touch[v]`) and a
        dict from each value a named with v to the mask of the nogoods
        naming (v, a) (`match[v]`); and the initial levels, level c holding
        the nogoods of arity c (c = 0..max(k_max, 1)).

        Only values that occur get a mask, so no table is n x d; a variable
        no nogood names shares one empty dict (read-only), and a variable
        named with one value shares that value's mask as its own.  From
        4,096 nogoods on, each mask's bits are set in a bytearray, since an
        OR copies the whole int and would make the build quadratic.  A mask
        takes about (its highest nogood index) / 8 bytes: all of them 10.0
        MiB on gen_nqueens(40), 23.0 MiB on gen_latin(16) and 8.9 MiB on a
        10,000-variable unary chain (tracemalloc, CPython 3.11), against 8.4
        and 7.3 MiB for the first two instances alone.
        """
        nogoods = self.nogoods
        named: dict[int, dict[int, int]] = {}  # per variable named, its masks by value
        levels = [0] * (max(self.k_max, 1) + 1)
        if len(nogoods) < 4096:
            for j, (pairs,) in enumerate(nogoods):
                bit = 1 << j
                levels[len(pairs)] |= bit
                for v, a in pairs:
                    masks = named.setdefault(v, {})
                    masks[a] = masks.get(a, 0) | bit
        else:
            by_pair: dict[tuple[int, int], list[int]] = {}
            by_arity: list[list[int]] = [[] for _ in levels]
            for j, (pairs,) in enumerate(nogoods):
                by_arity[len(pairs)].append(j)
                for pair in pairs:
                    by_pair.setdefault(pair, []).append(j)
            for (v, a), indices in by_pair.items():
                named.setdefault(v, {})[a] = _bits(indices)
            levels = [_bits(indices) if indices else 0 for indices in by_arity]
        touch = [0] * (self.n + 1)
        match: list[dict[int, int]] = [{}] * (self.n + 1)
        for v, masks in named.items():
            match[v] = masks
            touch[v] = reduce(or_, masks.values())  # one value: that mask itself
        return touch, match, levels


def _bits(indices: list[int]) -> int:
    """The int with bits `indices` (ascending) set, through a bytearray."""
    buf = bytearray(indices[-1] // 8 + 1)
    for j in indices:
        buf[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(buf, "little")


def is_satisfying(instance: CspInstance, values) -> bool:
    """True iff the total assignment `values` (variable v's value at index
    v-1) matches no nogood in full.  ValueError if it is partial, has a
    value that is not an integer (read by `operator.index`, so numpy
    integers and bools are integers, and a float is not) or has a value
    outside 0..d-1."""
    if len(values) != instance.n or None in values:
        raise ValueError("is_satisfying requires a total assignment")
    values = list(map(_as_int, values))
    if min(values) < 0 or max(values) >= instance.d:
        raise ValueError(f"is_satisfying requires values in 0..{instance.d - 1}")
    for ng in instance.nogoods:
        for v, a in ng.pairs:
            if values[v - 1] != a:
                break
        else:
            return False
    return True


def _step(levels: list[int], keep: int, match: int) -> list[int]:
    """The one move of the nogood state, which the DPLL walk and the PPSZ
    pass both make.

    The state of a partial assignment is a levels list: `levels[c]`, for
    c = 0..max(k_max, 1), is an int whose bit j is set iff nogood j is
    live (no assigned pair disagrees with it) and has exactly c unassigned
    pairs.  So `levels[0]` holds the matched nogoods, arity-0 ones from
    the start, and a killed nogood is in no level; `CspInstance.by_var`
    holds the empty assignment's.  Value a of an unassigned variable y
    would complete a match iff `levels[1] & touch[y]` meets `match[y][a]`.

    Returns the levels after an unassigned variable v takes a value a, as
    a new list: the live nogoods in `match`, those naming (v, a), go down
    one level, and those outside `keep`, which is ~(the nogoods naming v),
    are dropped.  No matched nogood names the unassigned v, so level 0 only
    gains.  3 * max(k_max, 1) big-int operations of up to m bits each,
    however many nogoods name v.  `levels` is not changed, so a caller
    that kept a list undoes every move made since by putting it back."""
    low = levels[1]
    new = [levels[0] | (low & match)]
    for high in levels[2:]:
        new.append((low & keep) | (high & match))
        low = high
    new.append(low & keep)
    return new


def parse_instance(text) -> CspInstance:
    """Parse the instance file format.

    Format: '#' comment lines; one header line `p csp <n> <d>`; then one
    nogood per line, `n <arity> v1 a1 ... v_arity a_arity`.  Raises
    ParseError (with line number) on malformed input.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = text[: exc.start].count(b"\n") + 1
            raise ParseError(f"byte {text[exc.start]:#04x} is not UTF-8", line) from None
    n = d = None
    nogoods = _CanonicalNogoods()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != "csp":
                raise ParseError(f"malformed header {line!r}", lineno)
            try:
                n, d = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(f"malformed header {line!r}", lineno) from None
            if n < 1 or d < 1:
                raise ParseError(f"header requires n >= 1 and d >= 1, got n={n} d={d}", lineno)
            continue
        if tokens[0] != "n":
            raise ParseError(f"expected nogood line, got {line!r}", lineno)
        try:
            arity = int(tokens[1])
            ints = [int(t) for t in tokens[2:]]
        except (ValueError, IndexError):
            raise ParseError(f"malformed nogood line {line!r}", lineno) from None
        if arity < 0 or len(ints) != 2 * arity:
            raise ParseError(
                f"nogood declares arity {tokens[1]} but carries {len(ints) // 2} pairs", lineno
            )
        try:  # as a tuple, a line in canonical order passes through as it is
            nogoods.append(_canonical(tuple(zip(ints[0::2], ints[1::2])), n, d))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    if n is None:
        raise ParseError("missing header line 'p csp <n> <d>'", 1)
    return CspInstance(n, d, nogoods)


def serialize_instance(instance: CspInstance) -> str:
    """Canonical text form; parse(serialize(I)) == I.

    Each arity k has one line format, `n k` and then k `%d %d` pairs.  The
    nogoods' formats, in order, make one template that is applied once to
    all their pairs flattened, so C code writes every number.
    """
    nogoods = [ng.pairs for ng in instance.nogoods]
    formats = {k: f"\nn {k}" + " %d %d" * k for k in set(map(len, nogoods))}
    template = "".join([formats[len(pairs)] for pairs in nogoods])
    flat = tuple(chain.from_iterable(chain.from_iterable(nogoods)))
    return f"p csp {instance.n} {instance.d}{template % flat}\n"


def load_instance(path) -> CspInstance:
    with open(path, "rb") as fh:
        return parse_instance(fh.read())


def save_instance(instance: CspInstance, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_instance(instance))
