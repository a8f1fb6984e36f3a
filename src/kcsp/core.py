"""Problem representation for finite-domain CSPs given as nogood lists.

A problem over n variables (indexed 1..n) with domain {0..d-1} is a list
of nogoods.  A nogood is a partial assignment, given as (variable, value)
pairs, that a total assignment must not match in full.  An assignment
satisfies the instance iff no nogood is fully matched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class ParseError(ValueError):
    """Instance-file syntax or range violation, with the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _LimitExceeded(ValueError):
    """A runtime limit was reached (enumeration cap or point limit, nogood
    limit, search depth): the input is well formed but too large to handle."""


@dataclass(frozen=True)
class Nogood:
    """A forbidden partial assignment; pairs are kept sorted by variable index."""

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs):
        pairs = tuple(sorted((int(v), int(a)) for v, a in pairs))
        seen = set()
        for v, _ in pairs:
            if v in seen:
                raise ValueError(f"variable {v} appears twice in nogood {pairs}")
            seen.add(v)
        object.__setattr__(self, "pairs", pairs)

    @property
    def arity(self) -> int:
        return len(self.pairs)

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.pairs)


class CspInstance:
    """Immutable CSP instance: n variables over {0..d-1} plus a nogood list.

    Nogoods are canonicalized (pairs sorted by variable) and deduplicated,
    keeping first-occurrence order.  Safe to share across threads.
    """

    def __init__(self, n: int, d: int, nogoods=()):
        if n < 1:
            raise ValueError(f"variable count must be positive, got {n}")
        if d < 1:
            raise ValueError(f"domain size must be at least 1, got {d}")
        self.n = n
        self.d = d
        canonical = []
        seen = set()
        for ng in nogoods:
            if not isinstance(ng, Nogood):
                ng = Nogood(ng)
            for v, a in ng.pairs:
                if not 1 <= v <= n:
                    raise ValueError(f"variable {v} out of range 1..{n}")
                if not 0 <= a < d:
                    raise ValueError(f"value {a} out of range 0..{d - 1}")
            if ng.pairs not in seen:
                seen.add(ng.pairs)
                canonical.append(ng)
        self.nogoods: tuple[Nogood, ...] = tuple(canonical)
        self.k_max = max((ng.arity for ng in self.nogoods), default=0)

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
    def by_var(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each variable (index 1..n), the (nogood index, value) pairs naming it."""
        occ: list[list[tuple[int, int]]] = [[] for _ in range(self.n + 1)]
        for j, ng in enumerate(self.nogoods):
            for v, a in ng.pairs:
                occ[v].append((j, a))
        return tuple(tuple(entry) for entry in occ)

    @cached_property
    def arities(self) -> tuple[int, ...]:
        return tuple(ng.arity for ng in self.nogoods)


def is_satisfying(instance: CspInstance, values) -> bool:
    """True iff the total assignment `values` (variable v's value at index
    v-1) matches no nogood in full.  ValueError if it is partial or has a
    value outside 0..d-1."""
    if len(values) != instance.n or None in values:
        raise ValueError("is_satisfying requires a total assignment")
    if min(values) < 0 or max(values) >= instance.d:
        raise ValueError(f"is_satisfying requires values in 0..{instance.d - 1}")
    for ng in instance.nogoods:
        if all(values[v - 1] == a for v, a in ng.pairs):
            return False
    return True


class NogoodState:
    """Incremental status of every nogood under a partial assignment.

    `values[v]` is variable v's value, or None while unassigned
    (`values[0]` is unused padding).  For nogood j, `left[j]` counts its
    unassigned pairs and `bad[j]` its assigned pairs that disagree with it:
    the nogood is killed when bad[j] > 0, matched when left[j] == bad[j] ==
    0, and live otherwise.  `matched` counts matched nogoods; arity-0
    nogoods are matched from the start.  Single-owner and mutable.
    """

    def __init__(self, instance: CspInstance):
        self.by_var = instance.by_var
        self._arities = instance.arities
        self._empty = instance.arities.count(0)
        self.values: list[int | None] = [None] * (instance.n + 1)
        self.left = list(self._arities)
        self.bad = [0] * len(self._arities)
        self.matched = self._empty

    def reset(self) -> None:
        """Back to the empty assignment."""
        self.values[:] = [None] * len(self.values)
        self.left[:] = self._arities
        self.bad[:] = [0] * len(self.bad)
        self.matched = self._empty

    def assign(self, var: int, value: int) -> None:
        self.values[var] = value
        left, bad = self.left, self.bad
        for j, a in self.by_var[var]:
            left[j] -= 1
            if a != value:
                bad[j] += 1
            elif left[j] == 0 and bad[j] == 0:
                self.matched += 1

    def unassign(self, var: int) -> None:
        """Exact inverse of the `assign` that set var."""
        value = self.values[var]
        self.values[var] = None
        left, bad = self.left, self.bad
        for j, a in self.by_var[var]:
            if a != value:
                bad[j] -= 1
            elif left[j] == 0 and bad[j] == 0:
                self.matched -= 1
            left[j] += 1

    def forbidden(self, y: int) -> set[int]:
        """Values a of the live nogoods whose only unassigned pair is (y, a):
        the values that would complete a match."""
        left, bad = self.left, self.bad
        return {a for j, a in self.by_var[y] if left[j] == 1 and bad[j] == 0}


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
    nogoods = []
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
        pairs = []
        seen_vars = set()
        for v, a in zip(ints[0::2], ints[1::2]):
            if not 1 <= v <= n:
                raise ParseError(f"variable {v} out of range 1..{n}", lineno)
            if not 0 <= a < d:
                raise ParseError(f"value {a} out of range 0..{d - 1}", lineno)
            if v in seen_vars:
                raise ParseError(f"variable {v} repeated within nogood", lineno)
            seen_vars.add(v)
            pairs.append((v, a))
        nogoods.append(Nogood(pairs))
    if n is None:
        raise ParseError("missing header line 'p csp <n> <d>'", 1)
    return CspInstance(n, d, nogoods)


def serialize_instance(instance: CspInstance) -> str:
    """Canonical text form; parse(serialize(I)) == I."""
    lines = [f"p csp {instance.n} {instance.d}"]
    for ng in instance.nogoods:
        flat = " ".join(f"{v} {a}" for v, a in ng.pairs)
        lines.append(f"n {ng.arity} {flat}".rstrip())
    return "\n".join(lines) + "\n"


def load_instance(path) -> CspInstance:
    with open(path, "rb") as fh:
        return parse_instance(fh.read())


def save_instance(instance: CspInstance, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_instance(instance))
