import random
import re
import tracemalloc

import numpy as np
import pytest

from kcsp import (
    CspInstance,
    ParseError,
    is_satisfying,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from kcsp import core
from kcsp.core import _LimitExceeded
from kcsp.generators import gen_coloring, gen_latin, gen_model_rb, gen_nqueens, gen_uniform
from kcsp.harness import corpus

from bruteforce import brute_narrowed_domain, brute_solutions, matches
from conftest import random_instance


def triangle():
    return gen_coloring([(1, 2), (2, 3), (1, 3)], 3, 3)


def step(instance, levels, y, value):
    """The levels after the unassigned y takes `value`, by the one move."""
    touch, match, _ = instance.by_var
    return core._step(levels, ~touch[y], match[y].get(value, 0))


def forbidden(instance, levels, y):
    """The values of the unassigned y that would complete a match, read off
    level 1 and y's masks."""
    touch, match, _ = instance.by_var
    live = levels[1] & touch[y]
    return {a for a, mask in match[y].items() if live & mask}


def narrowed(instance, levels, y):
    """y's narrowed domain as the kernel reports it."""
    return set(range(instance.d)) - forbidden(instance, levels, y)


def defined_levels(instance, assigned: dict) -> list[int]:
    """The levels from their definition: bit j of level c is set iff no
    assigned pair disagrees with nogood j and c of its pairs are unassigned."""
    levels = [0] * (max(instance.k_max, 1) + 1)
    for j, ng in enumerate(instance.nogoods):
        if all(assigned.get(v, a) == a for v, a in ng.pairs):
            levels[sum(v not in assigned for v, _ in ng.pairs)] |= 1 << j
    return levels


def pair_lists(instance) -> list:
    return [ng.pairs for ng in instance.nogoods]


def joined_text(instance) -> str:
    """The instance file written one joined string per nogood, as the
    reference for serialize_instance's bytes."""
    lines = [f"p csp {instance.n} {instance.d}"]
    for ng in instance.nogoods:
        flat = " ".join(f"{v} {a}" for v, a in ng.pairs)
        lines.append(f"n {len(ng.pairs)} {flat}".rstrip())
    return "\n".join(lines) + "\n"


class TestCspInstance:
    def test_pairs_sorted_by_variable(self):
        inst = CspInstance(3, 3, [[(3, 1), (1, 0), (2, 2)]])
        assert pair_lists(inst) == [((1, 0), (2, 2), (3, 1))]
        assert inst.by_var[2] == [0, 0, 0, 1]  # the one nogood is at level 3

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError, match="variable 1 repeated within nogood"):
            CspInstance(2, 2, [[(1, 0), (1, 1)]])

    def test_empty_nogood(self):
        inst = CspInstance(2, 2, [[]])
        assert pair_lists(inst) == [()]
        assert (inst.by_var[2], inst.k_max) == ([1, 0], 0)

    def test_numpy_entries_become_python_ints(self):
        # the pairs feed big-int masks and JSON payloads: no numpy scalar may survive
        rows = np.array([[3, 1, 1, 0], [2, 1, 3, 1]], dtype=np.int64)
        inst = CspInstance(3, 2, [[(row[0], row[1]), (row[2], row[3])] for row in rows])
        assert pair_lists(inst) == [((1, 0), (3, 1)), ((2, 1), (3, 1))]
        assert {type(x) for ng in inst.nogoods for pair in ng.pairs for x in pair} == {int}

    def test_non_integer_entries_refused(self):
        # int() would truncate 1.7 to 1 and read "2" as 2: neither is an integer entry
        for pairs, entry in [
            ([(1.7, 0)], 1.7),
            ([("2", 1.9)], "2"),
            ([(1, 0), (2, 1.0)], 1.0),
            ([(1, None)], None),
            (((1, 0), (2, np.float64(1.0))), np.float64(1.0)),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(f'entry {entry!r} is not an integer')}$"):
                CspInstance(2, 2, [pairs])
        # integers of other types still are, and become exact ints
        inst = CspInstance(2, 2, [[(np.int32(2), True), (np.uint8(1), False)]])
        assert pair_lists(inst) == [((1, 0), (2, 1))]
        assert {type(x) for pair in inst.nogoods[0].pairs for x in pair} == {int}

    def test_malformed_pairs_refused_by_name(self):
        # unpacking would raise a bare ValueError or a TypeError: each names the fault
        for nogoods, message in [
            ([[(1, 0, 1)]], "pair (1, 0, 1) is not a (variable, value) pair"),
            ([[(1,)]], "pair (1,) is not a (variable, value) pair"),
            ([[1]], "pair 1 is not a (variable, value) pair"),
            ([5], "nogood 5 is not an iterable of pairs"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CspInstance(2, 2, nogoods)

    def test_canonical_nogood_kept_as_given(self):
        # a sorted tuple of (int, int) tuples in range is the record's pairs itself
        given = ((1, 0), (3, 1))
        assert CspInstance(3, 2, [given]).nogoods[0].pairs is given
        # any other form is rebuilt: a list, unsorted pairs, a bool entry
        for other in ([(1, 0), (3, 1)], ((3, 1), (1, 0)), ((True, 0), (3, 1))):
            pairs = CspInstance(3, 2, [other]).nogoods[0].pairs
            assert pairs == given and pairs is not other

    def test_first_fault_in_given_order_is_reported(self):
        # each pair is checked for variable range, value range, then a repeat
        for pairs, message in [
            ([(9, 0), (1, 7)], "variable 9 out of range 1..2"),
            ([(1, 7), (9, 0)], "value 7 out of range 0..1"),
            ([(2, 0), (2, 1), (9, 0)], "variable 2 repeated within nogood"),
            ([(1, 0), (1, 5)], "value 5 out of range 0..1"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CspInstance(2, 2, [[(1, 0)], pairs])

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            CspInstance(0, 2)
        with pytest.raises(ValueError):
            CspInstance(2, 0)
        with pytest.raises(ValueError, match="out of range"):
            CspInstance(2, 2, [[(3, 0)]])
        with pytest.raises(ValueError, match="out of range"):
            CspInstance(2, 2, [[(1, 2)]])

    def test_counts_must_be_integers(self):
        # a float n or d would build, then fail inside by_var or range(d)
        for args, message in [
            ((2.0, 2), "variable count 2.0 is not an integer"),
            ((2, 2.5), "domain size 2.5 is not an integer"),
            (("3", 2), "variable count '3' is not an integer"),
            ((2, np.float64(2.0)), "domain size np.float64(2.0) is not an integer"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CspInstance(*args, [[(1, 0)]])
        # integers of other types are taken as exact ints
        inst = CspInstance(True, np.int64(2), [[(1, 0)]])
        assert (type(inst.n), type(inst.d)) == (int, int)
        assert repr(inst) == "CspInstance(n=1, d=2, nogoods=1)"
        assert inst == CspInstance(1, 2, [[(1, 0)]])
        for args, message in [
            ((0, 2), "variable count must be positive, got 0"),
            ((2, False), "domain size must be at least 1, got 0"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CspInstance(*args)

    def test_deduplication_keeps_first_occurrence_order(self):
        inst = CspInstance(3, 2, [[(2, 1)], [(1, 0)], [(2, 1)]])
        assert pair_lists(inst) == [((2, 1),), ((1, 0),)]

    def test_pair_order_irrelevant_for_dedup(self):
        inst = CspInstance(2, 2, [[(1, 0), (2, 1)], [(2, 1), (1, 0)]])
        assert len(inst.nogoods) == 1

    def test_k_max(self):
        assert CspInstance(3, 2).k_max == 0
        assert triangle().k_max == 2

    def test_domain_of_size_one_is_legal(self):
        inst = CspInstance(2, 1)
        assert brute_solutions(inst) == [(0, 0)]

    def test_variable_count_limit(self):
        assert CspInstance(1 << 20, 2).n == 1 << 20
        with pytest.raises(_LimitExceeded, match="1048577 variables exceed the limit of 1048576"):
            CspInstance((1 << 20) + 1, 2)

    def test_tables_of_a_sparse_instance_stay_small(self):
        # 2^20 variables, one of them named: two (n + 1)-entry lists, no
        # per-variable container for the others
        inst = CspInstance(1 << 20, 2, [[(1 << 20, 0)]])
        tracemalloc.start()
        try:
            touch, match, levels = inst.by_var
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (touch[-1], match[-1], levels) == (1, {0: 1}, [0, 1])
        assert peak < 24 * 2**20, peak

    def test_kernel_tables_name_only_occurring_values(self):
        # a huge domain costs nothing: only the (v, a) pairs that occur get a mask
        inst = CspInstance(2, 10**9, [[(1, 999_999_999), (2, 7)]])
        touch, match, levels = inst.by_var
        assert touch == [0, 1, 1]
        assert match[1] == {999_999_999: 1} and match[2] == {7: 1}
        assert levels == [0, 0, 1]
        levels = core._step(levels, ~touch[1], match[1].get(999_999_999, 0))
        assert forbidden(inst, levels, 2) == {7}

    def test_variable_named_with_one_value_shares_its_mask(self):
        # a unary chain's `touch` masks are its `match` masks, not copies
        # (past bit 256 no cached small int can hide a copy), on both sides
        # of the 4,096-nogood switch to bytearray-built masks
        for n in (400, 5000):
            touch, match, _ = CspInstance(n, 2, [[(v, 1)] for v in range(1, n + 1)]).by_var
            assert all(touch[v] is match[v][1] for v in range(1, n + 1))

    def test_equality_and_hash(self):
        a = CspInstance(2, 2, [[(1, 0)]])
        b = CspInstance(2, 2, [((1, 0),), [(1, 0)]])
        assert a == b and hash(a) == hash(b)
        assert a != CspInstance(2, 2)


class TestNogoodStatus:
    # one nogood, ((1, 0), (2, 1)), read off the levels as killed, matched or live
    def test_active_with_unassigned_subset(self):
        inst = CspInstance(2, 2, [[(1, 0), (2, 1)]])
        levels = inst.by_var[2]
        assert (levels, bool(levels[0])) == ([0, 0, 1], False)
        levels = step(inst, levels, 1, 0)
        assert (levels, bool(levels[0])) == ([0, 1, 0], False)
        assert forbidden(inst, levels, 2) == {1}

    def test_killed_on_disagreement(self):
        inst = CspInstance(2, 2, [[(1, 0), (2, 1)]])
        levels = step(inst, inst.by_var[2], 1, 1)
        assert (levels, bool(levels[0])) == ([0, 0, 0], False)
        assert forbidden(inst, levels, 2) == set()

    def test_matched_when_all_agree(self):
        inst = CspInstance(2, 2, [[(1, 0), (2, 1)]])
        levels = step(inst, step(inst, inst.by_var[2], 1, 0), 2, 1)
        assert (levels, bool(levels[0])) == ([1, 0, 0], True)

    def test_arity_zero_always_matched(self):
        inst = CspInstance(2, 2, [[], [(1, 0)]])
        before = inst.by_var[2]
        assert (before, bool(before[0])) == ([0b01, 0b10], True)
        assert step(inst, before, 1, 0) == [0b11, 0]
        # the kept list is the undo point, and the instance's table the empty assignment's
        assert before == [0b01, 0b10]
        assert step(inst, before, 1, 1) == [0b01, 0]
        assert inst.by_var[2] == [0b01, 0b10]

    def test_invariant_under_assignment_insertion_order(self):
        inst = CspInstance(3, 2, [[(1, 0), (3, 1)]])
        first = step(inst, step(inst, inst.by_var[2], 1, 0), 3, 1)
        second = step(inst, step(inst, inst.by_var[2], 3, 1), 1, 0)
        assert first == second == [1, 0, 0]


def random_walks(seed: int):
    """200 random instances, each with a walk that assigns variables in any
    order and puts back the levels read before one of its assignments,
    unassigning that variable and every later one in a random order;
    yields (instance, levels, assigned) after every step."""
    rng = random.Random(seed)
    for _ in range(200):
        inst = random_instance(rng)
        levels = inst.by_var[2]
        assigned = {}
        saved = []  # the levels read before each assignment, in order
        for _ in range(3 * inst.n):
            if assigned and (len(assigned) == inst.n or rng.random() < 0.3):
                back = rng.randrange(len(saved))
                undone = list(assigned)[back:]
                rng.shuffle(undone)
                levels = saved[back]
                for y in undone:
                    del assigned[y]
                del saved[back:]
            else:
                y = rng.choice([v for v in range(1, inst.n + 1) if v not in assigned])
                assigned[y] = rng.randrange(inst.d)
                saved.append(levels)
                levels = step(inst, levels, y, assigned[y])
            yield inst, levels, assigned


class TestNogoodState:
    def test_counts_match_reference_along_random_walks(self):
        # every level checked against its definition after every step
        for inst, levels, assigned in random_walks(4104):
            point = tuple(assigned.get(v) for v in range(1, inst.n + 1))
            assert levels == defined_levels(inst, assigned)
            matched = sum(matches(ng.pairs, point) for ng in inst.nogoods)
            assert bool(levels[0]) == (matched > 0)
            # select: fewest unassigned pairs among the live nogoods, then lowest index
            open_nogoods = [
                (sum(v not in assigned for v, _ in ng.pairs), j)
                for j, ng in enumerate(inst.nogoods)
                if all(assigned.get(v, a) == a for v, a in ng.pairs)
                and any(v not in assigned for v, _ in ng.pairs)
            ]
            # solve_dpll's select rule, read off the levels: the lowest set
            # bit of the first non-empty level from level 1 on
            level = next((level for level in levels[1:] if level), 0)
            assert (level & -level).bit_length() - 1 == min(open_nogoods, default=(0, -1))[1]
            for y in range(1, inst.n + 1):
                if y not in assigned:
                    expected = set(range(inst.d)) - brute_narrowed_domain(inst, assigned, y)
                    assert forbidden(inst, levels, y) == expected

    def test_completing_names_the_forbidden_values_along_random_walks(self):
        # the DPLL walk's blocking test: value a of y would complete a match
        # iff level 1, cut to the nogoods naming y, meets those naming (y, a)
        for inst, levels, assigned in random_walks(4110):
            touch, match, _ = inst.by_var
            for y in range(1, inst.n + 1):
                if y in assigned:
                    continue
                live = levels[1] & touch[y]
                blocked = forbidden(inst, levels, y)
                narrowed = brute_narrowed_domain(inst, assigned, y)
                for value in range(inst.d):
                    completes = bool(live & match[y].get(value, 0))
                    assert completes == (value in blocked) == (value not in narrowed)

    def test_assign_unassign_round_trip(self):
        # every value of y stepped from one kept list, which then still
        # holds the levels of the assignment before y
        rng = random.Random(4105)
        for _ in range(200):
            inst = random_instance(rng)
            levels = inst.by_var[2]
            assigned = {}
            order = list(range(1, inst.n + 1))
            rng.shuffle(order)
            for y in order:
                before = list(levels)
                for value in range(inst.d):
                    after = defined_levels(inst, {**assigned, y: value})
                    assert step(inst, levels, y, value) == after
                    assert levels == before == defined_levels(inst, assigned)
                assigned[y] = rng.randrange(inst.d)
                levels = step(inst, levels, y, assigned[y])

    def test_reset_restores_initial_state(self):
        # back to the empty assignment by the instance's own table, which
        # the assignments must not have changed
        rng = random.Random(4106)
        for _ in range(100):
            inst = random_instance(rng)
            initial = inst.by_var[2]
            kept = list(initial)
            levels = initial
            for y in range(1, inst.n + 1):
                levels = step(inst, levels, y, rng.randrange(inst.d))
            assert inst.by_var[2] is initial
            assert initial == kept == defined_levels(inst, {})

    def test_wide_masks_match_their_definition(self):
        # from 4,096 nogoods on the masks are built through a bytearray, not by ORs
        for m in (4095, 4096, 5000):
            inst = gen_uniform(12, 10, 2, m, seed=4107)
            assert len(inst.nogoods) == m
            touch, match, levels = inst.by_var
            for v in range(1, inst.n + 1):
                named = [(j, a) for j, ng in enumerate(inst.nogoods) for u, a in ng.pairs if u == v]
                assert touch[v] == sum(1 << j for j, _ in named)
                # each value once, in the order it first occurs
                values = dict.fromkeys(a for _, a in named)
                assert match[v] == {a: sum(1 << j for j, b in named if b == a) for a in values}
            assert levels == defined_levels(inst, {})
            rng = random.Random(4108)
            assigned = {}
            for y in rng.sample(range(1, inst.n + 1), inst.n):
                assigned[y] = rng.randrange(inst.d)
                levels = core._step(levels, ~touch[y], match[y].get(assigned[y], 0))
                assert levels == defined_levels(inst, assigned)

    def test_assign_leaves_the_lists_it_replaced_unchanged(self):
        # what makes a kept levels list a valid undo point
        rng = random.Random(4109)
        for _ in range(200):
            inst = random_instance(rng)
            levels = inst.by_var[2]
            kept = []
            assigned = {}
            for y in rng.sample(range(1, inst.n + 1), inst.n):
                kept.append((levels, list(levels), defined_levels(inst, assigned)))
                assigned[y] = rng.randrange(inst.d)
                levels = step(inst, levels, y, assigned[y])
            for levels, ints, defined in kept:
                assert levels == ints == defined


class TestIsSatisfying:
    def test_triangle_proper_coloring(self):
        assert is_satisfying(triangle(), (0, 1, 2))

    def test_triangle_monochrome_edge(self):
        assert not is_satisfying(triangle(), (0, 0, 1))

    def test_empty_nogood_list_vacuous(self):
        assert is_satisfying(CspInstance(2, 2), (1, 0))

    def test_requires_total_assignment(self):
        for partial in [(0, None), (0,), (0, 1, 0)]:
            with pytest.raises(ValueError, match="total"):
                is_satisfying(CspInstance(2, 2), partial)

    def test_rejects_values_outside_the_domain(self):
        for values, nogoods in [((0, 2), []), ((-1, 7), [[(1, 0)]]), ((2, 0), [[(1, 1)]])]:
            with pytest.raises(ValueError, match=r"values in 0\.\.1"):
                is_satisfying(CspInstance(2, 2, nogoods), values)

    def test_rejects_values_that_are_not_integers(self):
        # 0.5 is not 0 and matches no nogood pair, so it would read as satisfying
        inst = CspInstance(2, 2, [[(1, 0), (2, 1)]])
        for values, entry in [
            ((0.5, 1), 0.5),
            ((0, 1.0), 1.0),
            (("0", 1), "0"),
            ((1, np.float64(0)), np.float64(0)),
        ]:
            message = f"entry {entry!r} is not an integer"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                is_satisfying(inst, values)
        # integers of other types still are
        assert not is_satisfying(inst, (np.int64(0), True))
        assert is_satisfying(inst, np.array([1, 1], dtype=np.uint8))
        assert is_satisfying(inst, (False, np.int32(0)))


class TestNarrowedDomain:
    def test_triangle_two_neighbors_colored(self):
        inst = triangle()
        levels = step(inst, step(inst, inst.by_var[2], 1, 0), 2, 1)
        assert narrowed(inst, levels, 3) == {2}

    def test_triangle_one_neighbor_colored(self):
        inst = triangle()
        assert narrowed(inst, step(inst, inst.by_var[2], 1, 0), 3) == {1, 2}

    def test_no_nogoods_full_domain(self):
        inst = CspInstance(2, 3)
        assert forbidden(inst, inst.by_var[2], 1) == set()
        assert narrowed(inst, inst.by_var[2], 1) == {0, 1, 2}

    def test_unary_nogood_forbids_unconditionally(self):
        inst = CspInstance(2, 2, [[(1, 0)]])
        assert narrowed(inst, inst.by_var[2], 1) == {1}

    def test_arity_zero_empties_every_domain(self):
        # an arity-0 nogood names no variable: the levels hold it as
        # matched from the start, which empties every domain
        inst = CspInstance(2, 3, [[]])
        levels = inst.by_var[2]
        assert levels == [1, 0] and levels[0]
        assert forbidden(inst, levels, 1) == forbidden(inst, levels, 2) == set()
        assert brute_narrowed_domain(inst, {}, 1) == set()

    def test_matches_reference_implementation_on_fuzz(self):
        rng = random.Random(4101)
        for _ in range(300):
            inst = random_instance(rng)
            order = list(range(1, inst.n + 1))
            rng.shuffle(order)
            prefix_len = rng.randrange(inst.n)
            levels = inst.by_var[2]
            assigned = {}
            for y in order[:prefix_len]:
                value = rng.randrange(inst.d)
                levels = step(inst, levels, y, value)
                assigned[y] = value
            for y in order[prefix_len:]:
                assert narrowed(inst, levels, y) == brute_narrowed_domain(inst, assigned, y)

    def test_solution_safety_on_fuzz(self):
        # a solution's own value never gets narrowed away along any prefix
        rng = random.Random(4102)
        checked = 0
        while checked < 60:
            inst = random_instance(rng, max_n=4)
            solutions = brute_solutions(inst)
            if not solutions:
                continue
            X = rng.choice(solutions)
            order = list(range(1, inst.n + 1))
            rng.shuffle(order)
            levels = inst.by_var[2]
            for y in order:
                assert X[y - 1] not in forbidden(inst, levels, y)
                levels = step(inst, levels, y, X[y - 1])
            checked += 1


class TestPartialAssignment:
    # a partial assignment is a values list, None for an unassigned
    # variable; it is read as a total assignment only once every variable
    # is set, and the levels moved along it agree
    def test_as_tuple_requires_total(self):
        inst = CspInstance(2, 2, [[(1, 0), (2, 0)]])
        values = [None, None]
        with pytest.raises(ValueError, match="total"):
            is_satisfying(inst, values)
        values[0] = 0
        kept = step(inst, inst.by_var[2], 1, 0)
        with pytest.raises(ValueError, match="total"):
            is_satisfying(inst, values)
        values[1] = 1
        assert tuple(values) == (0, 1)
        assert is_satisfying(inst, values) and not step(inst, kept, 2, 1)[0]
        values[1] = 0
        assert not is_satisfying(inst, values) and step(inst, kept, 2, 0)[0]


class TestParsing:
    def test_basic_file(self):
        text = "# comment\np csp 3 2\nn 2 1 0 3 1\nn 1 2 1\n"
        inst = parse_instance(text)
        assert (inst.n, inst.d) == (3, 2)
        assert pair_lists(inst) == [((1, 0), (3, 1)), ((2, 1),)]

    def test_blank_lines_and_bytes_ok(self):
        inst = parse_instance(b"\np csp 2 2\n\nn 0\n")
        assert pair_lists(inst) == [()]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("p sat 2 2\n", "header"),
            ("p csp 2\n", "header"),
            ("p csp 0 2\n", "n >= 1"),
            ("n 1 1 0\n", "header"),
            ("p csp 2 2\nx 1 1 0\n", "expected nogood"),
            ("p csp 2 2\nn 2 1 0\n", "arity"),
            ("p csp 2 2\nn 1 3 0\n", "out of range"),
            ("p csp 2 2\nn 1 1 5\n", "out of range"),
            ("p csp 2 2\nn 2 1 0 1 1\n", "repeated"),
            ("", "header"),
        ],
    )
    def test_rejects_malformed(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_instance(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p csp 2 2\nn 2 9 0 1 7\n", "line 2: variable 9 out of range 1..2"),
            ("p csp 2 2\nn 2 1 7 9 0\n", "line 2: value 7 out of range 0..1"),
            ("p csp 2 2\nn 1 9 7\n", "line 2: variable 9 out of range 1..2"),
            ("p csp 2 2\nn 3 2 0 2 1 9 0\n", "line 2: variable 2 repeated within nogood"),
            ("p csp 2 2\nn 1 1 0\nn 1 1 5\nx 1\n", "line 3: value 5 out of range 0..1"),
        ],
    )
    def test_first_fault_in_file_order(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_instance(text)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_instance("p csp 2 2\nn 1 9 0\n")
        assert info.value.line == 2
        assert "line 2" in str(info.value)

    def test_each_nogood_canonicalized_once(self, monkeypatch):
        calls, builds = [], []
        canonical, init = core._canonical, CspInstance.__init__
        monkeypatch.setattr(core, "_canonical", lambda *args: calls.append(args) or canonical(*args))
        # still one pass through the constructor, as a wrapper on it sees
        monkeypatch.setattr(CspInstance, "__init__", lambda *args: builds.append(args) or init(*args))
        # five lines, one of them a repeat of the first in another pair order
        text = "p csp 4 3\nn 2 3 1 1 0\nn 1 2 2\nn 0\nn 2 1 0 3 1\nn 3 4 0 2 1 1 2\n"
        inst = parse_instance(text)
        assert len(calls) == 5 and len(builds) == 1
        raw = [[(3, 1), (1, 0)], [(2, 2)], [], [(1, 0), (3, 1)], [(4, 0), (2, 1), (1, 2)]]
        assert inst == CspInstance(4, 3, raw)
        assert pair_lists(inst) == [((1, 0), (3, 1)), ((2, 2),), (), ((1, 2), (2, 1), (4, 0))]
        assert inst.k_max == 3

    def test_variable_count_limit_after_the_lines(self):
        # the lines are checked first, the header's n by the instance after
        with pytest.raises(ParseError, match="^line 3: value 5 out of range 0..1$"):
            parse_instance(f"p csp {(1 << 20) + 1} 2\nn 1 1 0\nn 1 2 5\n")
        with pytest.raises(_LimitExceeded, match="^1048577 variables exceed the limit of 1048576$"):
            parse_instance(f"p csp {(1 << 20) + 1} 2\nn 1 1 0\n")

    def test_round_trip_on_fuzz(self):
        rng = random.Random(4103)
        for _ in range(100):
            inst = random_instance(rng)
            text = serialize_instance(inst)
            assert text == joined_text(inst)
            assert parse_instance(text) == inst

    @pytest.mark.parametrize(
        "inst",
        [inst for _, inst in corpus()]
        + [
            gen_uniform(6, 3, 2, 12, seed=1),
            gen_uniform(7, 2, 3, 20, seed=2),
            gen_model_rb(6, 0.8, 1.0, 0.3, 2, seed=3),
            gen_model_rb(5, 0.8, 1.0, 0.3, 3, seed=4),
            gen_coloring([(1, 2), (2, 3), (3, 4), (1, 4)], 4, 3),
            gen_latin(3),
            gen_nqueens(5),
        ],
        ids=[name for name, _ in corpus()]
        + ["uniform-k2", "uniform-k3", "model-rb-k2", "model-rb-k3", "coloring", "latin", "nqueens"],
    )
    def test_serialize_bytes_match_joined_text(self, inst):
        text = serialize_instance(inst)
        assert text == joined_text(inst)
        assert parse_instance(text) == inst

    def test_serialize_empty_instance(self):
        assert serialize_instance(CspInstance(3, 2)) == "p csp 3 2\n"

    def test_serialize_sorts_pairs(self):
        inst = parse_instance("p csp 3 2\nn 2 3 1 1 0\n")
        assert "n 2 1 0 3 1" in serialize_instance(inst)

    def test_file_round_trip(self, tmp_path):
        inst = triangle()
        path = tmp_path / "triangle.csp"
        save_instance(inst, path)
        assert load_instance(path) == inst
