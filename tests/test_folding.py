import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from catalog import cartan, random_simply_laced, symmetric_diagram
from kmfactor import (
    CartanMatrix,
    FoldContext,
    Partition,
    PVIndex,
    check_automorphism,
    connected_transversal,
    is_connected,
    orbit_partition,
    log_numerator,
    validate_gcm,
)
from kmfactor.errors import (
    DomainError,
    NoLift,
    NotClassUnion,
    NotCompatible,
    NotEquiconnected,
    NotSymmetric,
    NoTransversal,
    SizeLimit,
)
from kmfactor.folding import DiagramAutomorphism, _folded_log_numerator
from oracles import (
    brute_automorphisms,
    brute_connected_subsets,
    naive_connected_subsets,
    naive_lift_data,
    naive_transversal,
)


def figure1():
    # path 1-2-3 with extra edges 3-4 and 3-5
    return validate_gcm([
        [2, -1, 0, 0, 0],
        [-1, 2, -1, 0, 0],
        [0, -1, 2, -1, -1],
        [0, 0, -1, 2, 0],
        [0, 0, -1, 0, 2],
    ])


def path_diagram(n):
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n):
        rows[k - 1][k] = rows[k][k - 1] = -1
    return validate_gcm(rows)


def figure2():
    # path graph on nine nodes
    return path_diagram(9)


FIGURE1_CLASSES = [[1], [2], [3], [4, 5]]
FIGURE2_CLASSES = [[5], [3, 4, 6], [2, 7, 8], [1, 9]]


# -- partitions and automorphisms ------------------------------------------------

def test_partition_canonical_order():
    p = Partition.of(4, [[3], [4, 2], [1]])
    assert p.classes == ((1,), (2, 4), (3,))
    assert p.class_index(4) == 1
    with pytest.raises(DomainError):
        Partition.of(3, [[1, 2]])
    with pytest.raises(DomainError):
        Partition.of(2, [[1, 2], []])
    with pytest.raises(DomainError):
        Partition.of(3, [[1, 2], [2, 3]])
    for member in (True, 2.0, "2"):  # a bool or a non-int is no node
        with pytest.raises(DomainError):
            Partition.of(2, [[1], [member]])
    with pytest.raises(DomainError):
        Partition.of(2, [[True], [2]])


def test_node_arguments_are_nodes():
    # a raw index read 0 as the last node and True as node 1
    flip = DiagramAutomorphism((2, 1))
    partition = Partition(2, [[1], [2]])
    for bad in (0, 3, -1, True, 1.0, "1", None):
        with pytest.raises(DomainError):
            flip.apply(bad)
        with pytest.raises(DomainError):
            partition.class_index(bad)
    assert [flip.apply(1), flip.apply(2)] == [2, 1]
    assert [partition.class_index(1), partition.class_index(2)] == [0, 1]


def test_check_automorphism_a3(a3):
    flip = check_automorphism(a3, [3, 2, 1])
    assert flip.apply(1) == 3
    assert check_automorphism(a3, [1, 2, 3]).images == (1, 2, 3)


def test_check_automorphism_rejects(a3, b2):
    with pytest.raises(NotCompatible):
        check_automorphism(b2, [2, 1])
    with pytest.raises(DomainError):
        check_automorphism(b2, [1, 1])
    for images in ([True, 2, 3], [1.0, 2, 3], ["1", 2, 3]):
        with pytest.raises(DomainError):
            check_automorphism(a3, images)


def test_orbit_partition_checks_automorphism_objects(a3):
    # an object is checked like its images given as a list
    assert orbit_partition(a3, [DiagramAutomorphism((3, 2, 1))]).classes == ((1, 3), (2,))
    for images, error in (((1, 1, 1), DomainError), ((2, 1, 3), NotCompatible),
                          ((1, 2), DomainError)):
        with pytest.raises(error):
            orbit_partition(a3, [list(images)])
        with pytest.raises(error):  # (1, 1, 1) is refused when it is built
            orbit_partition(a3, [DiagramAutomorphism(images)])


def test_values_are_checked_when_built(a3):
    for n, classes in ((3, ((1, 1), (5,))), (2, [[1, 1], [2]]), (2, [[1], [True]]),
                       (2, [[1], [2.0]]), (2, [[1, 2], []]), (True, [[1]]), (-1, []),
                       (2, [1, 2]), (2, 5), (2, None), (10**12, [[1]])):
        with pytest.raises(DomainError):
            Partition(n, classes)
        with pytest.raises(DomainError):
            Partition.of(n, classes)
    for images in ((1, 1, 1), (0, 1), (2, 3), (True,), (1.0,), 3, None):
        with pytest.raises(DomainError):
            DiagramAutomorphism(images)
    p = Partition(2, [[2], [1]])
    assert p == Partition.of(2, [[1], [2]]) and p.classes == ((1,), (2,))
    assert {p: 1}[Partition(2, iter([(1,), (2,)]))] == 1
    assert DiagramAutomorphism([2, 1]).images == (2, 1)
    with pytest.raises(DomainError):
        FoldContext(a3, Partition(2, [[1, 2]]))


def _is_set_partition(n, classes):
    """Whether the classes split 1..n into nonempty blocks, checked on sets."""
    if type(n) is not int or n < 0:
        return False
    blocks = [list(c) for c in classes]
    members = [x for b in blocks for x in b]
    return (all(blocks) and all(type(x) is int for x in members)
            and len(members) == len(set(members)) == n
            and set(members) == set(range(1, n + 1)))


node_values = st.one_of(st.integers(-1, 6), st.booleans(), st.sampled_from([1.0, "1"]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-1, 5), st.booleans()),
       st.lists(st.lists(node_values, max_size=4), max_size=5))
def test_partition_constructors_agree_with_set_partitions(n, classes):
    outcomes = []
    for build in (Partition, Partition.of):
        try:
            outcomes.append(build(n, classes))
        except DomainError:
            outcomes.append(DomainError)
    assert outcomes[0] == outcomes[1]
    if _is_set_partition(n, classes):
        expect = tuple(sorted(tuple(sorted(c)) for c in classes))
        assert outcomes[0].n == n and outcomes[0].classes == expect
    else:
        assert outcomes[0] is DomainError


def test_orbit_partition(a3, a1aff):
    assert orbit_partition(a3, [[3, 2, 1]]).classes == ((1, 3), (2,))
    assert orbit_partition(a3, []).classes == ((1,), (2,), (3,))
    assert orbit_partition(a1aff, [[2, 1]]).classes == ((1, 2),)


def test_orbit_partition_generated_group():
    d4 = cartan("D4")
    # the two generators together generate the full symmetric action on {1,2,4}
    p = orbit_partition(d4, [[2, 1, 3, 4], [1, 4, 3, 2]])
    assert p.classes == ((1, 2, 4), (3,))


# -- transversals ------------------------------------------------------------------

def test_transversal_a3(a3):
    p = orbit_partition(a3, [[3, 2, 1]])
    assert connected_transversal(a3, p) == (1, 2)


def test_transversal_singletons_whole_set(a3):
    p = Partition.of(3, [[1], [2], [3]])
    assert connected_transversal(a3, p) == (1, 2, 3)


def test_transversal_refuses_a_partition_of_the_wrong_size(a3):
    with pytest.raises(DomainError, match="partition covers 1..2, matrix has 3 nodes"):
        connected_transversal(a3, Partition.of(2, [[1], [2]]))


def test_transversal_disconnected_graph_fails():
    cm = validate_gcm([[2, 0], [0, 2]])
    with pytest.raises(NoTransversal):
        connected_transversal(cm, Partition.of(2, [[1], [2]]))


def test_transversal_random_symmetric_diagrams():
    rng = random.Random(17)
    for _ in range(25):
        cm = symmetric_diagram(rng)
        gens = [check_automorphism(cm, p) for p in brute_automorphisms(cm)]
        part = orbit_partition(cm, gens)
        nodes = connected_transversal(cm, part)
        assert is_connected(cm, nodes)
        for cls in part.classes:
            assert len(set(nodes) & set(cls)) == 1


# -- lifts and transversals against their oracles ----------------------------------

def outcome(fn, *args):
    """A call's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def lift_fields(data):
    if isinstance(data, tuple):
        return data
    return data.lifts, data.lean, data.class_indices, data.lean_counts


def assert_matches_naive(cm, partition, node_sets):
    """Transversal, and lift data of every class union and of ``node_sets``,
    refusals included."""
    assert (outcome(connected_transversal, cm, partition)
            == outcome(naive_transversal, cm, partition))
    ctx = FoldContext(cm, partition)
    classes = partition.classes
    unions = [tuple(i for c, p in enumerate(classes) if pick >> c & 1 for i in p)
              for pick in range(1, 1 << len(classes))]
    for nodes in unions + node_sets:
        got = lift_fields(outcome(ctx.lift_data, nodes))
        assert got == lift_fields(outcome(naive_lift_data, cm, partition, nodes))


def test_lifts_and_transversals_match_naive():
    # the figures hold unions that are and are not equiconnected
    for cm, classes in ((figure1(), FIGURE1_CLASSES), (figure2(), FIGURE2_CLASSES)):
        assert_matches_naive(cm, Partition.of(cm.n, classes), [()])
    rng = random.Random(19)
    for _ in range(40):
        cm = random_simply_laced(rng, rng.randint(1, 9))
        # the oracle's enumerator lists every connected subset exactly once
        subsets = list(naive_connected_subsets(cm, cm.nodes()))
        assert len(subsets) == len(set(subsets))
        assert set(subsets) == brute_connected_subsets(cm, cm.nodes())
        count = rng.randint(1, cm.n)
        random_classes = {}
        for i in cm.nodes():
            random_classes.setdefault(rng.randrange(count), []).append(i)
        partitions = [Partition.of(cm.n, random_classes.values()),
                      orbit_partition(cm, brute_automorphisms(cm))]
        for partition in partitions:
            # with a few random node sets, which may cut a class
            assert_matches_naive(cm, partition, [
                tuple(rng.sample(cm.nodes(), rng.randint(1, cm.n))) for _ in range(3)])
    big = path_diagram(17)
    partition = Partition.of(17, [[i] for i in big.nodes()])
    got = outcome(FoldContext(big, partition).lift_data, big.nodes())
    assert got[0] is SizeLimit
    assert got == outcome(naive_lift_data, big, partition, big.nodes())


def test_lift_growth_stops_at_lifts():
    # growth takes one frontier step per connected node set that misses a
    # class and none past a lift, whose strict supersets are never minimal;
    # trying every submask of 16 nodes would take 65535 steps
    steps = 0
    original = CartanMatrix._neighbours

    def counted(self, mask):
        nonlocal steps
        steps += 1
        return original(self, mask)

    path = path_diagram(16)
    with mock.patch.object(CartanMatrix, "_neighbours", counted):
        data = FoldContext(path, Partition.of(16, [[i] for i in path.nodes()])).lift_data(
            path.nodes())
    assert data.lifts == (path.nodes(),)
    assert steps <= 135  # the 136 connected subsets of the path, less the lift
    rows = [[2 if i == j else 0 for j in range(16)] for i in range(16)]
    for k in range(16):
        rows[k][(k + 1) % 16] = rows[(k + 1) % 16][k] = -1
    cycle = validate_gcm(rows)
    reflection = [(-k) % 16 + 1 for k in range(16)]  # fixes nodes 1 and 9
    steps = 0
    with mock.patch.object(CartanMatrix, "_neighbours", counted):
        data = FoldContext(cycle, orbit_partition(cycle, [reflection])).lift_data(
            cycle.nodes())
    assert data.lifts == (tuple(range(1, 10)), (1,) + tuple(range(9, 17)))
    assert data.lean_counts == (1,) * 9
    # the 241 connected subsets of the 16-cycle, less the 57 that hold a lift
    assert steps <= 184


# -- lifts -----------------------------------------------------------------------------

def test_figure1_lean_lifts():
    ctx = FoldContext(figure1(), Partition.of(5, FIGURE1_CLASSES))
    lifts, lean, equi = ctx.lean_lifts((1, 2, 3, 4, 5))
    assert equi is True
    assert lean == ((1, 2, 3, 4), (1, 2, 3, 5))
    assert lifts == ((1, 2, 3, 4), (1, 2, 3, 5))


def test_figure2_not_equiconnected():
    ctx = FoldContext(figure2(), Partition.of(9, FIGURE2_CLASSES))
    lifts, lean, equi = ctx.lean_lifts(tuple(range(1, 10)))
    assert equi is False
    assert lean == ()
    assert lifts == ((1, 2, 3, 4, 5), (5, 6, 7, 8, 9))


def test_single_class_lift(a1aff):
    ctx = FoldContext(a1aff, Partition.of(2, [[1, 2]]))
    lifts, lean, equi = ctx.lean_lifts((1, 2))
    assert equi is True
    assert lifts == ((1,), (2,)) and lean == ((1,), (2,))


def test_lift_errors(a3):
    ctx = FoldContext(a3, Partition.of(3, [[1, 3], [2]]))
    with pytest.raises(NotClassUnion):
        ctx.lean_lifts((1, 2))
    disconnected = validate_gcm([[2, 0], [0, 2]])
    ctx2 = FoldContext(disconnected, Partition.of(2, [[1], [2]]))
    with pytest.raises(NoLift):
        ctx2.lean_lifts((1, 2))
    big = validate_gcm([[2 if i == j else -1 for j in range(17)] for i in range(17)])
    ctx3 = FoldContext(big, Partition.of(17, [[i] for i in range(1, 18)]))
    with pytest.raises(SizeLimit):
        ctx3.lean_lifts(tuple(range(1, 18)))


def test_every_lift_dominates_lean_counts():
    rng = random.Random(43)
    for _ in range(15):
        cm = symmetric_diagram(rng)
        part = orbit_partition(cm, [check_automorphism(cm, p)
                                    for p in brute_automorphisms(cm)])
        ctx = FoldContext(cm, part)
        data = ctx.lift_data(cm.nodes())
        classes = [part.classes[c] for c in data.class_indices]
        vectors = [tuple(len(set(s) & set(p)) for p in classes) for s in data.lifts]
        assert data.equiconnected  # orbit partitions of connected graphs always are
        assert data.lean_counts in vectors
        for v in vectors:
            assert all(x >= y for x, y in zip(v, data.lean_counts))


# -- folded markers ---------------------------------------------------------------------

def test_figure1_marker():
    ctx = FoldContext(figure1(), Partition.of(5, FIGURE1_CLASSES))
    pv = PVIndex(tuple(range(1, 6)), (0,) * 5)
    assert ctx.marker_exponent(pv) == (1, 1, 1, 1)


def test_a3_flip_marker(a3):
    ctx = FoldContext(a3, orbit_partition(a3, [[3, 2, 1]]))
    assert ctx.marker_exponent(PVIndex((1, 2, 3), (0, 0, 0))) == (1, 1)
    assert ctx.marker_exponent(PVIndex((1, 2, 3), (2, 1, 2))) == (3, 2)


def test_single_class_marker(a3):
    ctx = FoldContext(a3, Partition.of(3, [[1], [2], [3]]))
    assert ctx.marker_exponent(PVIndex((2,), (4,))) == (0, 5, 0)


def test_marker_errors(a3):
    ctx = FoldContext(a3, orbit_partition(a3, [[3, 2, 1]]))
    with pytest.raises(NotSymmetric):
        ctx.marker_exponent(PVIndex((1, 2, 3), (0, 0, 1)))
    fig2 = FoldContext(figure2(), Partition.of(9, FIGURE2_CLASSES))
    with pytest.raises(NotEquiconnected):
        fig2.marker_exponent(PVIndex(tuple(range(1, 10)), (0,) * 9))


def test_marker_sums_over_connected_parts(a3):
    # like the plain marker: the empty index has the zero marker, a
    # disconnected index the sum of its parts' markers, and each part must
    # be a class union
    identity = FoldContext(a3, Partition.of(3, [[1], [2], [3]]))
    assert identity.marker_exponent(PVIndex((), ())) == (0, 0, 0)
    assert identity.marker_exponent(PVIndex((1, 3), (0, 2))) == (1, 0, 3)
    flip = FoldContext(a3, orbit_partition(a3, [[3, 2, 1]]))
    assert flip.marker_exponent(PVIndex((), ())) == (0, 0)
    with pytest.raises(NotClassUnion, match=r"^\[1\] cuts the class \[1, 3\]$"):
        flip.marker_exponent(PVIndex((1, 3), (0, 0)))
    with pytest.raises(NotClassUnion):
        flip.marker_exponent(PVIndex((1, 2), (0, 0)))


def test_marker_equality_implies_equivalence():
    rng = random.Random(47)
    cm = figure1()
    ctx = FoldContext(cm, Partition.of(5, FIGURE1_CLASSES))
    unions = [(1,), (2,), (3,), (4, 5), (1, 2), (2, 3), (1, 2, 3),
              (3, 4, 5), (2, 3, 4, 5), (1, 2, 3, 4, 5)]
    samples = []
    for nodes in unions:
        if not is_connected(cm, nodes):
            continue
        for _ in range(4):
            classes = {ctx.partition.class_index(i) for i in nodes}
            pv = ctx.symmetric_index(nodes, {c: rng.randint(0, 3) for c in classes})
            try:
                samples.append((ctx.marker_exponent(pv), pv))
            except NotEquiconnected:
                pass
    for m1, p1 in samples:
        for m2, p2 in samples:
            if m1 == m2:
                assert p1 == p2


def test_symmetric_index_requires_exact_classes(a3):
    ctx = FoldContext(a3, Partition.of(3, [[1, 3], [2]]))
    assert ctx.symmetric_index((1, 2, 3), {0: 1, 1: 0}) == PVIndex((1, 2, 3), (1, 0, 1))
    for class_pairings in ({0: 1}, {0: 1, 1: 0, 5: 2}):
        with pytest.raises(DomainError, match="do not match the classes"):
            ctx.symmetric_index((1, 2, 3), class_pairings)


def test_folded_marker_coefficient_positive_and_weight_independent():
    cm = figure1()
    ctx = FoldContext(cm, Partition.of(5, FIGURE1_CLASSES))
    rng = random.Random(53)
    values = set()
    for _ in range(3):
        classes = list(range(4))
        pv = ctx.symmetric_index(tuple(range(1, 6)),
                                 {c: rng.randint(0, 2) for c in classes})
        beta = ctx.marker_exponent(pv)
        folded = ctx.fold_log_numerator(pv, sum(beta))
        values.add(folded.coefficient(beta))
    assert len(values) == 1
    assert values.pop() > 0


def test_folded_log_numerator_cache_is_shared_and_bounded():
    cm = figure1()
    partition = Partition.of(5, FIGURE1_CLASSES)
    pv = PVIndex((3, 4, 5), (0, 1, 1))
    first = FoldContext(cm, partition).fold_log_numerator(pv, 8)
    # a second context on the same matrix and partition reuses the entry
    assert FoldContext(cm, partition).fold_log_numerator(pv, 8) is first
    assert first == log_numerator(cm, pv, 8).fold(partition)
    # relabelled copies are distinct matrices, so every call adds an entry
    flip = Partition.of(2, [(1, 2)])
    for k in range(300):
        ctx = FoldContext(validate_gcm([[2, -1], [-1, 2]], [f"a{k}", f"b{k}"]), flip)
        ctx.fold_log_numerator(PVIndex((1, 2), (0, 0)), 4)
    assert _folded_log_numerator.cache_info().maxsize == 256
    assert _folded_log_numerator.cache_info().currsize == 256


def test_equal_contexts_share_lift_data():
    cm, partition = figure1(), Partition.of(5, FIGURE1_CLASSES)
    first = FoldContext(cm, partition).lift_data([3, 4, 5])
    assert FoldContext(cm, Partition.of(5, FIGURE1_CLASSES)).lift_data((5, 4, 3)) is first
    assert first == naive_lift_data(cm, partition, (3, 4, 5))
    assert not hasattr(FoldContext(cm, partition), "__dict__")  # no cache of its own
