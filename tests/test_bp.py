import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracount.bp import bp_accepts, bp_count_acc, bp_count_fast, is_deterministic_given_inputs
from paracount.errors import CountingError, LimitExceeded
from paracount.oracles import check_read_once_certified, stagger
from paracount.programs import bp_from_json, bp_to_json, validate_bp
from paracount.selftest import rand_ordered_bp
from paracount.walks import log_gate_passes


def simple_x_tester():
    """Reads x_1; only the 1-edge leads to the sink."""
    return validate_bp(
        [[0], [1]], {0: ("x", 1)}, [(0, 1, 1)], 1, 0, 0, 1
    )


def y_root(both_edges=True, num_y=1):
    edges = [(0, 1, 1)] + ([(0, 1, 0)] if both_edges else [])
    return validate_bp([[0], [1]], {0: ("y", 1)}, edges, 0, num_y, 0, 1)


def test_validate_two_layer_deterministic():
    p = validate_bp([[0], [1]], {0: ("x", 1)}, [(0, 1, 0), (0, 1, 1)], 1, 0, 0, 1)
    assert is_deterministic_given_inputs(p)


def test_validate_rejects_same_layer_edge():
    with pytest.raises(CountingError) as err:
        validate_bp([[0, 1]], {0: ("x", 1)}, [(0, 1, 0)], 1, 0, 0, 1)
    assert err.value.code == "not-layered"


def test_validate_rejects_bad_bit():
    for bit in (2, None, True, 1.0):
        with pytest.raises(CountingError) as err:
            validate_bp([[0], [1]], {0: ("x", 1)}, [(0, 1, bit)], 1, 0, 0, 1)
        assert err.value.code == "bad-bit-label"


@pytest.mark.parametrize("label, bit", [
    (("x",), 1),
    ("x", 1),
    (("y", 1, 2), 1),
    (("pass", 5), None),
])
def test_validate_refuses_label_shapes(label, bit):
    # Only ("pass",), ("x", i) and ("y", i) are labels; each edge bit here fits the label's kind.
    with pytest.raises(CountingError) as err:
        validate_bp([[0], [1]], {0: label}, [(0, 1, bit)], 1, 1, 0, 1)
    assert err.value.code == "bad-label"


def test_validate_rejects_misplaced_source():
    with pytest.raises(CountingError) as err:
        validate_bp([[0], [1]], {0: ("x", 1)}, [(0, 1, 1)], 1, 0, 1, 1)
    assert err.value.code == "source-sink-misplaced"


@pytest.mark.parametrize("layers, labels, edges, source, sink", [
    ([[0], [1.9]], {0: ("x", 1)}, [(0, 1.9, 1)], 0, 1),
    ([[0], [1]], {0: ("x", 1)}, [(0, 1.9, 1)], 0, 1),
    ([[0], [True]], {0: ("x", 1)}, [(0, True, 1)], 0, True),
    ([[0], [1]], {True: ("x", 1)}, [(0, 1, 1)], 0, 1),
    ([[0], [1]], {0: ("x", 1)}, [(0, 1, 1)], 0.0, 1),
    ([[0], [1]], {0: ("x", 1)}, [(0, 1, 1)], 0, "1"),
    ([[0], [1]], {0: ("x", 1.0)}, [(0, 1, 1)], 0, 1),
])
def test_validate_refuses_numbers_that_are_not_ints(layers, labels, edges, source, sink):
    with pytest.raises(CountingError) as err:
        validate_bp(layers, labels, edges, 1, 0, source, sink)
    assert err.value.code == "not-an-integer"


def test_accepts_x_tester():
    p = simple_x_tester()
    assert bp_accepts(p, [1], [])
    assert not bp_accepts(p, [0], [])  # missing edge means reject


def test_accepts_empty_path_program():
    p = validate_bp([[0]], {}, [], 2, 1, 0, 0)
    assert bp_accepts(p, [0, 1], [0])
    assert bp_accepts(p, [1, 1], [1])


def test_accepts_y_root():
    p = y_root()
    assert bp_accepts(p, [], [0]) and bp_accepts(p, [], [1])


def test_width_mismatch():
    for run in (lambda p, x: bp_accepts(p, x, []), bp_count_acc, bp_count_fast):
        with pytest.raises(CountingError) as err:
            run(simple_x_tester(), [1, 0])
        assert err.value.code == "width-mismatch"
        assert err.value.message == "got |x| = 2, |y| = 0, expected 1, 0"


def falling_read(*extra_edges):
    """Reads y_2, then y_1, so it is outside the read-once model; plus ``extra_edges``."""
    return validate_bp([[0], [1], [2]], {0: ("y", 2), 1: ("y", 1)},
                       [(0, 1, 0), (0, 1, 1), (1, 2, 0), (1, 2, 1), *extra_edges],
                       0, 2, 0, 2)


@pytest.mark.parametrize("run, program, x, code", [
    # acc: determinism, then the limit, then the widths
    (lambda p, x: bp_count_acc(p, x, limit=1), falling_read((0, 2, 0)), [1], "not-deterministic"),
    (lambda p, x: bp_count_acc(p, x, limit=1), falling_read(), [1], "limit-exceeded"),
    # fast: the widths, then determinism, then the read order
    (bp_count_fast, falling_read((0, 2, 0)), [1], "width-mismatch"),
    (bp_count_fast, falling_read((0, 2, 0)), [], "not-deterministic"),
], ids=["acc-determinism", "acc-limit", "fast-widths", "fast-determinism"])
def test_each_count_keeps_its_order_of_checks(run, program, x, code):
    with pytest.raises(CountingError) as err:
        run(program, x)
    assert err.value.code == code


def test_count_acc_examples():
    assert bp_count_acc(y_root(both_edges=True), []) == 2
    assert bp_count_acc(y_root(both_edges=False), []) == 1
    # an unread y bit doubles the count
    assert bp_count_acc(y_root(both_edges=True, num_y=2), []) == 4
    assert bp_count_acc(y_root(both_edges=False, num_y=2), []) == 2
    # the 2^numY assignments are charged against the limit up front
    p = y_root(both_edges=True, num_y=2)
    assert bp_count_acc(p, [], limit=2**p.num_y) == 4
    with pytest.raises(LimitExceeded):
        bp_count_acc(p, [], limit=2**p.num_y - 1)
    with pytest.raises(LimitExceeded):  # 2^24 is above the default cap
        bp_count_acc(y_root(num_y=24), [])


def test_count_acc_rejects_nondeterministic_program():
    p = validate_bp(
        [[0], [1, 2], [3]],
        {0: ("y", 1), 1: ("pass",), 2: ("pass",)},
        [(0, 1, 1), (0, 2, 1), (1, 3, None), (2, 3, None)],
        0,
        1,
        0,
        3,
    )
    with pytest.raises(CountingError) as err:
        bp_count_acc(p, [])
    assert err.value.code == "not-deterministic"


def test_certificate_example():
    p = validate_bp(
        [[0], [1], [2], [3]],
        {0: ("pass",), 1: ("y", 1), 2: ("y", 2)},
        [(0, 1, None), (1, 2, 0), (1, 2, 1), (2, 3, 0), (2, 3, 1)],
        0,
        2,
        0,
        3,
    )
    assert check_read_once_certified(p) == (0, 1, 2)


def test_certificate_refuses_falling_variables():
    p = validate_bp(
        [[0], [1], [2], [3]],
        {0: ("pass",), 1: ("y", 2), 2: ("y", 1)},
        [(0, 1, None), (1, 2, 0), (1, 2, 1), (2, 3, 0), (2, 3, 1)],
        0,
        2,
        0,
        3,
    )
    assert check_read_once_certified(p) is None  # y_2 at layer 1, then y_1 at layer 2


def test_certificate_degenerate_without_y_nodes():
    p = simple_x_tester()
    assert check_read_once_certified(p) == (0,)  # numY = 0: just i_0


@st.composite
def labelled_layers(draw):
    """2 to 7 layers of 1 to 3 nodes, each labelled x_1, pass or some y_j with
    numY <= 4.  The check reads only layers and labels, so there are no edges."""
    num_y = draw(st.integers(0, 4))
    kinds = [("x", 1), ("pass",)] + [("y", j) for j in range(1, num_y + 1)]
    layers, labels = [], {}
    for size in draw(st.lists(st.integers(1, 3), min_size=2, max_size=7)):
        layers.append(list(range(len(labels), len(labels) + size)))
        labels.update((v, draw(st.sampled_from(kinds))) for v in layers[-1])
    return validate_bp(layers, labels, [], 1, num_y, 0, draw(st.sampled_from(layers[-1])))


def bands(p, cuts):
    """Whether ``cuts`` rise strictly and put each y_j read in layers
    [cuts[j - 1], cuts[j]]; the sink's label is not a read."""
    reads = [(i, p.label_of(v)[1]) for i, layer in enumerate(p.layers) for v in layer
             if p.label_of(v)[0] == "y" and v != p.sink]
    return all(a < b for a, b in zip(cuts, cuts[1:])) and all(
        cuts[j - 1] <= i <= cuts[j] for i, j in reads)


@settings(max_examples=300, deadline=None)
@given(labelled_layers())
def test_certificate_exists_exactly_when_some_cuts_band_the_reads(p):
    # Cut layers are at least 0, and capping cut j at the top layer plus j
    # keeps any banding one, so these sequences hold a banding if any exists.
    candidates = itertools.combinations(range(len(p.layers) + p.num_y), p.num_y + 1)
    cuts = check_read_once_certified(p)
    assert (cuts is not None) == any(bands(p, c) for c in candidates)
    if cuts is not None:
        assert len(cuts) == p.num_y + 1 and bands(p, cuts)


def test_stagger_identity_on_certified_program():
    p = y_root()
    assert stagger(p) is p


def test_stagger_rejects_out_of_order_reads():
    # y_1 read at layers 1 and 3 with y_2 between them on the same path
    p = validate_bp(
        [[0], [1], [2], [3], [4]],
        {0: ("pass",), 1: ("y", 1), 2: ("y", 2), 3: ("y", 1)},
        [
            (0, 1, None),
            (1, 2, 0), (1, 2, 1),
            (2, 3, 0), (2, 3, 1),
            (3, 4, 0), (3, 4, 1),
        ],
        0,
        2,
        0,
        4,
    )
    with pytest.raises(CountingError) as err:
        stagger(p)
    assert err.value.code == "order-property-violated"


def branching_uncertified_program():
    """Two branches: one reads y_1 then y_2 early, the other reads y_1 at a
    layer after the first branch's y_2; orderable per path but y_2's
    occurrence sits strictly below a y_1 occurrence, so no certificate."""
    return validate_bp(
        [[0], [1, 2], [3, 4], [5], [6]],
        {
            0: ("x", 1),
            1: ("y", 1), 2: ("pass",),
            3: ("y", 2), 4: ("pass",),
            5: ("y", 1),
        },
        [
            (0, 1, 0),
            (0, 2, 1),
            (1, 3, 0), (1, 3, 1),
            (2, 4, None),
            (3, 6, 0), (3, 6, 1),
            (4, 5, None),
            (5, 6, 0), (5, 6, 1),
        ],
        1,
        2,
        0,
        6,
    )


def test_stagger_rebuilds_uncertified_program():
    p = branching_uncertified_program()
    assert check_read_once_certified(p) is None
    staggered = stagger(p)
    assert check_read_once_certified(staggered) is not None
    for x in ([0], [1]):
        assert bp_count_acc(staggered, x) == bp_count_acc(p, x)
        assert bp_count_fast(staggered, x) == bp_count_acc(p, x)


def test_stagger_preserves_counts_randomly():
    rng = random.Random(61)
    for _ in range(120):
        p = rand_ordered_bp(rng)
        staggered = stagger(p)
        assert check_read_once_certified(staggered) is not None
        for mask in range(2 ** p.num_x):
            x = [(mask >> i) & 1 for i in range(p.num_x)]
            assert bp_count_acc(staggered, x) == bp_count_acc(p, x)


def test_count_fast_examples():
    assert bp_count_fast(y_root(both_edges=True, num_y=2), []) == 4
    none_accepting = validate_bp(
        [[0], [1]], {0: ("x", 1)}, [], 1, 1, 0, 1
    )
    assert bp_count_fast(none_accepting, [1]) == 0
    assert bp_count_acc(none_accepting, [1]) == 0


def test_count_fast_matches_enumeration_randomly():
    # rand_ordered_bp draws uncertified programs too; the counter takes them
    # as they are, and after staggering.
    rng = random.Random(62)
    for _ in range(120):
        p = rand_ordered_bp(rng)
        staggered = stagger(p)
        for mask in range(2 ** p.num_x):
            x = [(mask >> i) & 1 for i in range(p.num_x)]
            assert bp_count_fast(p, x) == bp_count_fast(staggered, x) == bp_count_acc(p, x)


def test_count_fast_requires_increasing_reads():
    # No band certificate is asked for: every path of this program reads y
    # in increasing order, so it is counted as it is.
    p = branching_uncertified_program()
    assert check_read_once_certified(p) is None
    for x in ([0], [1]):
        assert bp_count_fast(p, x) == bp_count_acc(p, x) == 4
    # Certified and deterministic, but reads y_1 twice.
    read_twice = validate_bp(
        [[0], [1], [2]],
        {0: ("y", 1), 1: ("y", 1)},
        [(0, 1, 0), (0, 1, 1), (1, 2, 0), (1, 2, 1)],
        0,
        1,
        0,
        2,
    )
    decreasing = falling_read()  # deterministic, but reads y_2 before y_1
    # Ordered but not deterministic: x_1 = 0 leaves the root on both edges.
    two_edges = validate_bp(p.layers, dict(p.labels), [*p.edges, (0, 2, 0)], 1, 2,
                            p.source, p.sink)
    for q, code in ((read_twice, "precondition-violated"),
                    (decreasing, "precondition-violated"),
                    (two_edges, "not-deterministic")):
        with pytest.raises(CountingError) as err:
            bp_count_fast(q, [0] * q.num_x)
        assert err.value.code == code


def random_layered_program(rng, banded):
    """Small program with random labels and random later-layer edges.

    Labels repeat freely, so a path may read y indices out of order or
    twice.  With ``banded`` the y index never falls from layer to layer,
    which makes a read-once certificate likely.  Every node offers at most
    one edge per bit value.
    """
    num_x, num_y = rng.randint(1, 2), rng.randint(1, 3)
    sizes = [1] + [rng.randint(1, 3) for _ in range(rng.randint(0, 4))] + [1]
    layers, start = [], 0
    for size in sizes:
        layers.append(list(range(start, start + size)))
        start += size
    layer_y = sorted(rng.randint(1, num_y) for _ in layers)
    labels = {}
    for i, layer in enumerate(layers):
        for v in layer:
            kind = rng.choice("yyxp")
            if kind == "y":
                labels[v] = ("y", layer_y[i] if banded else rng.randint(1, num_y))
            elif kind == "x":
                labels[v] = ("x", rng.randint(1, num_x))
            else:
                labels[v] = ("pass",)
    edges = []
    for i, layer in enumerate(layers[:-1]):
        later = [v for nodes in layers[i + 1:] for v in nodes]
        for u in layer:
            bits = [None] if labels[u][0] == "pass" else [0, 1]
            edges += [(u, rng.choice(later), bit) for bit in bits if rng.random() < 0.8]
    return validate_bp(layers, labels, edges, num_x, num_y, 0, layers[-1][0])


def y_reads_per_path(p):
    """The y indices read along each source-to-sink path, by brute force; the
    sink's label is not a read, since acceptance only asks that it be reached."""
    out = p.out_edges()

    def walk(node, reads):
        label = p.label_of(node)
        if label[0] == "y" and node != p.sink:
            reads = reads + [label[1]]
        if node == p.sink:
            yield reads
        for v, _ in out.get(node, []):
            yield from walk(v, reads)

    return list(walk(p.source, []))


def refusal_code(fn, *args):
    try:
        fn(*args)
    except CountingError as err:
        return err.code
    return None


def test_read_order_checks_match_path_enumeration():
    rng = random.Random(63)
    seen = {"stagger": set(), "fast": set()}
    for trial in range(600):
        p = random_layered_program(rng, banded=trial % 2 == 1)
        paths = y_reads_per_path(p)
        out_of_order = any(reads != sorted(set(reads)) for reads in paths)
        code = refusal_code(stagger, p)
        assert code == ("order-property-violated" if out_of_order else None)
        seen["stagger"].add(code)
        if code is None:
            staggered = stagger(p)
            assert check_read_once_certified(staggered) is not None
            for x in itertools.product((0, 1), repeat=p.num_x):
                assert bp_count_fast(staggered, x) == bp_count_acc(p, x)
        if is_deterministic_given_inputs(p):
            code = refusal_code(bp_count_fast, p, [0] * p.num_x)
            assert code == ("precondition-violated" if out_of_order else None)
            seen["fast"].add(code)
            if code is None:
                for x in itertools.product((0, 1), repeat=p.num_x):
                    assert bp_count_fast(p, x) == bp_count_acc(p, x)
    # Both outcomes of both checks were reached.
    assert seen == {
        "stagger": {None, "order-property-violated"},
        "fast": {None, "precondition-violated"},
    }


def source_sink_edges(p):
    """The edges on some source-to-sink path, by brute-force path enumeration."""
    out = p.out_edges()
    kept = set()

    def walk(node, path):
        if node == p.sink:
            kept.update(path)
        for v, bit in out.get(node, []):
            walk(v, path + [(node, v, bit)])

    walk(p.source, [])
    return kept


def test_stagger_keeps_only_the_source_sink_subgraph():
    # A rebuilt program is p's source-sink subgraph behind one fresh pass
    # source: no node or edge is added on the way.
    rng = random.Random(64)
    rebuilt = 0
    for trial in range(600):
        if trial % 3:
            p = random_layered_program(rng, banded=trial % 2 == 1)
        else:
            p = rand_ordered_bp(rng)
        if refusal_code(stagger, p) is not None:
            continue
        staggered = stagger(p)
        kept = source_sink_edges(p)
        if staggered is p or not kept:
            continue
        rebuilt += 1
        nodes = {u for e in kept for u in e[:2]}
        assert len(staggered.nodes()) == len(nodes) + 1
        assert nodes | {staggered.source} == set(staggered.nodes())
        assert len(staggered.edges) == len(kept) + 1
        assert set(staggered.edges) == kept | {(staggered.source, p.source, None)}
    assert rebuilt > 50


def test_stagger_handles_late_variable_at_source():
    # The source reads y_3 at layer 0, below any feasible band for y_1/y_2;
    # staggering must prepend delay and re-band.
    p = validate_bp(
        [[0], [1]], {0: ("y", 3)}, [(0, 1, 0), (0, 1, 1)], 0, 4, 0, 1
    )
    assert check_read_once_certified(p) is None
    staggered = stagger(p)
    assert check_read_once_certified(staggered) is not None
    assert bp_count_acc(staggered, []) == bp_count_acc(p, []) == 16
    assert bp_count_fast(staggered, []) == 16


@pytest.mark.parametrize("sink_label", [{1: ("y", 1)}, {}])
def test_sink_label_is_not_a_read(sink_label):
    # The source reads y_2; a y_1 label on the sink reads nothing, since
    # acceptance only asks that the sink be reached.
    p = validate_bp([[0], [1]], {0: ("y", 2), **sink_label}, [(0, 1, 0), (0, 1, 1)],
                    0, 2, 0, 1)
    staggered = stagger(p)
    assert check_read_once_certified(staggered) is not None
    assert bp_count_fast(staggered, []) == bp_count_acc(p, []) == 4


def test_stagger_program_without_accepting_paths():
    p = validate_bp(
        [[0], [1], [2]],
        {0: ("x", 1), 1: ("y", 1)},
        [(0, 1, 0), (0, 1, 1)],
        1,
        1,
        0,
        2,
    )
    staggered = stagger(p)
    for x in ([0], [1]):
        assert bp_count_acc(staggered, x) == bp_count_acc(p, x) == 0
        assert bp_count_fast(staggered, x) == 0


def test_k_bounded_predicate():
    # The bounded-nondeterminism predicate numY <= f(k) * ceil(log2 numX).
    assert log_gate_passes(4, 2, 4)
    assert not log_gate_passes(5, 2, 4)
    assert log_gate_passes(2, 2, 2)  # size term floored at 2


def test_bp_json_roundtrip():
    p = branching_uncertified_program()
    assert bp_from_json(bp_to_json(p)) == p
    bad = bp_to_json(p)
    bad["extra"] = 1
    with pytest.raises(CountingError):
        bp_from_json(bad)


@pytest.mark.parametrize("key", ["1_0", " 0", "0 ", "+1", "01", "-0", "1.0", "", "x", "١"])
def test_bp_label_keys_must_be_canonical_node_ids(key):
    doc = bp_to_json(validate_bp([[0], [10]], {}, [(0, 10, None)], 1, 0, 0, 10))
    doc["labels"] = {key: {"x": 1}}
    with pytest.raises(CountingError) as err:
        bp_from_json(doc)
    assert err.value.code == "not-an-integer" and repr(key) in str(err.value)
