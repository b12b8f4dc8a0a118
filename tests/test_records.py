"""The value records: immutable, compared and hashed by value, printed as
``Name(field=value, ...)``, and picklable.  They are the library's records
and those of the executable proofs in ``proofs.py``, which subclass the
same ``_Record``.  (Their validation errors are tested with each module.)
And ``import utk`` stays light: no module of utk loads ``dataclasses`` or
``typing``."""

import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import utk
from proofs import (
    CentroidReport,
    CoeffSequences,
    Split,
    coeff_sequences,
    split,
    white_leaf_centroid,
)
from utk.bounds import ChungBound, chung_lower
from utk.search import SearchLimits, SearchReport, find_min_universal_chain
from utk.shapes import JellyfishSpec, caterpillar, complete_tree, make_leaf, parse_code
from utk.tanglegrams import Tanglegram, format_tanglegram

REPORT_FIELDS = ("n", "d", "redleaf", "u_value", "minimal_shapes", "candidates_examined",
                 "wall_time", "authoritative", "limit_reason")
REPORT = SearchReport(
    n=4, d=2, redleaf=False, u_value=5,
    minimal_shapes=("((oo)(o(oo)))", "(o((oo)(oo)))"), candidates_examined=3,
    wall_time=0.25,
)

# (record, its fields in declaration order)
RECORDS = [
    (JellyfishSpec(1, 4), ("h", "ell")),
    (chung_lower(3), ("k", "evaluated", "simplified", "mast_sum")),
    (coeff_sequences(4, 3), ("d", "a", "b", "c")),
    (SearchLimits(max_candidates=50, max_seconds=1.5), ("max_candidates", "max_seconds")),
    (REPORT, REPORT_FIELDS),
    (Tanglegram(caterpillar(4), complete_tree(2), (1, 3, 0, 2)), ("left", "right", "matching")),
    (white_leaf_centroid(caterpillar(5)), ("tau", "centroids", "designated")),
]
IDS = [type(record).__name__ for record, _ in RECORDS]
# One Split record serves every arity; its binary and d-ary cases both run.
SPLIT_FIELDS = ("f1", "parts", "kind", "centroid_part")
RECORDS += [
    (split(complete_tree(3)), SPLIT_FIELDS),
    (split(parse_code("(or(oo))", arity=3), redleaf=True), SPLIT_FIELDS),
]
IDS += ["Split", "DarySplit"]


def values(record, fields):
    return tuple(getattr(record, name) for name in fields)


def rebuilt(record, fields):
    """A second, separately built record with the same field values."""
    return type(record)(*values(record, fields))


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
class TestRecord:
    def test_equal_by_value(self, record, fields):
        twin = rebuilt(record, fields)
        assert twin is not record
        assert twin == record and not twin != record
        assert record != values(record, fields)
        if not isinstance(record, CentroidReport):  # its tau is a dict
            assert hash(twin) == hash(record)

    def test_assignment_raises(self, record, fields):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert values(record, fields) == values(rebuilt(record, fields), fields)

    def test_pickle_round_trip(self, record, fields):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is type(record)
            assert back == record
            assert values(back, fields) == values(record, fields)

    def test_repr_names_every_field(self, record, fields):
        if isinstance(record, Tanglegram):
            assert repr(record) == f"Tanglegram({format_tanglegram(record)!r})"
            return
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{type(record).__name__}({shown})"


def test_shapes_pickle_as_their_code_and_stay_immutable():
    # Records hold shapes, so shapes pickle too; a code has no depth limit.
    for shape in (caterpillar(2000), caterpillar(4, arity=3), make_leaf("red")):
        back = pickle.loads(pickle.dumps(shape))
        assert (back, back.arity, back.has_red) == (shape, shape.arity, shape.has_red)
        with pytest.raises(AttributeError):
            shape.code = "o"
        with pytest.raises(AttributeError):
            del shape.code
        assert back.code == shape.code


def test_records_of_different_classes_never_compare_equal():
    # Two two-field records holding the same values.
    assert JellyfishSpec(3, 4) != SearchLimits(3, 4)
    assert SearchLimits(3, 4) != JellyfishSpec(3, 4)
    assert SearchLimits(3, 4) == SearchLimits(max_candidates=3, max_seconds=4)
    assert len({JellyfishSpec(3, 4), JellyfishSpec(3, 4), SearchLimits(3, 4)}) == 2


def test_pinned_reprs():
    assert repr(JellyfishSpec(2, 3)) == "JellyfishSpec(h=2, ell=3)"
    assert repr(SearchLimits()) == "SearchLimits(max_candidates=None, max_seconds=None)"
    assert repr(chung_lower(2)) == "ChungBound(k=2, evaluated=5, simplified=3, mast_sum=3)"
    assert repr(coeff_sequences(2)) == "CoeffSequences(d=2, a=(1, 5), b=(2, 6), c=(4, 16))"
    assert repr(split(caterpillar(3))) == (
        "Split(f1=Shape('(or)'), parts=(Shape('o'), Shape('o')), kind='universal', "
        "centroid_part=None)"
    )


def test_defaults_and_keywords():
    assert SearchLimits() == SearchLimits(None, None)
    assert REPORT.authoritative is True and REPORT.limit_reason is None
    cut = split(caterpillar(6))
    assert cut.centroid_part is None
    assert Split(cut.f1, cut.parts, cut.kind) == cut
    assert Split(f1=make_leaf("red"), parts=(make_leaf(), make_leaf()), kind="universal") \
        == Split(make_leaf("red"), (make_leaf(), make_leaf()), "universal")
    assert ChungBound(k=2, evaluated=5, simplified=3, mast_sum=3) == chung_lower(2)
    assert CoeffSequences(2, (1, 5), (2, 6), (4, 16)) == coeff_sequences(2)
    assert coeff_sequences(2)("c", 2) == 16


def test_report_json_is_byte_identical():
    # The CLI's --json output is json.dumps of to_dict(): fields in
    # declaration order, tuples as lists.
    assert json.dumps(REPORT.to_dict()) == (
        '{"n": 4, "d": 2, "redleaf": false, "u_value": 5, '
        '"minimal_shapes": ["((oo)(o(oo)))", "(o((oo)(oo)))"], '
        '"candidates_examined": 3, "wall_time": 0.25, "authoritative": true, '
        '"limit_reason": null}'
    )
    report = find_min_universal_chain(3)[-1]
    blob = json.dumps(report.to_dict())
    assert blob.startswith('{"n": 3, "d": 2, "redleaf": false, "u_value": 3, '
                           '"minimal_shapes": ["(o(oo))"], "candidates_examined": ')
    assert blob.endswith('"authoritative": true, "limit_reason": null}')
    assert tuple(report.to_dict()) == REPORT_FIELDS


def test_import_loads_no_heavy_stdlib_modules():
    # Measured on every import of the CLI: dataclasses and typing (with the
    # inspect, ast and dis they pull in) cost more than utk's own module
    # bodies.  -S keeps site and its imports out of the picture.
    src = pathlib.Path(utk.__file__).resolve().parent.parent
    probe = (
        "import sys; import utk.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'typing', 'ast', 'dis'}"
        " & set(sys.modules))))"
    )
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == ""
