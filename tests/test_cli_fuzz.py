"""Property test of the CLI contract on mutated input documents.

Each example takes a valid document of one kind, makes one mutation at one
place in its JSON tree (drops a key or list item, repeats a list item in
place, or puts in a value of another type, NaN, +-inf, a boolean or a small
integer from -3..12), and feeds it to every subcommand that reads that kind
of document through ``cli.main``.  The contract: exit 0 or 2, at most one
line on stderr, no exception escapes and no warning is emitted.  The small
integers keep every example cheap: no degree or dimension is large enough to
be slow.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monogenic import serialize
from monogenic.cli import main
from monogenic.operators import op_to_hom
from monogenic.verify import random_rational_operator, random_rational_series

EXACT = serialize.series_to_obj(random_rational_series(2, 2, 3))
FLOAT = serialize.series_to_obj(random_rational_series(2, 2, 4).to_float(), "float")
OPERATOR = serialize.operator_to_obj(random_rational_operator(2, 2, 1, 5))
HOM = serialize.homtable_to_obj(op_to_hom(random_rational_operator(2, 1, 1, 6), 1))
NORMS = serialize.log_norms_to_obj(2, {(1, 0): 0.5, (0, 2): -1.0, (2, 1): -2.5})
CONFIG = {
    "n": 2,
    "seed": 1,
    "corruption": None,
    "only": ["gauge-supermultiplicativity"],
}

SERIES_COMMANDS = [
    ["eval", "IN", "--point", "0.5,0.25,-0.5"],
    ["--mode", "exact", "eval", "IN", "--point", "1/2,1/4,-1/2"],
    ["diff", "IN", "--index", "1,0", "--out", "OUT"],
    ["--samples", "8", "growth", "IN", "--po", "loglog:1:1", "--window", "1:3", "--sigma", "1",
     "--out", "OUT"],
    ["ckprod", "IN", "IN", "--degree", "3", "--out", "OUT"],
    ["apply", "P", "IN", "--degree", "3", "--out", "OUT"],
]

#: document kind -> (valid document, commands that read it as IN)
DOCUMENTS = {
    "series-exact": (EXACT, SERIES_COMMANDS),
    "series-float": (FLOAT, SERIES_COMMANDS),
    "operator": (
        OPERATOR,
        [
            ["op2hom", "IN", "--degree", "2", "--out", "OUT"],
            ["apply", "IN", "F", "--degree", "3", "--out", "OUT"],
        ],
    ),
    "hom-table": (HOM, [["hom2op", "IN", "--out", "OUT"]]),
    "norms": (NORMS, [["growth", "IN", "--po", "constant:1", "--window", "1:3", "--out", "OUT"]]),
    "verify-config": (CONFIG, [["verify", "--config", "IN", "--out", "OUT"]]),
}

VALUES = st.one_of(
    st.sampled_from([None, "x", "", [], {}, [1], {"": 1}, 0.5, True, False]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-3, 12),
)


def _paths(doc, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and list indices."""
    yield prefix
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, child in items:
            yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, kind):
    doc = copy.deepcopy(DOCUMENTS[kind][0])
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["drop", "repeat", "put"] if isinstance(parent, list) else ["drop", "put"]))
    if action == "drop":
        del parent[path[-1]]
    elif action == "repeat":  # a repeated index entry or list element
        parent.insert(path[-1], copy.deepcopy(parent[path[-1]]))
    else:
        parent[path[-1]] = draw(VALUES)
    return doc


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    return code, stderr.getvalue(), caught


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.sampled_from(sorted(DOCUMENTS)))
def test_mutated_documents_keep_the_cli_contract(data, kind):
    doc = data.draw(mutated(kind))
    with tempfile.TemporaryDirectory() as work:
        files = {name: os.path.join(work, name) for name in ("IN", "OUT", "P", "F")}
        with open(files["IN"], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        serialize.write_file(files["P"], OPERATOR)
        serialize.write_file(files["F"], FLOAT)
        for command in DOCUMENTS[kind][1]:
            argv = [files.get(arg, arg) for arg in command]
            code, err, caught = _run(argv)
            assert code in (0, 2), (argv, doc, err)
            assert err.count("\n") <= 1 and "Traceback" not in err, (argv, doc, err)
            assert not caught, (argv, doc, [str(w.message) for w in caught])
