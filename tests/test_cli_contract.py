"""The CLI exit-code contract holds for arbitrary input.

Every run ends with 0 (result), 3 (no result), 1 (usage error) or 2 (data
error, with an ``error: <category>: `` line on stderr); no exception
escapes ``main``.  Inputs are hostile expression text, and graph and
catalog documents whose records carry random subsets of the real keys with
values of random type, or raw bytes.
"""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from moondec.cli import main
from moondec.errors import MoondecError
from moondec.parsing import parse_ratfun
from conftest import DATA_DIR

ERROR_LINE = re.compile(r"^error: [a-z-]+: ", re.MULTILINE)
CONTRACT = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)
# the verbs that run the relation search or refinement, and export, take
# fewer examples each, to keep the suite short
CONTRACT_SHORT = settings(CONTRACT, max_examples=120)

ATOMS = st.sampled_from(["x", "1", "2", "x+1", "x^2-3"])
EXPRESSIONS = st.text(alphabet="x0123456789²٣+-*/^() ", max_size=30) | \
    st.recursive(ATOMS, lambda inner: st.tuples(
        inner, st.sampled_from("+-*/"), inner).map(lambda t: "(%s)%s(%s)" % t)
        | st.tuples(inner, st.integers(0, 4)).map(lambda t: "(%s)^%d" % t),
        max_leaves=4)
ANY = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)

SERIES = ["0"] * 8
GRAPH_TEMPLATES = [
    {"type": "node", "name": "A", "origin": "catalog", "coeffs": SERIES},
    {"type": "node", "name": "B", "origin": "synthetic", "coeffs": SERIES},
    {"type": "node", "name": "C", "coeffs": ["1/3", "-2"]},
    {"type": "edge", "from": "A", "to": "B", "d": 2, "r": 1, "f": "x^2"},
    {"type": "edge", "from": "A", "to": "C", "d": 4, "r": 1, "f": "x^4"},
    {"type": "edge", "from": "C", "to": "B", "d": 2, "r": 2,
     "f": "(x^2+1)/x"},
]
# the bundled pair, renamed: A(q) = f(B(q)) with deg f = 2
CATALOG_TEMPLATES = [
    {**json.loads(line), "name": name} for name, line in zip(
        "AB", (DATA_DIR / "synthetic_pair.jsonl").read_text().splitlines())
] + [{"name": "C", "area": "1/2", "coeffs": ["744", "-1/3"], "lead": "1"}]


def _broken(templates):
    """A template record with some keys dropped and some values replaced
    by values of random type."""
    keys = sorted({k for t in templates for k in t})
    return st.builds(
        lambda rec, dropped, replaced: {
            **{k: v for k, v in rec.items() if k not in dropped}, **replaced},
        st.sampled_from(templates), st.sets(st.sampled_from(keys)),
        st.dictionaries(st.sampled_from(keys), ANY | EXPRESSIONS))


def _documents(templates):
    """Some template records in random order, with at most one broken
    record or line of arbitrary JSON among them; or raw bytes."""
    def build(records, extra, at):
        records = list(records)
        if extra is not None:
            records.insert(at % (len(records) + 1), extra)
        return "\n".join(json.dumps(r) for r in records).encode()

    return st.builds(
        build, st.lists(st.sampled_from(templates), unique_by=id),
        st.none() | _broken(templates) | ANY, st.integers(0, 8)) \
        | st.binary(max_size=80)


def _check(argv):
    # a TextIOWrapper: export writes bytes to sys.stdout.buffer
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 2:
        assert ERROR_LINE.search(err.getvalue()), (argv, err.getvalue())


def _check_with_file(data, *argv):
    """_check on argv with "{}" replaced by the path of a file of data and
    "{dir}" by a directory for the files a verb writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.jsonl")
        with open(path, "wb") as handle:
            handle.write(data)
        _check([a.format(path, dir=tmp) for a in argv])


@CONTRACT
@given(EXPRESSIONS, st.booleans())
def test_decompose_contract(text, chains):
    try:
        if parse_ratfun(text).degree > 8:
            return  # keeps the run short; the parser has already run
    except MoondecError:
        pass  # main must report the same error as a data error
    _check(["decompose", text] + (["--chains"] if chains else []))


@CONTRACT
@given(_documents(GRAPH_TEMPLATES))
def test_chains_contract(data):
    _check_with_file(data, "chains", "--in", "{}", "--from", "A", "--to", "B")


@CONTRACT
@given(_documents(CATALOG_TEMPLATES))
def test_relate_contract(data):
    _check_with_file(data, "relate", "--catalog", "{}", "--from", "A",
                     "--to", "B")


@CONTRACT_SHORT
@given(_documents(CATALOG_TEMPLATES))
def test_graph_build_contract(data):
    _check_with_file(data, "graph-build", "--catalog", "{}", "--out",
                     "{dir}/graph.jsonl", "--report", "{dir}/report.jsonl",
                     "--emax", "4")


@CONTRACT_SHORT
@given(_documents(GRAPH_TEMPLATES))
def test_graph_refine_contract(data):
    _check_with_file(data, "graph-refine", "--in", "{}", "--out",
                     "{dir}/refined.jsonl", "--report", "{dir}/report.jsonl")


@CONTRACT_SHORT
@given(_documents(CATALOG_TEMPLATES))
def test_modpoly_contract(data):
    _check_with_file(data, "modpoly", "--catalog", "{}", "--target", "B",
                     "--emax", "4")


@CONTRACT_SHORT
@given(_documents(GRAPH_TEMPLATES), st.sampled_from(["dot", "jsonlines"]))
def test_export_contract(data, fmt):
    _check_with_file(data, "export", "--in", "{}", "--format", fmt)
