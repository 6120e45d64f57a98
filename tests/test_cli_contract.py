"""The exit-code contract under fuzzed argv and fuzzed input files.

``main`` either returns 0, 1, 2 or 3, or argparse exits with 0 (help) or 2
(usage); no other exception escapes, and a returned 2 or 3 comes with
exactly one stderr line.  Genera stay at most 3 and ``--trials`` at most 3,
so every example runs in milliseconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from bcjcalc.cli import main

GENUS_TOKENS = ["1", "2", "3", "1..3", "0", "33", "3..1", "x"]

junk = st.sampled_from([None, True, False, 1.5, "1", -1, 0, [], {}])
# a line break in a label must not split the one stderr line
labels = st.sampled_from(["", "z1", "é", "a\nb"])
keys = st.sampled_from(["", "genus", "entries", "type", "basis", "matrix", "x"])
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(), labels),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(keys, inner, max_size=3)
    ),
    max_leaves=10,
)
# mostly a valid document, sometimes one with a field missing or junk
valid_first = st.integers(0, 3).map(bool)


def noisy(fields: dict):
    return st.fixed_dictionaries({}, optional=fields)


def unit(g: int, p: int) -> list[int]:
    return [int(i == p) for i in range(2 * g)]


def catalogs(g: int):
    """Catalog documents at genus g, their bases built on standard handle
    pairs, so a catalog without junk is valid."""
    basis = st.sets(st.integers(1, g), max_size=2).map(
        lambda handles: [[unit(g, i - 1), unit(g, g + i - 1)] for i in sorted(handles)]
    )
    vector = st.one_of(
        st.lists(st.integers(-2, 2), min_size=2 * g, max_size=2 * g),
        st.lists(st.one_of(st.integers(0, 1), junk), max_size=2 * g + 1),
        junk,
    )
    valid_entry = st.one_of(
        st.fixed_dictionaries(
            {"type": st.just("separating"), "basis": basis},
            optional={"label": labels, "integral": st.booleans()},
        ),
        st.fixed_dictionaries(
            {"type": st.just("bp"), "basis": basis, "C": st.just([0] * (2 * g))},
            optional={"label": labels},
        ),
    )
    noisy_entry = st.one_of(
        noisy({
            "type": st.sampled_from(["separating", "bp", "x"]),
            "basis": st.one_of(basis, st.lists(st.lists(vector, max_size=3), max_size=2), junk),
            "C": vector,
            "label": st.one_of(labels, json_values),
            "integral": st.one_of(st.booleans(), junk),
        }),
        json_values,
    )
    entries = st.lists(
        valid_first.flatmap(lambda ok: valid_entry if ok else noisy_entry), max_size=3
    )
    return valid_first.flatmap(
        lambda ok: st.fixed_dictionaries({"genus": st.just(g), "entries": entries})
        if ok
        else noisy({
            "genus": st.one_of(st.just(g), junk, st.integers(-1, 40)),
            "entries": st.one_of(entries, junk, json_values),
        })
    )


@st.composite
def linking_matrices(draw, g: int):
    """Linking-matrix documents at genus g: the standard model, perhaps with
    a few entries changed, rows cut short or a field replaced by junk."""
    n = 2 * g
    rows = [[int(q < g and p == g + q) for q in range(n)] for p in range(n)]
    changes = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.one_of(st.integers(-2, 2), junk)
    )
    for p, q, value in draw(st.lists(changes, max_size=2)):
        rows[p][q] = value
    if draw(valid_first):
        return {"genus": g, "matrix": rows}
    return draw(noisy({
        "genus": st.one_of(st.just(g), junk, st.integers(-1, 40)),
        "matrix": st.one_of(st.just(rows), st.just(rows[:-1]), junk, json_values),
    }))


documents = st.one_of(
    st.sampled_from([catalogs(g) for g in (1, 2, 3)]).flatmap(lambda s: s),
    st.integers(1, 3).flatmap(linking_matrices),
).map(lambda doc: json.dumps(doc).encode())
raw_documents = st.sampled_from([b"", b"{", b"\xff\xfe", b"[" * 40 + b"]" * 40, b"[1, 2]"])

# argv tokens standing for files; the test puts real paths in their place
FILES = ["DOC", "MISSING", "DIR"]
OUTS = ["OUT", "BAD-OUT", "DIR"]
FORMATS = ["json", "csv", "md", "xml"]
FLAGS = {
    "dims": [("--format", FORMATS)],
    "orbits": [("--format", FORMATS)],
    "eval": [("--format", FORMATS)],
    "search": [
        ("--max-support", ["1", "2", "3", "0", "x"]),
        ("--no-sp-closure", [None]),
    ],
    "verify": [
        ("--trials", ["1", "2", "3", "0", "x"]),
        ("--seed", ["0", "7", "-1", "x"]),
        ("--exhaustive-mu", [None]),
        ("--linking-matrix", FILES),
    ],
}


@st.composite
def argvs(draw):
    """Argument lists over every command, none of which runs above genus 3;
    each flag is left out or given one value (None: a bare flag)."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command == "eval":
        argv.append(draw(st.sampled_from(FILES)))
    elif draw(st.integers(0, 9)):
        argv += ["--g", draw(st.sampled_from(GENUS_TOKENS))]
    for flag, values in FLAGS[command] + [("--out", OUTS)]:
        if draw(st.booleans()):
            value = draw(st.sampled_from(values))
            argv += [flag] if value is None else [flag, value]
    if not draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(["--bogus", "--help", "extra"])))
    return argv


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    return {
        "DOC": str(root / "doc.json"),
        "MISSING": str(root / "missing.json"),
        "DIR": str(root),
        "OUT": str(root / "out.txt"),
        "BAD-OUT": str(root / "no-such-dir" / "out.txt"),
    }


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, exc.code)
            code = None
    assert code in (None, 0, 1, 2, 3), (argv, code)
    if code in (2, 3):
        assert len(err.getvalue().strip().splitlines()) == 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@settings(max_examples=120, deadline=None)
@given(argv=argvs(), document=st.one_of(documents, raw_documents))
def test_fuzzed_argv_keeps_the_exit_contract(paths, argv, document):
    with open(paths["DOC"], "wb") as fh:
        fh.write(document)
    assert_contract([paths.get(token, token) for token in argv])


@settings(max_examples=150, deadline=None)
@given(
    document=st.one_of(documents, raw_documents),
    genus=st.sampled_from(["1", "2", "3"]),
    use_as_catalog=st.booleans(),
)
def test_fuzzed_documents_keep_the_exit_contract(paths, document, genus, use_as_catalog):
    with open(paths["DOC"], "wb") as fh:
        fh.write(document)
    if use_as_catalog:
        assert_contract(["eval", paths["DOC"], "--format", "json"])
    else:
        assert_contract(["verify", "--g", genus, "--trials", "1", "--linking-matrix", paths["DOC"]])
