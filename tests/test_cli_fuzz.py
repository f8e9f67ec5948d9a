"""
The command-line surface under arbitrary input: whatever arrives on stdin
or as an argument value, ``klrim`` exits 0 or 2, and writes to stderr
either nothing or exactly one ``error:`` line, never a traceback.  The
search bound stays at 8 or below, so that each example is cheap; a
composition of any size may reach every command that checks that bound
before working, and only ``rim --method closed``, which has no bound, is
kept to n <= 8.
"""
import contextlib
import io
import json

from hypothesis import assume, given, settings, strategies as st

from klrim.cli import main

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=12,
)
coordinate = st.integers(-1, 4) | st.integers()
pair = st.lists(coordinate, min_size=1, max_size=3) | json_values
nodes = st.lists(pair, max_size=8)
diagram_json = json_values | st.fixed_dictionaries({"nodes": nodes})
kpath_json = json_values | st.fixed_dictionaries({"paths": st.lists(nodes, max_size=4)})
diagram_stdin = diagram_json.map(json.dumps) | st.text(max_size=12)
kpath_stdin = kpath_json.map(json.dumps) | st.text(max_size=12)

part_text = (st.integers(-2, 8) | st.integers(9, 10**12)).map(str) | st.sampled_from(
    ["", " ", "x", "1.5", "+2", " 3", "1_0", "٣", "0x1", "2e0"]
)
composition_text = st.lists(part_text, min_size=1, max_size=8).map(",".join) | st.text(
    max_size=10
)
max_n = st.integers(-3, 8)
parts_option = st.none() | st.integers(-2, 10) | st.integers()
output_options = st.sampled_from(
    [[], ["--format", "json"], ["--format", "text"], ["--count-only"]]
)
methods = st.sampled_from(
    [[], ["--method", "search"], ["--method", "closed"], ["--method", "cross-check"]]
)


def small(text: str) -> bool:
    """The composition, if it parses, has n <= 8."""
    try:
        return sum(abs(int(p)) for p in text.split(",")) <= 8
    except ValueError:
        return True


def run(argv, stdin_text=""):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, stdin=io.StringIO(stdin_text), stdout=io.StringIO())
    return code, err.getvalue()


def assert_clean(code, err):
    # an exception escaping main fails the example on its own
    assert code in (0, 2)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


@settings(deadline=None)
@given(stdin=diagram_stdin, fmt=st.sampled_from(["json", "text"]))
def test_admissible_survives_any_stdin(stdin, fmt):
    assert_clean(*run(["admissible", "--format", fmt], stdin))


@settings(deadline=None)
@given(stdin=kpath_stdin, parts=parts_option)
def test_order_path_survives_any_stdin_and_parts(stdin, parts):
    argv = ["order-path"] + ([] if parts is None else [f"--parts={parts}"])
    assert_clean(*run(argv, stdin))


@settings(deadline=None)
@given(
    command=st.sampled_from(["rim", "cell"]),
    composition=composition_text,
    bound=max_n,
    output=output_options,
    method=methods,
)
def test_rim_and_cell_survive_any_composition_and_bound(
    command, composition, bound, output, method
):
    if command == "cell":
        method = []
    elif "closed" in method:
        assume(small(composition))
    argv = [command, f"--composition={composition}", f"--max-n={bound}"] + output
    assert_clean(*run(argv + method))
