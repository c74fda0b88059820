"""Fuzzing `cli.main`: any argv exits 0, 2 or 3, and never with a traceback.

Arguments are drawn from a fixed vocabulary of commands and flags, with JSON
specs of every kind, valid and malformed. Curve sizes stay small (5
replications, schedule entries up to 100), so each example runs in
milliseconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secondorder.cli import main

NUMBERS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 50.0),
    st.sampled_from([0.0, 1.0, -0.5, 5e-324, 1e-300, 1e-3, 1e308, float("inf"), float("nan")]),
    st.integers(-3, 10),
)
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=4), NUMBERS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=5), inner, max_size=3)
    ),
    max_leaves=8,
)
UNIT = st.one_of(st.floats(0.0, 1.0), NUMBERS)
KINDS = ("point", "dirichlet", "interval_uniform", "mixture", "ensemble")


def _probs(k):
    """Probability vectors of length k, some with zero cells."""
    return st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k).filter(lambda xs: sum(xs) > 0).map(
        lambda xs: [x / sum(xs) for x in xs]
    )


PROBS = st.integers(2, 4).flatmap(_probs)
VECTORS = st.one_of(PROBS, st.lists(NUMBERS, min_size=1, max_size=6), JUNK)
MEMBERS = st.integers(2, 4).flatmap(lambda k: st.lists(_probs(k), min_size=1, max_size=4))


def _choice(valid, invalid):
    """Mostly one of `valid`, sometimes one of `invalid`."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(invalid if i == 0 else valid))


def _mostly(values):
    """Mostly `values`, sometimes any JSON value."""
    return st.integers(0, 7).flatmap(lambda i: JUNK if i == 0 else values)


def _spec(components):
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("point"), "theta": _mostly(VECTORS)}),
        st.fixed_dictionaries({"kind": st.just("dirichlet"), "alpha": _mostly(VECTORS)}),
        st.fixed_dictionaries(
            {"kind": st.just("interval_uniform"), "lo": _mostly(UNIT), "hi": _mostly(UNIT)}
        ),
        st.lists(components, min_size=1, max_size=3).flatmap(
            lambda comps: st.fixed_dictionaries(
                {"kind": st.just("mixture"), "components": st.just(comps),
                 "weights": _mostly(st.one_of(st.just([1.0 / len(comps)] * len(comps)), VECTORS))}
            )
        ),
        st.fixed_dictionaries({"kind": st.just("ensemble"), "members": _mostly(MEMBERS)}),
        # a spec missing a field, or of an unknown kind
        st.dictionaries(st.sampled_from(["kind", "theta", "alpha", "lo", "weights"]),
                        st.one_of(st.sampled_from(KINDS), JUNK), max_size=3),
    )


SPECS = st.recursive(_spec(JUNK), _spec, max_leaves=4)


@st.composite
def spec_texts(draw):
    spec = json.dumps(draw(SPECS))
    cut = draw(st.sampled_from(["whole"] * 6 + ["truncated", "deep"]))
    if cut == "truncated":
        return spec[: draw(st.integers(1, len(spec)))]
    if cut == "deep":
        depth = draw(st.sampled_from([5, 70, 100_000]))
        return '{"kind": "point", "theta": ' + "[" * depth + "0.5" + "]" * depth + "}"
    return spec


def _csv(values):
    return st.lists(values, max_size=5).map(lambda xs: ",".join(map(str, xs)))


VALUES = {
    "--unit": _choice(["bits", "nats"], ["furlongs"]),
    "--format": _choice(["csv", "json"], ["xml"]),
    "--out": _choice(["@OUT"], ["@DIR"]),
    "--seed": _choice(["0", "1", "7", str(2**70)], ["-1", "x"]),
    "--replications": _choice(["1", "2", "5"], ["0", "-1", "x"]),
    "--schedule": st.one_of(
        st.lists(st.integers(1, 100), max_size=4, unique=True).map(
            lambda xs: ",".join(map(str, [0, *sorted(xs)]))
        ),
        _csv(st.one_of(st.integers(-2, 100), st.sampled_from(["1.5", "nan", "inf", "x", " "]))),
    ),
    "--theta-star": st.one_of(PROBS, st.lists(NUMBERS, max_size=5)).map(lambda xs: ",".join(map(repr, xs))),
    "--prior": _csv(NUMBERS),
    "--raw": None,  # a switch
}
COMMON = ("--unit", "--raw", "--format", "--out")
# Flags a command may draw besides the size flags, which it always gets, so the
# default 200 x 13 curve points never run.
TAKES = {
    "eval": (*COMMON, "--seed"),
    "panel": (*COMMON, "--seed"),
    "curve": (*COMMON, "--seed", "--theta-star", "--prior"),
    "ensemble": COMMON,
    "bogus": (),
}
SIZES = {"curve": ("--replications", "--schedule")}


@st.composite
def member_files(draw):
    if draw(st.booleans()):
        return draw(spec_texts())
    rows = draw(st.one_of(MEMBERS, st.lists(st.lists(NUMBERS, min_size=1, max_size=4), max_size=4)))
    lines = [" ".join(map(repr, row)) for row in rows]
    return "\n".join(lines + draw(st.lists(st.sampled_from(["# note", "", "x y", "0.5 nan"]), max_size=2)))


@st.composite
def panel_files(draw):
    if draw(st.booleans()):
        return draw(spec_texts())
    entries = draw(st.lists(
        st.one_of(st.fixed_dictionaries({"name": st.text(max_size=4), "spec": SPECS}), JUNK), max_size=3
    ))
    return json.dumps(entries)


@st.composite
def invocations(draw):
    """An argv plus the text of the input file it names, if any."""
    command = draw(st.sampled_from(sorted(TAKES)))
    argv, file_text = [command], None
    if command == "eval":
        argv.append(draw(_choice(["@SPEC", "@SPEC", "@FILE"], ["", "missing.json"])))
        if argv[-1] == "@SPEC":
            argv[-1] = draw(spec_texts())
        elif argv[-1] == "@FILE":
            file_text = draw(spec_texts())
    elif command == "ensemble":
        argv.append("@FILE")
        file_text = draw(member_files())
    elif command == "panel" and draw(st.booleans()):
        argv += ["--panel-file", "@FILE"]
        file_text = draw(panel_files())
    flags = [*SIZES.get(command, ()), *draw(st.lists(st.sampled_from(TAKES[command] or COMMON),
                                                      max_size=4, unique=True))]
    if draw(st.integers(0, 7)) == 0:  # a flag the command may not take
        flags.append(draw(st.sampled_from(sorted(VALUES))))
    for flag in flags:
        argv += [flag] if VALUES[flag] is None else [flag, draw(VALUES[flag])]
    return argv, file_text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200)
@given(invocation=invocations())
def test_main_exits_0_2_or_3_without_traceback(workdir, invocation):
    argv, file_text = invocation
    paths = {"@FILE": workdir / "input", "@OUT": workdir / "out.txt", "@DIR": workdir}
    if file_text is not None:
        paths["@FILE"].write_text(file_text)
    argv = [str(paths[a]) if a in paths else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects unknown commands and flags with 2
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
