"""Command-line front end.

Four commands over the library. Each maps its input to a header and a list
of rows; `main` writes them, as CSV (default) or JSON, to stdout or `--out`:

- ``eval``     decompose one distribution given as inline JSON or a file;
- ``panel``    decompose the built-in illustrative set of binary
               second-order distributions (overridable via ``--panel-file``);
- ``curve``    run a Bayesian learning curve and emit one row per sample size;
- ``ensemble`` score a file of member predictions.

The CLI performs no arithmetic of its own: every reported number is the
corresponding library call's value, formatted to 9 significant digits in
CSV. Identical arguments (including the seed) produce byte-identical
output. Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .distributions import (
    Dirichlet,
    EmpiricalEnsemble,
    FiniteMixture,
    IntervalUniform,
    PointMass,
    _frozen,
    _probability_rows,
    validate,
)
from .ensemble import ensemble_decompose
from .errors import ConsistencyFailure, DimensionMismatch, DistributionError, EmptyEnsemble, IntegrationFailure, InvalidSpec
from .integrate import EngineConfig
from .measures import aleatoric_bounds, decompose
from .simulate import DEFAULT_SCHEDULE, learning_curve

EVAL_HEADER = ("name", "total", "aleatoric", "epistemic", "alea_lower", "alea_upper", "error_bound")
PANEL_HEADER = ("name", "total", "aleatoric", "epistemic")
CURVE_HEADER = ("n", "total", "aleatoric", "epistemic", "total_minus_epistemic")


def _builtin_panels() -> list[tuple[str, object]]:
    half = PointMass((0.5, 0.5))
    dirac0 = PointMass((0.0, 1.0))
    dirac1 = PointMass((1.0, 0.0))
    return [
        ("uniform_full", IntervalUniform(0.0, 1.0)),
        ("dirac_half", half),
        ("uniform_03_10", IntervalUniform(0.3, 1.0)),
        ("uniform_03_07", IntervalUniform(0.3, 0.7)),
        ("uniform_06_10", IntervalUniform(0.6, 1.0)),
        ("dirac_mixture_01", FiniteMixture((0.5, 0.5), (dirac0, dirac1))),
    ]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".9g")


def _emit(header: tuple[str, ...], rows: list[dict], args) -> None:
    """Write the header's columns of each row, in header order, as CSV or JSON."""
    table = [[row[col] for col in header] for row in rows]
    if args.format == "json":
        text = json.dumps([dict(zip(header, values)) for values in table], indent=2) + "\n"
    else:
        lines = [",".join(header), *(",".join(map(_fmt, values)) for values in table)]
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"not valid JSON: {exc}") from exc
    except RecursionError:  # the decoder recurses once per nesting level
        raise InvalidSpec("JSON nested too deeply") from None


def _load_spec(arg: str) -> dict:
    return _parse_json(arg if arg.lstrip().startswith("{") else Path(arg).read_text())


def _triple_row(triple, bounds=None) -> dict:
    """The triple's fields, plus alea_lower and alea_upper given `bounds`; `_emit` picks columns."""
    row = asdict(triple)
    if bounds is not None:
        row.update(alea_lower=bounds.lower, alea_upper=bounds.upper)
    return row


def cmd_eval(args) -> tuple[tuple[str, ...], list[dict]]:
    Q = validate(_load_spec(args.spec))
    triple = decompose(Q, unit=args.unit, normalized=not args.raw, config=EngineConfig(seed=args.seed))
    bounds = aleatoric_bounds(Q, unit=args.unit, normalized=not args.raw)
    return EVAL_HEADER, [{"name": Q.kind, **_triple_row(triple, bounds)}]


def cmd_panel(args) -> tuple[tuple[str, ...], list[dict]]:
    engine = EngineConfig(seed=args.seed)
    if args.panel_file:
        entries = _parse_json(Path(args.panel_file).read_text())
        if not isinstance(entries, list):
            raise InvalidSpec("panel file must hold a JSON list of {name, spec} objects")
        panels = []
        for entry in entries:
            if not isinstance(entry, dict) or "name" not in entry or "spec" not in entry:
                raise InvalidSpec(f"panel entry must have 'name' and 'spec', got {entry!r}")
            panels.append((str(entry["name"]), validate(entry["spec"])))
    else:
        panels = _builtin_panels()
    rows = []
    for name, Q in panels:
        triple = decompose(Q, unit=args.unit, normalized=not args.raw, config=engine)
        rows.append({"name": name, **_triple_row(triple)})
    return PANEL_HEADER, rows


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidSpec(f"{what} must be a comma-separated list of numbers, got {text!r}") from exc


def cmd_curve(args) -> tuple[tuple[str, ...], list[dict]]:
    curve = learning_curve(
        _parse_floats(args.theta_star, "--theta-star"),
        prior=Dirichlet(_parse_floats(args.prior, "--prior")),
        schedule=_parse_floats(args.schedule, "--schedule"),
        replications=args.replications,
        seed=args.seed,
        unit=args.unit,
        normalized=not args.raw,
    )
    rows = [
        {"n": p.n, **_triple_row(p.triple), "total_minus_epistemic": p.total_minus_epistemic}
        for p in curve
    ]
    return CURVE_HEADER, rows


def parse_member_matrix(text: str) -> np.ndarray:
    """Parse the plain-text member format, one member per line, into a read-only (M, K) matrix.

    Probabilities are whitespace-separated; blank lines and ``#`` comments
    are skipped. Each line is validated on its own, so parse and validation
    errors, and a row of another length than the first, name its 1-based line.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append(_probability_rows([float(tok) for tok in line.split()], ndim=1))
        except DistributionError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from exc
        except ValueError as exc:  # a token that float() rejects
            raise InvalidSpec(f"line {lineno}: not a probability row: {line!r}") from exc
        if rows[-1].size != rows[0].size:
            raise DimensionMismatch(f"line {lineno}: {rows[-1].size} entries, the first row has {rows[0].size}")
    if not rows:
        raise EmptyEnsemble("no member rows found")
    return _frozen(rows)


def cmd_ensemble(args) -> tuple[tuple[str, ...], list[dict]]:
    text = Path(args.members).read_text()
    if text.lstrip().startswith("{"):
        spec = _load_spec(text)
        if spec.get("kind") != "ensemble":
            raise InvalidSpec(f"expected an ensemble spec, got kind {spec.get('kind')!r}")
        ensemble = validate(spec)
    else:
        ensemble = EmpiricalEnsemble(parse_member_matrix(text))
    triple = ensemble_decompose(ensemble, unit=args.unit, normalized=not args.raw)
    bounds = aleatoric_bounds(ensemble, unit=args.unit, normalized=not args.raw)
    name = f"ensemble_M{ensemble.m}_K{ensemble.k}"
    return EVAL_HEADER, [{"name": name, **_triple_row(triple, bounds)}]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secondorder",
        description="Entropy-based uncertainty decomposition for second-order distributions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--unit", choices=("bits", "nats"), default="bits")
    common.add_argument(
        "--raw", action="store_true", help="report raw values instead of normalizing by log K"
    )
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="decompose one distribution")
    p_eval.add_argument("spec", help="inline JSON spec or path to a JSON file")
    p_eval.set_defaults(func=cmd_eval)

    p_panel = sub.add_parser("panel", parents=[common], help="decompose the built-in panel set")
    p_panel.add_argument("--panel-file", default=None, help="JSON list of {name, spec} overrides")
    p_panel.set_defaults(func=cmd_panel)

    p_curve = sub.add_parser("curve", parents=[common], help="Bayesian learning curve")
    p_curve.add_argument("--theta-star", default="0.3,0.7", help="ground-truth outcome probabilities")
    p_curve.add_argument("--prior", default="1,1", help="Dirichlet prior counts")
    p_curve.add_argument(
        "--schedule",
        default=",".join(str(n) for n in DEFAULT_SCHEDULE),
        help="strictly increasing sample sizes, starting at 0",
    )
    p_curve.add_argument("--replications", type=int, default=200)
    p_curve.set_defaults(func=cmd_curve)

    p_ens = sub.add_parser("ensemble", parents=[common], help="score a member-prediction file")
    p_ens.add_argument("members", help="text matrix (one member per line) or ensemble JSON file")
    p_ens.set_defaults(func=cmd_ensemble)

    # Each command takes only the options it reads.
    for p in (p_eval, p_panel, p_curve):
        p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A NaN that numpy makes is a numerical failure, not a warning on stderr.
        with np.errstate(invalid="raise"):
            header, rows = args.func(args)
        _emit(header, rows, args)
    except (DistributionError, OSError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationFailure, ConsistencyFailure, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
