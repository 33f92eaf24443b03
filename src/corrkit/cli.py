"""Command-line interface.

Subcommands: ``compute`` (coefficients for one pair), ``panel`` (batch
reports), ``synth`` (write a generated dataset), ``plot`` (SVG scatter
with the fitted separators).

Exit codes: 0 success, 1 usage error, 2 data error. All randomness is
controlled by ``--seed``, falling back to the ``CORRKIT_SEED``
environment variable and finally to the fixed default 12345, so runs
are deterministic unless a seed is chosen explicitly.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__, gcorr, harness, svgplot, synth
from .ncc import DEFAULT_BINS
from .core import CoefficientPanel, PairedSample, PanelValue, RngSeed, load_paired, save_paired
from .errors import CorrkitError

DEFAULT_SEED = 12345


class _Parser(argparse.ArgumentParser):
    """argparse maps usage problems to exit code 2 by default; this CLI
    reserves 2 for data errors, so usage failures exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_seed(value: int | None) -> RngSeed:
    if value is not None:
        return RngSeed(value)
    env = os.environ.get("CORRKIT_SEED")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise CorrkitError(f"CORRKIT_SEED must be an integer, got {env!r}") from None
        try:
            return RngSeed(value)
        except CorrkitError as exc:
            raise CorrkitError(f"CORRKIT_SEED: {exc}") from None
    return RngSeed(DEFAULT_SEED)


def _parse_params(items: list[str] | None) -> dict[str, float]:
    params: dict[str, float] = {}
    for item in items or []:
        if "=" not in item:
            raise CorrkitError(f"--param expects name=value, got {item!r}")
        name, raw = item.split("=", 1)
        try:
            params[name.strip()] = float(raw)
        except ValueError:
            raise CorrkitError(f"--param {name}: not a number: {raw!r}") from None
    return params


def _split_plan(args) -> gcorr.SplitPlan | None:
    if args.train is None and args.eval is None:
        return None
    if args.train is None or args.eval is None:
        raise CorrkitError("--train and --eval must be given together")
    return gcorr.SplitPlan(
        train_size=args.train,
        eval_size=args.eval,
        iterations=args.iters,
        seed=_resolve_seed(args.seed),
    )


def _load_input(args) -> PairedSample:
    return load_paired(args.input, args.format, args.x_col, args.y_col)


def _sample_from_args(args) -> PairedSample:
    if getattr(args, "family", None):
        spec = synth.FamilySpec(
            family=args.family,
            n=args.n,
            seed=_resolve_seed(args.seed),
            params=_parse_params(args.param),
        )
        return synth.generate(spec)
    if not args.input:
        raise CorrkitError("either --in or --family is required")
    return _load_input(args)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_compute(args) -> int:
    sample = _load_input(args)
    requested = CoefficientPanel.COLUMNS if args.all or not args.coef else args.coef
    plan = _split_plan(args)

    values: dict[str, object] = {}
    notes: dict[str, str] = {}
    errors: list[str] = []
    for name in requested:
        if name == "omega" and plan is not None:
            values["omega_mean"], values["omega_stddev"] = gcorr.estimate_g(sample, plan)
            continue
        pv = harness.coefficient(name, sample, args.b)
        if not pv.valid:
            errors.append(f"{name}: {pv.note}")
            continue
        values[name] = pv.value
        if pv.note:
            notes[name] = pv.note
    if errors:
        for line in errors:
            print(line, file=sys.stderr)
        return 2

    if args.json:
        payload = {
            "schema": harness.SCHEMA_VERSION,
            "n": sample.n,
            "coefficients": values,
            "notes": notes,
        }
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(k) for k in values)
        for name, value in values.items():
            suffix = f"  ({notes[name]})" if name in notes else ""
            print(f"{name:<{width}} = {value!r}{suffix}")
    return 0


def _cmd_panel(args) -> int:
    split = _split_plan(args)
    cfg = harness.ExperimentConfig(
        input=args.input,
        independents=tuple(args.independents.split(",")),
        dependents=tuple(args.dependents.split(",")),
        split=split,
        b=args.b,
    )
    report = harness.run_panel(cfg)
    if args.abs:
        report = _abs_view(report)
    data = harness.render_report(report, args.format)
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def _abs_view(report: harness.PanelReport) -> harness.PanelReport:
    """Absolute-value presentation of the signed coefficients."""
    rows = []
    for row in report.rows:
        values = {
            name: PanelValue(abs(pv.value) if pv.valid else pv.value, pv.valid, pv.note)
            for name, pv in row.panel.as_dict().items()
        }
        rows.append(harness.PanelRow(row.independent, row.dependent, CoefficientPanel(**values)))
    return harness.PanelReport(
        rows=tuple(rows), seed=report.seed, iterations=report.iterations
    )


def _cmd_synth(args) -> int:
    save_paired(_sample_from_args(args), args.out)
    return 0


def _cmd_plot(args) -> int:
    sample = _sample_from_args(args)
    fit = gcorr.fit_g(sample)
    title = args.family or Path(args.input).name
    svg = svgplot.render_scatter(sample, fit, title=title)
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_input_flags(parser: _Parser) -> None:
    parser.add_argument("--in", dest="input", metavar="PATH", help="input csv/jsonl file")
    parser.add_argument("--format", choices=("csv", "jsonl"), default=None)
    parser.add_argument("--x-col", default="x", help="x column name (default: x)")
    parser.add_argument("--y-col", default="y", help="y column name (default: y)")


def _add_split_flags(parser: _Parser) -> None:
    parser.add_argument("--train", type=int, default=None, help="training rows per split")
    parser.add_argument("--eval", type=int, default=None, help="evaluation rows per split")
    parser.add_argument("--iters", type=int, default=10000, help="split iterations")


def _add_family_flags(parser: _Parser, required: bool) -> None:
    parser.add_argument(
        "--family",
        choices=sorted(synth.FAMILY_DEFAULTS),
        required=required,
        default=None,
    )
    parser.add_argument("--n", type=int, default=200, help="sample size")
    parser.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="family parameter, repeatable",
    )


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by every later
    call in this interpreter, ``main`` included; ``parse_args`` keeps no
    state between calls. Callers must not add to it:
    ``build_parser.cache_clear()`` makes the next call build a fresh one."""
    parser = _Parser(prog="corrkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"corrkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    compute = sub.add_parser("compute", help="coefficients for one pair")
    _add_input_flags(compute)
    compute.add_argument("--coef", action="append", choices=CoefficientPanel.COLUMNS, default=None)
    compute.add_argument("--all", action="store_true", help="print the full panel")
    compute.add_argument("--b", type=int, default=DEFAULT_BINS, help="rank bins")
    _add_split_flags(compute)
    compute.add_argument("--seed", type=int, default=None)
    compute.add_argument("--json", action="store_true", help="json output")
    compute.set_defaults(func=_cmd_compute)

    panel = sub.add_parser("panel", help="coefficient panel per variable pair")
    panel.add_argument("--in", dest="input", metavar="PATH", required=True)
    panel.add_argument("--independents", required=True, metavar="A,B,C")
    panel.add_argument("--dependents", required=True, metavar="D,E")
    panel.add_argument("--b", type=int, default=DEFAULT_BINS)
    _add_split_flags(panel)
    panel.add_argument("--seed", type=int, default=None)
    panel.add_argument("--format", choices=("csv", "json"), default="csv")
    panel.add_argument("--abs", action="store_true", help="absolute-value view")
    panel.add_argument("--out", metavar="PATH", help="write report here (default stdout)")
    panel.set_defaults(func=_cmd_panel)

    synth_cmd = sub.add_parser("synth", help="write a generated dataset as csv")
    _add_family_flags(synth_cmd, required=True)
    synth_cmd.add_argument("--seed", type=int, default=None)
    synth_cmd.add_argument("--out", metavar="PATH", required=True)
    synth_cmd.set_defaults(func=_cmd_synth)

    plot = sub.add_parser("plot", help="SVG scatter with fitted separators")
    _add_input_flags(plot)
    _add_family_flags(plot, required=False)
    plot.add_argument("--seed", type=int, default=None)
    plot.add_argument("--out", metavar="PATH", required=True)
    plot.set_defaults(func=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors, -h, --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"corrkit: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (CorrkitError, OSError) as exc:
        print(f"corrkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
