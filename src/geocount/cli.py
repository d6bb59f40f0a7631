"""Command-line interface: fit, hotspot, simulate, report.

Exit codes: 0 success, 1 on any domain, I/O or command-line error (reported
as a single ``Code: message`` line on stderr), 2 when a fit ran but did not
converge (the result is still written).  stdout carries only the report or
summary; diagnostics go to stderr.  A warning a command raises is printed
as one ``warning: Category: message`` line on exit 0 or 2, dropped on exit 1.

Each option's ``add_argument`` in :func:`build_parser` is its one declaration.
Flag values override config-file values, which override defaults.  The optional
``--config`` JSON file is keyed by the options' names (``--out`` is ``output``;
``--spec`` and ``--fit`` are ``input``), each value checked against its option's
declaration; a key the command has no option for is refused.  CSV output quotes
ids and names with :func:`geocount.ingest.csv_field`.

Importing this module loads no scipy; a command loads the scipy parts it runs.
If that first import happens inside :func:`main`, the two warning filters scipy
adds on import (numpy's matrix ``PendingDeprecationWarning`` ignored,
``SpecialFunctionWarning`` always shown) are dropped when ``main`` returns.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .data import INFLATE_PREFIX, INTERCEPT, Dataset
from .exceptions import GeocountError, InvalidSpec, is_kind, kind_wording, read_json
from .fitting import FitResult, fit
from .ingest import IngestConfig, csv_field, read_dataset, write_dataset
from .likelihoods import Family, ModelSpec
from .simulate import DgpSpec, generate
from .spatial import DistanceBand, HotspotClass, HotspotResult, KNearest
from .spatial import build_weights, getis_ord_gstar

#: Table-style block headings for known covariate names in text reports.
COVARIATE_BLOCKS: tuple[tuple[str, tuple[str, ...]], ...] = (
    (
        "Market Concentration",
        (
            "metro",
            "nonmetro_adjacent",
            "population_density",
            "banks_per_10k",
            "savings_loans_per_10k",
        ),
    ),
    (
        "Socio-Demographic",
        (
            "pct_african_american",
            "pct_hispanic",
            "pct_bachelors",
            "pct_foreign_born",
            "poverty_rate",
        ),
    ),
    (
        "Economic",
        (
            "pct_change_households",
            "pct_owner_occupied",
            "unemployment_rate",
            "pop_employment_ratio",
            "pop_proprietorship_ratio",
        ),
    ),
    (
        "Organizations of Common Bond",
        (
            "coops_present",
            "civil_social_per_10k",
            "business_assoc_per_10k",
            "professional_assoc_per_10k",
            "labor_unions_per_10k",
        ),
    ),
)

_STAR_LEGEND = (
    "***: Significant at or above the 99.9% level.\n"
    "**: Significant at the 95.0% level.\n"
    "*: Significant at the 90.0% level.\n"
)

#: Island ids listed in the hotspot warning before it is cut short.
_ISLANDS_SHOWN = 5


# ---------------------------------------------------------------------------
# rendering


def _format_p(p: float) -> str:
    # display floor at 0.0001; exact values live in the JSON output
    return f"({max(p, 0.0001):.4f})"


def render_fit_text(result: FitResult) -> str:
    """Coefficient table with block headings for recognized covariate names.  Names are
    unique: each block pops its rows by name, then the intercept, and the rest keep their order."""
    rows = {r.name: r for r in result.coefficients}
    blocks = [(heading, [rows.pop(n) for n in names if n in rows])
              for heading, names in COVARIATE_BLOCKS]
    inflation = [rows.pop(n)._replace(name=n[len(INFLATE_PREFIX):])
                 for n in [n for n in rows if n.startswith(INFLATE_PREFIX)]]
    intercept = [rows.pop(INTERCEPT)] if INTERCEPT in rows else []
    ordered = [(None, intercept + [*rows.values()]), *((h, hit) for h, hit in blocks if hit)]
    if inflation:
        ordered.append(("Zero-Inflation Component", inflation))

    width = max(
        [len("Variable")]
        + [len(r.name) for _, rows in ordered for r in rows]
        + [len(h) for h, _ in ordered if h]
    )
    lines = [
        f"Family: {result.family.value}",
        f"Log-likelihood: {result.log_likelihood:.6f}",
        f"Iterations: {result.iterations}   Converged: {'yes' if result.converged else 'no'}",
        "",
        f"{'Variable':<{width}}  {'Estimate':>10}  {'Stars':<5}  (p-value)",
    ]
    for heading, rows in ordered:
        if heading:
            lines.append(heading)
        for r in rows:
            indent = "  " if heading else ""
            name = f"{indent}{r.name}"
            lines.append(
                f"{name:<{width}}  {r.estimate:>10.4f}  {r.stars:<5}  {_format_p(r.p_value)}"
            )
    lines.append("")
    lines.append(_STAR_LEGEND.rstrip("\n"))
    return "\n".join(lines) + "\n"


def render_fit_csv(result: FitResult) -> str:
    lines = ["name,estimate,std_error,z_stat,p_value,stars"]
    for r in result.coefficients:
        numbers = ",".join(map(repr, (r.estimate, r.std_error, r.z_stat, r.p_value)))
        lines.append(f"{csv_field(r.name)},{numbers},{r.stars}")
    return "\n".join(lines) + "\n"


def render_fit_json(result: FitResult) -> str:
    return json.dumps(result.to_dict(), indent=2) + "\n"


def render_hotspot_csv(dataset: Dataset, result: HotspotResult) -> str:
    """One ``id,z,class`` line per unit.  A class is a ``str`` holding its value,
    so ``join`` writes the value."""
    lines = ["id,z,class"]
    lines += map(",".join, zip(map(csv_field, dataset.ids), map(repr, result.z.tolist()),
                               result.classes))
    return "\n".join(lines) + "\n"


#: One feature of ``json.dumps(doc, indent=2)`` for the GeoJSON document:
#: longitude, latitude, then the JSON text of the id, z and class label.
_GEOJSON_FEATURE = """\
    {
      "type": "Feature",
      "geometry": {
        "type": "Point",
        "coordinates": [
          %r,
          %r
        ]
      },
      "properties": {
        "id": %s,
        "z": %s,
        "class": %s
      }
    }"""


def render_hotspot_geojson(dataset: Dataset, result: HotspotResult) -> str:
    """RFC 7946 points, the text ``json.dumps(doc, indent=2)`` gives.

    Centroids are validated finite, so ``repr`` writes them as ``json`` does.
    The z column goes through one ``json.dumps`` call, so a non-finite z in a
    result built by hand is spelled as ``json`` spells it.
    """
    labels = {cls: json.dumps(cls.value) for cls in HotspotClass}
    z_text = json.dumps(result.z.tolist())[1:-1].split(", ")
    lat, lon = dataset.centroids().T.tolist()
    # json.dumps of a str is encode_basestring_ascii of it
    ids = map(json.encoder.encode_basestring_ascii, dataset.ids)
    features = ",\n".join(map(_GEOJSON_FEATURE.__mod__, zip(
        lon, lat, ids, z_text, map(labels.__getitem__, result.classes))))
    body = f"\n{features}\n  " if features else ""
    return f'{{\n  "type": "FeatureCollection",\n  "features": [{body}]\n}}\n'


# ---------------------------------------------------------------------------
# commands


def _require(config: argparse.Namespace, *names) -> None:
    for name in names:
        if getattr(config, name) in (None, ""):
            raise InvalidSpec(f"{config.command}: required option {name!r} is missing")


def cmd_fit(config: argparse.Namespace) -> int:
    _require(config, "input", "output", "family")
    dataset = read_dataset(config.input, IngestConfig(standardize=config.standardize))
    result = fit(ModelSpec(config.family, config.covariates, config.inflation_covariates), dataset)
    render = {"text": render_fit_text, "csv": render_fit_csv, "json": render_fit_json}
    Path(config.output).write_text(render[config.format](result), encoding="utf-8")
    print(
        f"fit {result.family.value}: converged={'yes' if result.converged else 'no'} "
        f"loglik={result.log_likelihood:.6f} -> {config.output}"
    )
    if not result.converged:
        print("fit did not converge within the iteration budget", file=sys.stderr)
        return 2
    return 0


def _scheme(weights: str) -> DistanceBand | KNearest:
    """The weights scheme ``band:KM`` or ``knn:K`` that ``weights`` names."""
    kind, _, value = weights.partition(":")
    try:
        number = {"band": float, "knn": int}[kind](value)
    except (KeyError, ValueError):
        message = f"bad weights scheme {weights!r}; expected band:KM or knn:K"
        raise InvalidSpec(message) from None
    return DistanceBand(number) if kind == "band" else KNearest(number)


def cmd_hotspot(config: argparse.Namespace) -> int:
    _require(config, "input", "output", "weights")
    scheme = _scheme(config.weights)
    dataset = read_dataset(config.input, IngestConfig())
    if config.value_column == "count":
        values = dataset.counts()
    else:
        values = dataset.covariate_values(config.value_column)
    weights = build_weights(dataset.centroids(), scheme)
    islands = weights.summary().islands
    if islands:
        shown = ", ".join(dataset.ids[i] for i in islands[:_ISLANDS_SHOWN])
        more = ", ..." if len(islands) > _ISLANDS_SHOWN else ""
        print(
            f"hotspot: warning: {len(islands)} of {weights.n} units have no neighbor "
            f"(islands; their z uses no neighborhood values): {shown}{more}",
            file=sys.stderr,
        )
    result = getis_ord_gstar(values, weights)
    render = {"csv": render_hotspot_csv, "geojson": render_hotspot_geojson}
    Path(config.output).write_text(render[config.format](dataset, result), encoding="utf-8")
    count = result.classes.count
    n_hot = count(HotspotClass.HOT_99) + count(HotspotClass.HOT_95)
    n_cold = count(HotspotClass.COLD_99) + count(HotspotClass.COLD_95)
    print(f"hotspot: n={weights.n} hot={n_hot} cold={n_cold} -> {config.output}")
    return 0


def cmd_simulate(config: argparse.Namespace) -> int:
    _require(config, "input", "output")
    spec = DgpSpec.from_dict(_load_json(config.input, "simulate: spec"))
    if config.seed is not None:
        spec = dataclasses.replace(spec, seed=config.seed)
    dataset = generate(spec)
    write_dataset(dataset, config.output)
    counts = dataset.counts()
    zero_share = float(np.mean(counts == 0))
    print(f"simulate: n={len(dataset)} zero_share={zero_share:.4f} mean_count={counts.mean():.4f}")
    return 0


def cmd_report(config: argparse.Namespace) -> int:
    _require(config, "input")
    result = FitResult.from_dict(_load_json(config.input, "report: fit result"))
    sys.stdout.write(render_fit_text(result))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and config-file merge


def _name_list(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


class _Parser(argparse.ArgumentParser):
    """Ends a bad command line with ``InvalidSpec``, not argparse's usage text and exit code 2."""

    commands: dict[str, argparse.ArgumentParser]  # each command's parser, set by build_parser

    def error(self, message):
        raise InvalidSpec(message)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: each option's one declaration, also read for ``--config``."""
    parser = _Parser(
        prog="geocount",
        description="Count-data location models and hot-spot analysis for geo-tagged counties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p_fit = sub.add_parser("fit", help="fit a logit, Poisson, or ZIP model to a CSV table")
    p_fit.set_defaults(run=cmd_fit)
    p_fit.add_argument("--input", help="input dataset CSV")
    p_fit.add_argument("--family", choices=[f.value for f in Family])
    p_fit.add_argument(
        "--covariates", type=_name_list, default=(), help="comma-separated covariate names"
    )
    p_fit.add_argument(
        "--inflation-covariates", type=_name_list, default=(), help="ZIP inflation covariates"
    )
    p_fit.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=False)
    p_fit.add_argument("--out", dest="output", help="output path for the coefficient table")
    p_fit.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p_hot = sub.add_parser("hotspot", help="Getis-Ord hot/cold-spot z-scores")
    p_hot.set_defaults(run=cmd_hotspot)
    p_hot.add_argument("--input", help="input dataset CSV")
    p_hot.add_argument("--value-column", default="count")
    p_hot.add_argument("--weights", help="band:KM or knn:K")
    p_hot.add_argument("--out", dest="output")
    p_hot.add_argument("--format", choices=("csv", "geojson"), default="csv")

    p_sim = sub.add_parser("simulate", help="draw a synthetic dataset from a DGP spec")
    p_sim.set_defaults(run=cmd_simulate)
    p_sim.add_argument("--spec", dest="input", metavar="SPEC", help="DgpSpec JSON document")
    p_sim.add_argument("--out", dest="output", help="output dataset CSV")
    p_sim.add_argument("--seed", type=int)

    p_rep = sub.add_parser("report", help="render a saved fit result")
    p_rep.set_defaults(run=cmd_report)
    p_rep.add_argument(
        "--fit", dest="input", metavar="FIT", help="fit result JSON produced by fit --format json"
    )

    for p in (p_fit, p_hot, p_sim, p_rep):
        p.add_argument("--config", help="JSON config file keyed by the option names")
    return parser


def _load_json(path: str, what: str):
    """The JSON document in the file ``path`` (see ``exceptions.read_json``)."""
    return read_json(Path(path).read_bytes(), f"{what} {path!r}")


def _options(command: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """A command's options a user can set, by config key (the dest): all but help and config."""
    return {a.dest: a for a in command._actions if a.dest not in ("help", "config")}


def _check_config_value(key: str, action: argparse.Action, value) -> None:
    """Refuse a config-file value that ``action``'s option could not take."""
    if action.choices is not None:
        ok, expected = value in action.choices, f"one of {list(action.choices)}"
    else:
        flag = isinstance(action, argparse.BooleanOptionalAction)
        kind = bool if flag else {int: int, _name_list: (str,), None: str}[action.type]
        ok, expected = is_kind(value, kind), kind_wording(kind)
    if not ok:
        raise InvalidSpec(f"config file: {key!r} must be {expected}, got {value!r}")


def parse_args(argv=None) -> argparse.Namespace:
    """The command's options: flags, else the ``--config`` file, else the declared defaults.

    The checked file values become the command's defaults for a second parse of ``argv``.
    """
    parser = build_parser()
    config = parser.parse_args(argv)
    if not config.config:
        return config
    doc = _load_json(config.config, "config file")
    if not is_kind(doc, dict):
        raise InvalidSpec("config file must be a JSON object")
    command = parser.commands[config.command]
    options = _options(command)
    for key, value in doc.items():
        if key not in options:
            if not any(key in _options(p) for p in parser.commands.values()):
                raise InvalidSpec(f"config file: unknown key {key!r}")
            raise InvalidSpec(f"config file: {config.command} takes no option {key!r}")
        if value is not None:
            _check_config_value(key, options[key], value)
    command.set_defaults(**{key: value for key, value in doc.items() if value is not None})
    return parser.parse_args(argv)


def main(argv=None) -> int:
    with warnings.catch_warnings(record=True) as caught:
        try:
            config = parse_args(argv)
            code = config.run(config)
        except GeocountError as exc:
            print(f"{exc.code}: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"IOError: {exc}", file=sys.stderr)
            return 1
    for record in caught:
        print(f"warning: {record.category.__name__}: {record.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
