"""Command-line interface: fit, hotspot, simulate, report.

Exit codes: 0 success, 1 on any domain or I/O error (reported as a single
``Code: message`` line on stderr), 2 when a fit ran but did not converge
(the result is still written).  stdout carries only the report or summary;
diagnostics go to stderr.

Flag values override config-file values, which override defaults.  The
optional ``--config`` JSON file is keyed by the options' names (``--out`` is
``output``; ``--spec`` and ``--fit`` are ``input``); see ``_CONFIG_TYPES``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .data import Dataset
from .exceptions import GeocountError, InvalidSpec
from .fitting import INFLATE_PREFIX, FitResult, fit
from .ingest import IngestConfig, read_dataset, write_dataset
from .likelihoods import Family, ModelSpec
from .simulate import dgp_spec_from_json, generate
from .spatial import DistanceBand, HotspotResult, KNearest, build_weights, getis_ord_gstar

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
    """Coefficient table with block headings for recognized covariate names."""
    count_rows = [r for r in result.coefficients if not r.name.startswith(INFLATE_PREFIX)]
    inflate_rows = [r for r in result.coefficients if r.name.startswith(INFLATE_PREFIX)]

    by_name = {r.name: r for r in count_rows}
    placed = set()
    intercept = [by_name["Intercept"]] if "Intercept" in by_name else []
    placed.update(r.name for r in intercept)
    blocks = []
    for heading, names in COVARIATE_BLOCKS:
        hit = [by_name[n] for n in names if n in by_name]
        if hit:
            blocks.append((heading, hit))
            placed.update(r.name for r in hit)
    rest = [r for r in count_rows if r.name not in placed]
    ordered: list[tuple[str | None, list]] = [(None, intercept + rest)] + blocks
    if inflate_rows:
        stripped = [r._replace(name=r.name[len(INFLATE_PREFIX):]) for r in inflate_rows]
        ordered.append(("Zero-Inflation Component", stripped))

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
        lines.append(
            f"{r.name},{r.estimate!r},{r.std_error!r},{r.z_stat!r},{r.p_value!r},{r.stars}"
        )
    return "\n".join(lines) + "\n"


def render_fit_json(result: FitResult) -> str:
    return json.dumps(result.to_dict(), indent=2) + "\n"


def render_hotspot_csv(dataset: Dataset, result: HotspotResult) -> str:
    lines = ["id,z,class"]
    for obs_id, z, cls in zip(dataset.ids, result.z.tolist(), result.classes):
        lines.append(f"{obs_id},{z!r},{cls.value}")
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
    labels = {cls: json.dumps(cls.value) for cls in set(result.classes)}
    z_text = json.dumps(result.z.tolist())[1:-1].split(", ")
    features = ",\n".join(
        _GEOJSON_FEATURE % (lon, lat, json.dumps(obs_id), z, labels[cls])
        for obs_id, (lat, lon), z, cls in zip(
            dataset.ids, dataset.centroids().tolist(), z_text, result.classes
        )
    )
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
    model = ModelSpec(
        family=Family(config.family),
        count_covariates=config.covariates,
        inflation_covariates=config.inflation_covariates,
        add_intercept=True,
    )
    result = fit(model, dataset)
    renderers = {"text": render_fit_text, "csv": render_fit_csv, "json": render_fit_json}
    fmt = config.format or "text"
    if fmt not in renderers:
        raise InvalidSpec(f"fit: unknown format {fmt!r}")
    rendered = renderers[fmt](result)
    with open(config.output, "w", encoding="utf-8") as handle:
        handle.write(rendered)
    print(
        f"fit {result.family.value}: converged={'yes' if result.converged else 'no'} "
        f"loglik={result.log_likelihood:.6f} -> {config.output}"
    )
    if not result.converged:
        print("fit did not converge within the iteration budget", file=sys.stderr)
        return 2
    return 0


def _scheme(config: argparse.Namespace) -> DistanceBand | KNearest:
    """The weights scheme: ``weights`` (flag or file) first, then ``band_km``, then ``k``."""
    if config.weights is not None:
        kind, _, value = config.weights.partition(":")
        try:
            number = {"band": float, "knn": int}[kind](value)
        except (KeyError, ValueError):
            raise InvalidSpec(
                f"bad weights scheme {config.weights!r}; expected band:KM or knn:K"
            ) from None
        return DistanceBand(number) if kind == "band" else KNearest(number)
    if config.band_km is not None:
        return DistanceBand(float(config.band_km))
    if config.k is not None:
        return KNearest(config.k)
    raise InvalidSpec("hotspot: a weights scheme (band:KM or knn:K) is required")


def cmd_hotspot(config: argparse.Namespace) -> int:
    _require(config, "input", "output")
    scheme = _scheme(config)
    dataset = read_dataset(config.input, IngestConfig())
    if config.value_column == "count":
        values = dataset.counts().astype(float)
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
    renderers = {"csv": render_hotspot_csv, "geojson": render_hotspot_geojson}
    fmt = config.format or "csv"
    if fmt not in renderers:
        raise InvalidSpec(f"hotspot: unknown format {fmt!r}")
    rendered = renderers[fmt](dataset, result)
    with open(config.output, "w", encoding="utf-8") as handle:
        handle.write(rendered)
    n_hot = sum(1 for c in result.classes if c.value.startswith("Hot"))
    n_cold = sum(1 for c in result.classes if c.value.startswith("Cold"))
    print(f"hotspot: n={weights.n} hot={n_hot} cold={n_cold} -> {config.output}")
    return 0


def cmd_simulate(config: argparse.Namespace) -> int:
    _require(config, "input", "output")
    spec = dgp_spec_from_json(_read_text(config.input, "simulate: spec"))
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
    payload = _load_json(config.input, "report: fit result")
    try:
        result = FitResult.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"report: not a fit result document: {exc}") from exc
    sys.stdout.write(render_fit_text(result))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and config-file merge


def _name_list(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geocount",
        description="Count-data location models and hot-spot analysis for geo-tagged counties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a logit, Poisson, or ZIP model to a CSV table")
    p_fit.add_argument("--input", help="input dataset CSV")
    p_fit.add_argument("--family", choices=_FAMILY_NAMES)
    p_fit.add_argument("--covariates", type=_name_list, help="comma-separated covariate names")
    p_fit.add_argument("--inflation-covariates", type=_name_list, help="ZIP inflation covariates")
    p_fit.add_argument("--standardize", action=argparse.BooleanOptionalAction)
    p_fit.add_argument("--out", dest="output", help="output path for the coefficient table")
    p_fit.add_argument("--format", choices=["text", "csv", "json"])

    p_hot = sub.add_parser("hotspot", help="Getis-Ord hot/cold-spot z-scores")
    p_hot.add_argument("--input", help="input dataset CSV")
    p_hot.add_argument("--value-column")
    p_hot.add_argument("--weights", help="band:KM or knn:K")
    p_hot.add_argument("--out", dest="output")
    p_hot.add_argument("--format", choices=["csv", "geojson"])

    p_sim = sub.add_parser("simulate", help="draw a synthetic dataset from a DGP spec")
    p_sim.add_argument("--spec", dest="input", metavar="SPEC", help="DgpSpec JSON document")
    p_sim.add_argument("--out", dest="output", help="output dataset CSV")
    p_sim.add_argument("--seed", type=int)

    p_rep = sub.add_parser("report", help="render a saved fit result")
    p_rep.add_argument(
        "--fit", dest="input", metavar="FIT", help="fit result JSON produced by fit --format json"
    )
    p_rep.add_argument("--format", choices=["text"])

    for p in (p_fit, p_hot, p_sim, p_rep):
        p.add_argument("--config", help="JSON config file keyed by the option names")
    return parser


def _read_text(path: str, what: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise InvalidSpec(f"{what} {path!r} is not UTF-8 text: {exc}") from None


def _load_json(path: str, what: str):
    try:
        return json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"{what} {path!r} is not valid JSON: {exc}") from None


def _is_string(value) -> bool:
    return isinstance(value, str)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


_FAMILY_NAMES = tuple(f.value for f in Family)

#: Config-file keys, each with its type check and the type's name for errors.
_CONFIG_TYPES = {
    "input": (_is_string, "a string"),
    "output": (_is_string, "a string"),
    "family": (lambda v: v in _FAMILY_NAMES, f"one of {list(_FAMILY_NAMES)}"),
    "covariates": (_is_names, "a list of names"),
    "inflation_covariates": (_is_names, "a list of names"),
    "weights": (_is_string, "a string"),
    "band_km": (_is_number, "a number"),
    "k": (_is_integer, "an integer"),
    "value_column": (_is_string, "a string"),
    "standardize": (lambda v: isinstance(v, bool), "true or false"),
    "seed": (_is_integer, "an integer"),
    "format": (_is_string, "a string"),
}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    doc = _load_json(path, "config file")
    if not isinstance(doc, dict):
        raise InvalidSpec("config file must be a JSON object")
    for key, value in doc.items():
        if key in _CONFIG_TYPES and value is not None:
            check, expected = _CONFIG_TYPES[key]
            if not check(value):
                raise InvalidSpec(f"config file: {key!r} must be {expected}, got {value!r}")
    return doc


#: Values of the options that neither a flag nor the config file sets.
_DEFAULTS = {
    "covariates": (),
    "inflation_covariates": (),
    "value_column": "count",
    "standardize": False,
}


def _fill_from_config_file(config: argparse.Namespace) -> None:
    """Set every option no flag set from the ``--config`` file, else its default."""
    file_values = _load_config_file(config.config)
    for key in _CONFIG_TYPES:
        if getattr(config, key, None) is None:
            value = file_values.get(key)
            setattr(config, key, _DEFAULTS.get(key) if value is None else value)


_COMMANDS = {
    "fit": cmd_fit,
    "hotspot": cmd_hotspot,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    config = build_parser().parse_args(argv)
    try:
        _fill_from_config_file(config)
        return _COMMANDS[config.command](config)
    except GeocountError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
