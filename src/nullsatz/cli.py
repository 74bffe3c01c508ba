"""Command-line surface: classify / density / ratio / decompose / hopf / norms.

Every subcommand prints one JSON report to stdout with the active RunConfig
embedded; --pretty adds a short human summary on stderr.  Exit codes:
classify maps its verdict to 0 (CLOSED), 1 (DENSE), 2 (NEITHER),
3 (INCONCLUSIVE); other subcommands exit 0 on success; 10 means the
computation failed, 11 an unexpected internal error, 64 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bergman import (
    DomainError,
    DomainSpec,
    MissingNormError,
    MonomialNormTable,
    density_certificate,
    ratio_sup,
)
from .config import RunConfig
from .decompose import DecomposeError, decompose_ideal
from .hopf import RotationSearchError, ball_ratio_sup, find_rotation
from .nullsatz import CLOSED, DENSE, INCONCLUSIVE, NEITHER, classify
from .polyalg import PolyFormatError, load_ideal, load_poly
from .rootfind import RootFindError, TrackError

EXIT_ERROR = 10
EXIT_INTERNAL = 11
EXIT_INPUT = 64

VERDICT_EXIT = {CLOSED: 0, DENSE: 1, NEITHER: 2, INCONCLUSIVE: 3}


def _emit(report: dict, pretty_lines: list[str], pretty: bool) -> None:
    print(json.dumps(report, sort_keys=True, indent=2))
    if pretty:
        for line in pretty_lines:
            print(line, file=sys.stderr)


def _config_from_args(args) -> RunConfig:
    kwargs = {"domain": DomainSpec.parse(args.domain), "seed": args.seed}
    for name in ("samples", "n_max", "pitch", "alpha_grid"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    r_grid = getattr(args, "r_grid", None)
    if r_grid is not None:
        try:
            kwargs["r_grid"] = tuple(float(x) for x in r_grid.split(","))
        except ValueError:
            raise PolyFormatError(
                f"--r-grid needs comma-separated floats, got {r_grid!r}"
            ) from None
    return RunConfig(**kwargs).with_env_seed()


def cmd_classify(args) -> int:
    cfg = _config_from_args(args)
    gens = load_ideal(args.ideal)
    verdict = classify(
        gens,
        cfg.domain,
        seed=cfg.seed,
        pitch=cfg.pitch,
        with_certificate=not args.no_certificate,
        n_max=cfg.n_max,
    )
    report = verdict.to_json_dict()
    report["config"] = cfg.to_json_dict()
    counts = {}
    for r in verdict.results:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    lines = [
        f"verdict: {verdict.overall}",
        f"components: {len(verdict.results)} {counts}",
        f"justification: {verdict.justification}",
    ]
    if verdict.witness is not None:
        lines.append(f"witness: ({verdict.witness[0]:.6g}, {verdict.witness[1]:.6g})")
    if verdict.certificate is not None:
        lines.append(
            f"certificate: {verdict.certificate.status}, "
            f"min projection distance {verdict.certificate.min_distance():.6g}"
        )
    _emit(report, lines, args.pretty)
    return VERDICT_EXIT[verdict.overall]


def cmd_density(args) -> int:
    cfg = _config_from_args(args)
    p = load_poly(args.poly)
    zero_w = None
    if args.witness:
        bad = PolyFormatError(
            "--witness needs four comma-separated floats re1,im1,re2,im2, "
            f"got {args.witness!r}"
        )
        try:
            parts = [float(x) for x in args.witness.split(",")]
        except ValueError:
            raise bad from None
        if len(parts) != 4:
            raise bad
        zero_w = (complex(parts[0], parts[1]), complex(parts[2], parts[3]))
    cert = density_certificate(
        p, cfg.domain, N_max=cfg.n_max, r_grid=cfg.r_grid, zero_w=zero_w
    )
    report = cert.to_json_dict()
    report["config"] = cfg.to_json_dict()
    r_last, dil_last = cert.dilation_profile[-1]
    lines = [
        f"status: {cert.status}",
        f"min projection distance: {cert.min_distance():.6g}",
        f"dilation deviation at r={r_last:g}: {dil_last:.6g}",
    ]
    _emit(report, lines, args.pretty)
    return 0


def cmd_ratio(args) -> int:
    cfg = _config_from_args(args)
    p = load_poly(args.poly)
    rep = ratio_sup(
        p, cfg.domain, r_grid=cfg.r_grid, samples=cfg.samples, seed=cfg.seed
    )
    report = rep.to_json_dict()
    report["config"] = cfg.to_json_dict()
    lines = [
        f"pass: {rep.passed}",
        f"sup: {rep.sup:.12g}  bound 2^d = {rep.bound:.12g}",
    ]
    _emit(report, lines, args.pretty)
    return 0


def cmd_decompose(args) -> int:
    cfg = _config_from_args(args)
    gens = load_ideal(args.poly)
    dec = decompose_ideal(gens, seed=cfg.seed)
    report = dec.to_json_dict()
    report["config"] = cfg.to_json_dict()
    lines = [
        f"curve components: {len(dec.curve_components)}",
        f"isolated points: {len(dec.points)}",
    ]
    _emit(report, lines, args.pretty)
    return 0


def cmd_hopf(args) -> int:
    cfg = _config_from_args(args)
    p = load_poly(args.poly)
    rot = find_rotation(p, seed=cfg.seed, alpha_grid=cfg.alpha_grid)
    report = {"rotation": rot.to_json_dict()}
    lines = [
        f"min circle modulus: {rot.min_modulus:.9g}",
        f"(a, b) = ({rot.a:.6g}, {rot.b:.6g})",
    ]
    if args.ratio:
        rep = ball_ratio_sup(p, r_grid=cfg.r_grid, samples=cfg.samples, seed=cfg.seed)
        report["ball_ratio"] = rep.to_json_dict()
        lines.append(f"ball ratio sup: {rep.sup:.9g} (finite: {rep.finite})")
    report["config"] = cfg.to_json_dict()
    _emit(report, lines, args.pretty)
    return 0


def cmd_norms(args) -> int:
    cfg = _config_from_args(args)
    table = MonomialNormTable(cfg.domain, args.max_degree)
    entries = [
        {"a": a, "b": b, "norm_sq": v}
        for (a, b), v in sorted(table.norms.items())
    ]
    report = {
        "kind": "monomial_norms",
        "max_degree": args.max_degree,
        "entries": entries,
        "config": cfg.to_json_dict(),
    }
    lines = [f"{len(entries)} squared norms up to total degree {args.max_degree}"]
    _emit(report, lines, args.pretty)
    return 0


# settings flags; each subcommand registers only the ones it reads
_SETTINGS = {
    "--samples": {"type": int},
    "--n-max": {"type": int},
    "--pitch": {"type": float},
    "--alpha-grid": {"type": int},
    "--r-grid": {"help": "comma-separated dilation radii in (1/2, 1)"},
}


def _add_common(sp: argparse.ArgumentParser, *settings: str) -> None:
    sp.add_argument("--domain", default="ball", help='"ball", or "p,q" decimals')
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--pretty", action="store_true", help="summary table on stderr")
    for flag in settings:
        sp.add_argument(flag, **_SETTINGS[flag])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nullsatz",
        description="closure/density classification of polynomial ideals "
        "in Bergman spaces on |z1|^p + |z2|^q < 1",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="CLOSED/DENSE/NEITHER verdict for an ideal")
    sp.add_argument("--ideal", required=True, help="ideal or polynomial JSON file")
    sp.add_argument("--no-certificate", action="store_true",
                    help="skip the density certificate on DENSE verdicts")
    _add_common(sp, "--pitch", "--n-max")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("density", help="projection/dilation density certificate")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--witness", default=None,
                    help="known zero inside the domain: re1,im1,re2,im2")
    _add_common(sp, "--n-max", "--r-grid")
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("ratio", help="dilation ratio bound check |p(z)/p(rz)|")
    sp.add_argument("--poly", required=True)
    _add_common(sp, "--samples", "--r-grid")
    sp.set_defaults(func=cmd_ratio)

    sp = sub.add_parser("decompose", help="irreducible components of the zero set")
    sp.add_argument("--poly", required=True, help="ideal or polynomial JSON file")
    _add_common(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("hopf", help="zero-avoiding great-circle rotation search")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--ratio", action="store_true",
                    help="also sample the one-variable ball dilation ratio")
    _add_common(sp, "--alpha-grid", "--samples", "--r-grid")
    sp.set_defaults(func=cmd_hopf)

    sp = sub.add_parser("norms", help="monomial squared-norm table")
    sp.add_argument("--max-degree", dest="max_degree", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_norms)

    return ap


# main parses with one parser per process; build_parser stays a plain
# function, so a tool that wraps a module's functions (perfbench's tracer)
# still sees it
_kept_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _kept_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PolyFormatError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (
        DecomposeError,
        RotationSearchError,
        DomainError,
        MissingNormError,
        RootFindError,
        TrackError,
        ArithmeticError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # pragma: no cover - totality guard
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
