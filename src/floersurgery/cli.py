"""Command-line front end.

Commands: surgery, lens, casson-walker, obstruct, validate.  Global
flags ``--format {text,json}`` and ``--depth N`` (the environment
variable FSL_DEPTH also overrides the default truncation depth).

Exit codes: 0 the run completed (including reported obstruction
failures), 2 input or validation error, 3 truncation instability.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import obstruct
from .cone import SurgerySpec, surgery
from .errors import FloerError, ModelError, TruncationTooSmall
from .knotmodel import (
    AmbientSummary,
    KnotModel,
    load_ambient_file,
    load_model,
    torsion_coefficients,
)
from .numth import (
    CassonWalkerInput,
    casson_walker_surgery,
    lambda_from_hf,
    lens_invariants,
)
from .obstruct import TargetSummary, Verdict, canonical_json


def resolve_model_path(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    shipped = resources.files("floersurgery").joinpath("models")
    for candidate in (name, f"{name}.json"):
        target = shipped.joinpath(candidate)
        if target.is_file():
            return Path(str(target))
    raise ModelError("Syntax", f"model file not found: {name}")


def parse_slope(text: str) -> tuple[int, int, int]:
    """Parse 'p/q' or an integer 'n' (= n/1); returns (sign, p, q)."""
    sign = 1
    body = text.strip()
    if body.startswith("-"):
        sign = -1
        body = body[1:]
    try:
        if "/" in body:
            p_str, q_str = body.split("/", 1)
            p, q = int(p_str), int(q_str)
        else:
            p, q = int(body), 1
    except ValueError:
        raise ModelError("Syntax", f"bad slope {text!r}; expected p/q") from None
    if p < 1 or q < 1:
        raise ModelError("Syntax", f"slope must have positive p and q: {text!r}")
    return sign, p, q


def parse_q_values(values: list[str]) -> list[int]:
    out: list[int] = []
    for v in values:
        if ".." in v:
            a_str, b_str = v.split("..", 1)
            out.extend(range(int(a_str), int(b_str) + 1))
        else:
            out.append(int(v))
    return out


def _tau_json(bar) -> dict:
    return {
        "bottom": str(bar.bottom),
        "length": bar.length,
        "parity": bar.parity,
    }


def _tau_text(bar) -> str:
    return f"tau({bar.bottom};{bar.length};p{bar.parity})"


def _print_surgery(result, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "model": result.model_name,
            "p": result.p,
            "q": result.q,
            "spin_c": [
                {
                    "i": r.i,
                    "d": str(r.d),
                    "red": [_tau_json(b) for b in r.red],
                    "dims": {"even": r.dims[0], "odd": r.dims[1]},
                    "depth": r.depth,
                }
                for r in result.results
            ],
            "total_dim_red": result.total_dim_red,
            "chi_red": result.chi_red,
            "d_sum": str(result.d_sum),
        }
        print(canonical_json(payload))
        return
    print(
        f"model: {result.model_name}  slope: {result.p}/{result.q}  "
        f"depth: {result.results[0].depth}"
    )
    for r in result.results:
        bars = " ".join(_tau_text(b) for b in r.red) or "-"
        even, odd = r.dims
        print(
            f"  i={r.i}  d = {r.d}  red: {bars}  "
            f"dims: even {even}, odd {odd}"
        )
    print(
        f"aggregate: dim HF_red = {result.total_dim_red}  "
        f"chi = {result.chi_red}  sum d = {result.d_sum}"
    )


def cmd_surgery(args, depth: int | None) -> int:
    sign, p, q = parse_slope(args.slope)
    if sign < 0:
        if not args.mirror:
            raise ModelError(
                "Syntax",
                "negative slopes need --mirror MODEL with the "
                "orientation-reversed knot model",
            )
        model = load_model(resolve_model_path(args.mirror))
        result = surgery(model, p, q, depth)
        if args.format == "text":
            print(
                f"note: output is the orientation reversal of the requested "
                f"-{p}/{q} surgery, computed as {p}/{q} on {model.name}"
            )
    else:
        model = load_model(resolve_model_path(args.model))
        result = surgery(model, p, q, depth)
    _print_surgery(result, args.format)
    return 0


def cmd_lens(args) -> int:
    inv = lens_invariants(args.p, args.q)
    if args.format == "json":
        payload = {
            "p": inv.p,
            "q": inv.q,
            "dedekind_s": str(inv.s),
            "lambda": str(inv.lam),
            "tau": str(inv.tau),
            "d": [str(d) for d in inv.d_table],
        }
        print(canonical_json(payload))
        return 0
    print(f"L({inv.p},{inv.q})")
    print(f"  s({inv.q},{inv.p}) = {inv.s}")
    print(f"  lambda = {inv.lam}")
    print(f"  tau = {inv.tau}")
    print("  d = {" + ", ".join(str(d) for d in inv.d_table) + "}")
    return 0


def cmd_casson_walker(args, depth: int | None) -> int:
    sign, p, q = parse_slope(args.slope)
    if sign < 0:
        raise ModelError("Syntax", "casson-walker expects a positive slope")
    model = load_model(resolve_model_path(args.model))
    lam_y = lambda_from_hf(model.ambient.chi_red, model.ambient.d, 1)
    delta2 = torsion_coefficients(model).delta2
    formula = casson_walker_surgery(
        CassonWalkerInput(lambda_y=lam_y, h1_order=1, delta2=delta2, p=p, q=q)
    )
    result = surgery(model, p, q, depth)
    from_cone = lambda_from_hf(result.chi_red, result.d_sum, p)
    agree = formula == from_cone
    if args.format == "json":
        payload = {
            "model": model.name,
            "p": p,
            "q": q,
            "lambda_ambient": str(lam_y),
            "delta2": delta2,
            "lambda_surgery": str(formula),
            "lambda_from_cone": str(from_cone),
            "consistent": agree,
        }
        print(canonical_json(payload))
    else:
        print(f"model: {model.name}  slope: {p}/{q}")
        print(f"  lambda(Y) = {lam_y}  delta2 = {delta2}")
        print(f"  lambda(Y_p/q(K)) by surgery formula = {formula}")
        print(f"  lambda from cone homology          = {from_cone}")
        print(f"  consistent: {'yes' if agree else 'NO'}")
    return 0


def cmd_validate(args) -> int:
    status = 0
    for name in args.models:
        path = resolve_model_path(name)
        try:
            model = load_model(path)
            print(f"{model.name}: ok")
        except ModelError as e:
            try:
                ambient = load_ambient_file(path)
                print(f"{ambient.name}: ok (ambient summary)")
            except ModelError:
                print(f"{name}: {e}")
                status = 2
    return status


def _target_summary(args) -> TargetSummary:
    if args.chi is None:
        raise ModelError("Syntax", "this rule needs --chi")
    dim_red = args.dim_red if args.dim_red is not None else abs(args.chi)
    excess = Fraction(args.d_excess) if args.d_excess is not None else None
    return TargetSummary(
        h1_order=args.h1 if args.h1 is not None else 1,
        dim_red=dim_red,
        chi_red=args.chi,
        max_excess=excess,
    )


def _load_model_or_ambient(name: str) -> tuple[KnotModel | None, AmbientSummary]:
    path = resolve_model_path(name)
    try:
        model = load_model(path)
        return model, model.ambient
    except ModelError:
        return None, load_ambient_file(path)


def cmd_obstruct(args, depth: int | None) -> int:
    verdicts: list[Verdict | list[Verdict]] = []
    scans = []

    if args.lens_complement:
        p, q, w = args.lens_complement
        verdicts.append(obstruct.lens_complement(p, q, w))

    if args.dedekind_necessary:
        p, q1, q2 = args.dedekind_necessary
        verdicts.append(obstruct.dedekind_necessary(p, q1, q2))

    if args.z_special:
        if args.p is None or not args.q:
            raise ModelError("Syntax", "--z-special needs --p and --q")
        z = _target_summary(args)
        verdicts.append(obstruct.z_special(z, args.p, parse_q_values(args.q)))

    if args.chi_relation is not None:
        if args.p is None:
            raise ModelError("Syntax", "--chi-relation needs --p")
        z = _target_summary(args)
        verdicts.append(obstruct.chi_relation(args.chi_relation, z, args.p))

    if args.v0_bound:
        if args.p is None or not args.q or args.dim_red is None:
            raise ModelError("Syntax", "--v0-bound needs --p, --q and --dim-red")
        model = load_model(resolve_model_path(args.v0_bound))
        z = TargetSummary(
            h1_order=args.h1 if args.h1 is not None else args.p,
            dim_red=args.dim_red,
            chi_red=args.chi if args.chi is not None else args.dim_red % 2,
        )
        for q in parse_q_values(args.q):
            verdicts.append(obstruct.v0_bound(model, z, args.p, q))

    if args.k_special:
        if args.p is None or not args.q:
            raise ModelError("Syntax", "--k-special needs --p and --q")
        model, ambient = _load_model_or_ambient(args.k_special)
        z = _target_summary(args)
        for q in parse_q_values(args.q):
            verdicts.append(obstruct.k_special(ambient, z, args.p, q, model))

    if args.genus_bound:
        if args.p is None or not args.q:
            raise ModelError("Syntax", "--genus-bound needs --p and --q")
        _, ambient = _load_model_or_ambient(args.genus_bound)
        z = _target_summary(args)
        for q in parse_q_values(args.q):
            verdicts.append(obstruct.genus_bound(ambient, z, args.p, q))

    if args.d_sandwich:
        if args.p is None or not args.q:
            raise ModelError("Syntax", "--d-sandwich needs --p and --q")
        model = load_model(resolve_model_path(args.d_sandwich))
        for q in parse_q_values(args.q):
            verdicts.append(obstruct.d_sandwich(model, args.p, q, depth))

    if args.cosmetic_scan:
        if args.p is None or not args.q:
            raise ModelError("Syntax", "--cosmetic-scan needs --p and --q")
        model = load_model(resolve_model_path(args.cosmetic_scan))
        qs = parse_q_values(args.q)
        pairs = obstruct.cosmetic_pair_scan(model, args.p, qs, depth)
        scans.append({"model": model.name, "p": args.p, "q_range": qs, "pairs": pairs})

    if not verdicts and not scans:
        raise ModelError("Syntax", "no obstruction rule selected")

    report = obstruct.assemble_report(verdicts)
    if args.format == "json":
        payload = report.to_jsonable()
        if scans:
            payload["cosmetic_scans"] = scans
        print(canonical_json(payload))
        return 0
    for v in report.verdicts:
        print(f"{v.rule}: {v.status.upper()}  {canonical_json(v.witness)}")
    for scan in scans:
        if scan["pairs"]:
            pairs = ", ".join(f"({a},{b})" for a, b in scan["pairs"])
            print(f"COSMETIC_SCAN: pairs with matching Floer data: {pairs}")
        else:
            print(
                f"COSMETIC_SCAN: no cosmetic pairs for {scan['model']} "
                f"p={scan['p']} q in {scan['q_range']}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floersurgery",
        description="Heegaard Floer homology of p/q surgery and its obstructions",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--depth", type=int, default=None, help="truncation depth")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("surgery", help="compute HF+ of p/q surgery on a model")
    s.add_argument("model")
    s.add_argument("slope", help="p/q with p, q > 0; -p/q requires --mirror")
    s.add_argument("--mirror", help="orientation-reversed model for negative slopes")

    l = sub.add_parser("lens", help="Dedekind sum, lambda, tau and d-table of L(p,q)")
    l.add_argument("p", type=int)
    l.add_argument("q", type=int)

    c = sub.add_parser("casson-walker", help="Casson-Walker invariant of a surgery")
    c.add_argument("model")
    c.add_argument("slope")

    o = sub.add_parser("obstruct", help="run obstruction rules")
    o.add_argument("--lens-complement", nargs=3, type=int, metavar=("P", "Q", "W"))
    o.add_argument("--dedekind-necessary", nargs=3, type=int, metavar=("P", "Q1", "Q2"))
    o.add_argument("--z-special", action="store_true")
    o.add_argument("--chi-relation", type=int, metavar="CHI_Y")
    o.add_argument("--v0-bound", metavar="MODEL")
    o.add_argument("--k-special", metavar="MODEL_OR_AMBIENT")
    o.add_argument("--genus-bound", metavar="MODEL_OR_AMBIENT")
    o.add_argument("--d-sandwich", metavar="MODEL")
    o.add_argument("--cosmetic-scan", metavar="MODEL")
    o.add_argument("--p", type=int)
    o.add_argument("--q", action="append", default=[], metavar="Q_OR_RANGE")
    o.add_argument("--h1", type=int)
    o.add_argument("--chi", type=int)
    o.add_argument("--dim-red", type=int)
    o.add_argument("--d-excess", help="max grading excess D(Z), as a rational")

    v = sub.add_parser("validate", help="validate model files")
    v.add_argument("models", nargs="+")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    depth = args.depth
    if depth is None and os.environ.get("FSL_DEPTH"):
        try:
            depth = int(os.environ["FSL_DEPTH"])
        except ValueError:
            print("FSL_DEPTH must be an integer", file=sys.stderr)
            return 2
    try:
        if args.command == "surgery":
            return cmd_surgery(args, depth)
        if args.command == "lens":
            return cmd_lens(args)
        if args.command == "casson-walker":
            return cmd_casson_walker(args, depth)
        if args.command == "obstruct":
            return cmd_obstruct(args, depth)
        if args.command == "validate":
            return cmd_validate(args)
        parser.error(f"unknown command {args.command}")
    except TruncationTooSmall as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except FloerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
