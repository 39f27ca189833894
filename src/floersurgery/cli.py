"""Command-line front end.

Commands: surgery, lens, casson-walker, obstruct, validate.  Global
flag ``--format {text,json}``.  The truncation depth of the mapping cone
is internal to the library: no flag sets it and no output reports it.

``obstruct`` builds one target (|H1(Z)| is ``--h1``, else p) and parses
``--q`` once for all of its rules, which run in a fixed order.

Exit codes: 0 the run completed (including reported obstruction
failures), 2 input or validation error or a cone too large to build,
3 truncation instability.
"""

from __future__ import annotations

import argparse
import re
import sys
from importlib import resources
from pathlib import Path

from . import obstruct
from .cone import surgery
from .errors import FloerError, ModelError, TruncationTooSmall
from .knotmodel import (
    load_model,
    load_model_or_ambient,
    parse_rational,
    torsion_coefficients,
)
from .numth import (
    MAX_TABLE_P,
    CassonWalkerInput,
    casson_walker_surgery,
    lambda_from_hf,
    lens_invariants,
    require_slope,
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


def integer(text: str) -> int:
    """Every integer on the command line: ASCII digits with an optional
    sign, as in model files (``int`` also reads '1_0' and other scripts'
    digits); argparse reports the ValueError as 'invalid integer value'."""
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise ValueError(f"bad integer {text!r}; expected signed digits 0-9")
    return int(text)


def parse_slope(text: str) -> tuple[int, int, int]:
    """Parse 'p/q' or an integer 'n' (= n/1), written as a model file's
    rationals are: one optional sign in front, then ASCII digits, with no
    space and no sign on p or q; returns (sign, p, q)."""
    match = re.fullmatch(r"([+-]?)([0-9]+)(?:/([0-9]+))?", text)
    try:
        if match is None:
            raise ValueError(text)
        p, q = int(match[2]), int(match[3] or 1)
    except ValueError:  # not that grammar, or over int's digit limit
        raise ModelError("Syntax", f"bad slope {text!r}; expected p/q") from None
    if p < 1 or q < 1:
        raise ModelError("Syntax", f"slope must have positive p and q: {text!r}")
    return (-1 if match[1] == "-" else 1), p, q


def parse_q_values(values: list[str]) -> list[int]:
    """The q of each value, a single q or a range LOW..HIGH; refused with
    ValueError above MAX_TABLE_P values, counted before any is listed."""
    out: list[int] = []
    for v in values:
        low_str, dots, high_str = v.partition("..")
        try:
            low = integer(low_str)
            high = integer(high_str) if dots else low
        except ValueError:
            raise ValueError(f"bad --q value {v!r}; expected Q or LOW..HIGH") from None
        if low > high:
            raise ValueError(f"empty range {v!r}; expected LOW..HIGH")
        count = len(out) + high - low + 1
        if count > MAX_TABLE_P:
            raise ValueError(f"{count} q values, more than the limit of {MAX_TABLE_P}")
        out.extend(range(low, high + 1))
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
                    "i": i,
                    "d": str(r.d),
                    "red": [_tau_json(b) for b in r.red],
                    "dims": dict(zip(("even", "odd"), r.dims)),
                }
                for i, r in enumerate(result.results)
            ],
            "total_dim_red": result.total_dim_red,
            "chi_red": result.chi_red,
            "d_sum": str(result.d_sum),
        }
        print(canonical_json(payload))
        return
    print(f"model: {result.model_name}  slope: {result.p}/{result.q}")
    for i, r in enumerate(result.results):
        bars = " ".join(_tau_text(b) for b in r.red) or "-"
        even, odd = r.dims
        print(
            f"  i={i}  d = {r.d}  red: {bars}  "
            f"dims: even {even}, odd {odd}"
        )
    print(
        f"aggregate: dim HF_red = {result.total_dim_red}  "
        f"chi = {result.chi_red}  sum d = {result.d_sum}"
    )


def cmd_surgery(args) -> int:
    sign, p, q = parse_slope(args.slope)
    if sign < 0 and not args.mirror:
        raise ModelError(
            "Syntax",
            "negative slopes need --mirror MODEL with the "
            "orientation-reversed knot model",
        )
    if sign > 0 and args.mirror:
        raise ModelError("Syntax", "--mirror applies only to a negative slope")
    model = load_model(resolve_model_path(args.mirror if sign < 0 else args.model))
    result = surgery(model, p, q)
    if sign < 0 and args.format == "text":
        print(
            f"note: output is the orientation reversal of the requested "
            f"-{p}/{q} surgery, computed as {p}/{q} on {model.name}"
        )
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


def cmd_casson_walker(args) -> int:
    sign, p, q = parse_slope(args.slope)
    if sign < 0:
        raise ModelError("Syntax", "casson-walker expects a positive slope")
    model = load_model(resolve_model_path(args.model))
    lam_y = lambda_from_hf(model.ambient.chi_red, model.ambient.d, 1)
    delta2 = torsion_coefficients(model).delta2
    formula = casson_walker_surgery(
        CassonWalkerInput(lambda_y=lam_y, h1_order=1, delta2=delta2, p=p, q=q)
    )
    result = surgery(model, p, q)
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
        try:
            model, ambient = load_model_or_ambient(resolve_model_path(name))
        except ModelError as e:
            print(f"{name}: {e}")
            status = 2
            continue
        if model is None:
            print(f"{ambient.name}: ok (ambient summary)")
        else:
            print(f"{model.name}: ok")
    return status


def _check_flags(args) -> set[str]:
    """The selected rules that read --p, each refused without --p, without
    --q when it reads one, or without the number of the target it reads."""
    selected = set()
    for rule, on, reads in (
        ("--z-special", args.z_special, "--chi"),
        ("--chi-relation", args.chi_relation is not None, "--chi"),
        ("--v0-bound", args.v0_bound, "--dim-red"),
        ("--k-special", args.k_special, "--dim-red"),
        ("--genus-bound", args.genus_bound, None),
        ("--d-sandwich", args.d_sandwich, None),
        ("--cosmetic-scan", args.cosmetic_scan, None),
    ):
        if not on:
            continue
        takes_q = rule != "--chi-relation"
        if args.p is None or (takes_q and not args.q):
            needs = "--p and --q" if takes_q else "--p"
            raise ModelError("Syntax", f"{rule} needs {needs}")
        if reads and getattr(args, reads[2:].replace("-", "_")) is None:
            raise ModelError("Syntax", f"this rule needs {reads}")
        selected.add(rule)
    return selected


def _target_summary(args) -> TargetSummary:
    """The target Z of p/q surgery.  |H1(Z)| is --h1, else p (a knot in an
    integer homology sphere).  A rule gets the number it reads from its
    flag; the other is filled only to agree with it (dim_red = |chi|,
    chi = dim_red mod 2)."""
    require_slope(args.p)
    dim_red = args.dim_red if args.dim_red is not None else abs(args.chi or 0)
    excess = None
    if args.d_excess is not None:
        excess = parse_rational(args.d_excess, "--d-excess")
    return TargetSummary(
        h1_order=args.h1 if args.h1 is not None else args.p,
        dim_red=dim_red,
        chi_red=args.chi if args.chi is not None else dim_red % 2,
        max_excess=excess,
    )


def _load(name: str | None, loader=load_model):
    return loader(resolve_model_path(name)) if name else None


def cmd_obstruct(args) -> int:
    # each rule reports a missing flag, then its model, then the target,
    # then the --q list
    rules = _check_flags(args)
    v0_model = _load(args.v0_bound)
    k_model, k_ambient = _load(args.k_special, load_model_or_ambient) or (None, None)
    _, g_ambient = _load(args.genus_bound, load_model_or_ambient) or (None, None)
    d_model = _load(args.d_sandwich)
    scan_model = _load(args.cosmetic_scan)
    z = _target_summary(args) if rules - {"--d-sandwich", "--cosmetic-scan"} else None
    qs = parse_q_values(args.q) if rules - {"--chi-relation"} else []

    verdicts: list[Verdict] = []
    if args.lens_complement:
        verdicts.append(obstruct.lens_complement(*args.lens_complement))
    if args.dedekind_necessary:
        verdicts.append(obstruct.dedekind_necessary(*args.dedekind_necessary))
    if args.z_special:
        verdicts.append(obstruct.z_special(z, args.p, qs))
    if args.chi_relation is not None:
        verdicts += obstruct.chi_relation(args.chi_relation, z, args.p)
    if args.v0_bound:
        verdicts += [obstruct.v0_bound(v0_model, z, args.p, q) for q in qs]
    if args.k_special:
        verdicts += [obstruct.k_special(k_ambient, z, args.p, q, k_model) for q in qs]
    if args.genus_bound:
        verdicts += [obstruct.genus_bound(g_ambient, z, args.p, q) for q in qs]
    if args.d_sandwich:
        verdicts += [obstruct.d_sandwich(d_model, args.p, q) for q in qs]
    pairs = obstruct.cosmetic_pair_scan(scan_model, args.p, qs) if scan_model else None
    if not verdicts and pairs is None:
        raise ModelError("Syntax", "no obstruction rule selected")

    if args.format == "json":
        payload = {"verdicts": verdicts}
        if pairs is not None:
            payload["cosmetic_scans"] = [
                {"model": scan_model.name, "p": args.p, "q_range": qs, "pairs": pairs}
            ]
        print(canonical_json(payload))
        return 0
    for v in verdicts:
        print(f"{v.rule}: {v.status.upper()}  {canonical_json(v.witness)}")
    if pairs is None:
        return 0
    # the JSON q_range is the requested list; the text names what was scanned
    skipped = obstruct.unscanned(args.p, qs)
    note = "".join(
        f"; skipped q={', '.join(map(str, s))} ({why})" for why, s in skipped.items()
    )
    if pairs:
        listed = ", ".join(f"({a},{b})" for a, b in pairs)
        print(f"COSMETIC_SCAN: pairs with matching Floer data: {listed}{note}")
    else:
        scanned = sorted(set(qs).difference(*skipped.values()))
        print(
            f"COSMETIC_SCAN: no cosmetic pairs for {scan_model.name} "
            f"p={args.p} q in {scanned}{note}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floersurgery",
        description="Heegaard Floer homology of p/q surgery and its obstructions",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("surgery", help="compute HF+ of p/q surgery on a model")
    s.add_argument("model")
    s.add_argument("slope", help="p/q with p, q > 0; -p/q requires --mirror")
    s.add_argument("--mirror", help="orientation-reversed model for negative slopes")
    s.set_defaults(func=cmd_surgery)

    l = sub.add_parser("lens", help="Dedekind sum, lambda, tau and d-table of L(p,q)")
    l.add_argument("p", type=integer)
    l.add_argument("q", type=integer)
    l.set_defaults(func=cmd_lens)

    c = sub.add_parser("casson-walker", help="Casson-Walker invariant of a surgery")
    c.add_argument("model")
    c.add_argument("slope")
    c.set_defaults(func=cmd_casson_walker)

    o = sub.add_parser("obstruct", help="run obstruction rules")
    o.add_argument("--lens-complement", nargs=3, type=integer, metavar=("P", "Q", "W"))
    o.add_argument(
        "--dedekind-necessary", nargs=3, type=integer, metavar=("P", "Q1", "Q2")
    )
    o.add_argument("--z-special", action="store_true")
    o.add_argument("--chi-relation", type=integer, metavar="CHI_Y")
    o.add_argument("--v0-bound", metavar="MODEL")
    o.add_argument("--k-special", metavar="MODEL_OR_AMBIENT")
    o.add_argument("--genus-bound", metavar="MODEL_OR_AMBIENT")
    o.add_argument("--d-sandwich", metavar="MODEL")
    o.add_argument("--cosmetic-scan", metavar="MODEL")
    o.add_argument("--p", type=integer)
    o.add_argument("--q", action="append", default=[], metavar="Q_OR_RANGE")
    o.add_argument("--h1", type=integer)
    o.add_argument("--chi", type=integer)
    o.add_argument("--dim-red", type=integer)
    o.add_argument("--d-excess", help="max grading excess D(Z), as a rational")
    o.set_defaults(func=cmd_obstruct)
    for command in (s, c, o):  # so that argparse reads -5/2 as a value, not an option
        command._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")

    v = sub.add_parser("validate", help="validate model files")
    v.add_argument("models", nargs="+")
    v.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TruncationTooSmall as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (FloerError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
