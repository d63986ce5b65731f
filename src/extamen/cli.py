"""Command-line front end.

Every subcommand prints a one-line summary and can write report.json plus an
optional series.csv under --out; of the shared options --n, --seed and --cap
it takes only those its handler reads.  Those two files carry no timestamps
and re-running the same command reproduces them byte for byte; volatile data
(wall clock, output hashes, orientation and root-hair conventions) go to the
accompanying manifest.json instead.

Exit codes: 0 when the requested check passed, 1 when it ran and the
property failed (or the inputs were unusable: an unknown or inexact name,
a phi:<i> index above its bound, a set that does not parse, cannot be read,
holds 0 or 1 or names a recipe below its least n, a negative seed, a
negative or oversized size, zero trials, steps or samples), 2 when a
resource cap or search budget was exhausted or when the command line does
not parse (an unknown option or a non-integer value: argparse's usage text
on stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

# what every command needs; each handler imports the modules it runs, so a
# subcommand loads only those
from .dyadic import ROOT
from .errors import CapExceeded, ExtamenError, PreconditionFailed, SearchExhausted
from .graph import ball, get_orientation, root_hair_letter

__all__ = ["main", "build_parser"]

# options holding a count, a size or a seed; a negative value is unusable input
NONNEGATIVE_OPTIONS = ("n", "cap", "trials", "steps", "samples", "seed")

# copies of approx.BETA_SCHEDULES, approx.CONSTRUCTIONS and WalkConfig.fn_name,
# so building the parser imports neither approx nor walks (a test pins them)
BETA_CHOICES = ("inv_n", "inv_2n")
KIND_CHOICES = ("single", "sum", "markov", "countable")
DECAY_FN_DEFAULT = "minfun:phi_u"


class UnusableInput(Exception):
    """A name, set or size given on the command line cannot be resolved."""


@contextmanager
def _resolving():
    """Re-raise what resolving command-line input raises as UnusableInput.

    That is a KeyError for an unknown name, a ValueError for a malformed
    name, set or number, a ZeroDivisionError for a rational like 1/0, an
    OverflowError for a number like inf or one too large to use as a size,
    and an OSError for a set file that cannot be read.
    """
    try:
        yield
    except OSError as exc:
        raise UnusableInput(str(exc)) from exc
    except (KeyError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UnusableInput(exc.args[0] if exc.args else type(exc).__name__) from exc


def parse_set_spec(spec: str):
    """Configurations by recipe (explicit:<n>, or single:<n>, sum:<n> and
    countable:<n>, the set approx.construct builds at level n; an n too small
    is a ValueError), from a file, or inline as comma-separated dyadics."""
    from .lamplighter import parse_config

    head, _, tail = spec.partition(":")
    if head in ("explicit", "single", "sum", "countable"):
        from . import approx

        try:
            if head == "explicit":
                return approx.explicit_En_hairs(int(tail))
            return approx.construct(head, int(tail)).E
        except PreconditionFailed as exc:
            raise ValueError(f"{spec}: {exc}") from exc
    if head == "file":
        return parse_config(Path(tail).read_text().strip())
    return parse_config(spec)


# ---------------------------------------------------------------------------
# output plumbing


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _csv_bytes(header: Sequence[str], rows: Sequence[Sequence]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _emit(out: Optional[str], command: Sequence[str], report: dict, series, started: float) -> None:
    if out is None:
        return
    import hashlib

    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    payloads = {"report.json": _json_bytes(report)}
    if series is not None:
        header, rows = series
        payloads["series.csv"] = _csv_bytes(header, rows)
    for name, blob in payloads.items():
        (outdir / name).write_bytes(blob)
    manifest = {
        "command": list(command),
        "orientation": get_orientation(),
        "root_hair": root_hair_letter(),
        "outputs": {
            name: hashlib.sha256(blob).hexdigest() for name, blob in payloads.items()
        },
        "wall_clock_s": round(time.monotonic() - started, 3),
    }
    (outdir / "manifest.json").write_bytes(_json_bytes(manifest))


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (ok, report, series)


def _cmd_graph_explore(args):
    region = ball(ROOT, args.n, cap=args.cap)
    rows = []
    skeleton = hairs = 0
    root_rays = 0
    for v, (node, m) in zip(region.vertices, region.addresses):
        depth = node.bit_length() - 1
        if m == 0:
            skeleton += 1
            rows.append([str(v), "skeleton", depth, 0])
        else:
            hairs += 1
            if node == 1 and abs(m) == 1:
                root_rays += 1
            rows.append([str(v), "hair", depth, abs(m)])
    report = {
        "center": str(ROOT),
        "radius": args.n,
        "vertices": len(region.vertices),
        "skeleton": skeleton,
        "hairs": hairs,
        "root_hair_starts": root_rays,
        "ok": root_rays == 2,
    }
    return report["ok"], report, (["vertex", "kind", "base_depth", "offset"], rows)


def _cmd_fn_check(args):
    from .harmonic import VertexFn, is_superharmonic_on
    from .minfn import resolve_phi, resolve_setfn

    with _resolving():
        try:
            F = resolve_phi(args.fn)
        except KeyError:
            F = resolve_setfn(args.fn)
    if isinstance(F, VertexFn):
        region = ball(ROOT, args.n, cap=args.cap)
        rep = is_superharmonic_on(F, region)
        rows = [
            [str(v), str(val), str(pval), str(marg)]
            for v, val, pval, marg in rep.entries
        ]
        report = rep.to_json()
        return rep.ok, report, (["vertex", "phi", "P_phi", "margin"], rows)
    from . import walks
    from .lamplighter import orbit_enumerate, switch_invariant_check

    samples = list(orbit_enumerate((), args.n, cap=args.cap))
    ok_sw, _ = switch_invariant_check(F.fn, samples)
    sup = walks.supermartingale_check(F, samples, mode="lamp")
    report = {
        "fn": args.fn,
        "samples": len(samples),
        "switch_invariant": ok_sw,
        "supermartingale": sup.to_json(),
    }
    return ok_sw and sup.ok, report, None


def _cmd_approx_verify(args):
    from . import approx
    from .minfn import resolve_setfn

    if args.weak and not args.samples:
        raise UnusableInput("--samples must be >= 1")
    if args.beta == "inv_n" and not args.n:
        raise UnusableInput("--n must be >= 1 for --beta inv_n")
    if args.weak and not args.n:
        raise UnusableInput("--n must be >= 1 for --weak")
    with _resolving():
        F = resolve_setfn(args.fn)
        E = parse_set_spec(args.set)
    beta = approx.BETA_SCHEDULES[args.beta](args.n)
    if args.weak:
        rep = approx.weak_verify(F, E, args.n, beta, samples=args.samples, seed=args.seed)
    else:
        rep = approx.strong_verify(F, E, args.n, beta, cap=args.cap)
    return rep.passed, rep.to_json(), None


def _cmd_approx_construct(args):
    from . import approx

    beta = approx.BETA_SCHEDULES[args.beta]
    with _resolving():
        result = approx.construct(args.kind, args.n, args.fn, args.powers, beta)
    rep = approx.strong_verify(result.setfn, result.E, args.n, result.beta, cap=args.cap)
    report = {"construction": result.to_json(), "verify": rep.to_json()}
    return rep.passed, report, None


def _cmd_approx_refute(args):
    from . import approx
    from .lamplighter import serialize_config

    with _resolving():
        E = parse_set_spec(args.set)
    wit = approx.golden_witness(E, args.n)
    report = {"set": serialize_config(E), "n": args.n, "witness": wit.to_json()}
    return True, report, None


def _cmd_walk_green(args):
    from . import walks
    from .minfn import parse_rational

    with _resolving():
        r = parse_rational(args.r)
    if args.trials and not args.steps:
        raise UnusableInput("--steps must be >= 1 for a Monte Carlo run")
    mc = None
    if args.trials:
        # before the exact series, so unusable Monte Carlo input fails fast
        with _resolving():
            mc = walks.green_mc(args.trials, args.steps, seed=args.seed, cap=args.cap)
    series = walks.lumped_return_series(args.n)
    partials = walks.power_partial_sums(series, r)
    report = {
        "n": args.n,
        "r": str(r),
        "partial": str(partials[-1]),
    }
    if mc is not None:
        report["mc"] = mc.to_json()
    rows = [[k, str(term), str(total)] for k, (term, total) in enumerate(zip(series, partials))]
    return True, report, (["n", "p_n", "partial"], rows)


def _cmd_walk_return(args):
    from . import walks

    rep = walks.return_prob(args.n)
    monotone = all(
        rep.partials[i] <= rep.partials[i + 1] for i in range(len(rep.partials) - 1)
    )
    bounded = rep.total < Fraction(3, 4)
    rows = [
        [k, str(rep.first_return[k]), str(rep.partials[k])] for k in range(args.n + 1)
    ]
    report = rep.to_json()
    report["monotone"] = monotone
    report["below_three_quarters"] = bounded
    return monotone and bounded, report, (["n", "first_return", "partial"], rows)


def _cmd_walk_decay(args):
    from . import walks
    from .minfn import resolve_setfn

    with _resolving():
        walk = walks.WalkConfig(
            trials=args.trials,
            steps=args.steps,
            seed=args.seed,
            checkpoints=tuple(int(c) for c in args.checkpoints.split(",")),
            fn_name=args.fn,
        )
        resolve_setfn(walk.fn_name)
    if walk.trials * walk.steps > args.cap:
        raise CapExceeded(f"trials*steps = {walk.trials * walk.steps} exceeds cap {args.cap}")
    rep = walks.potential_decay_experiment(walk)
    marks = sorted(rep.medians)
    decayed = rep.medians[marks[-1]] < rep.medians[marks[0]] if len(marks) > 1 else True
    report = rep.to_json()
    report["decayed"] = decayed
    return rep.ok and decayed, report, None


def _cmd_cx_scan(args):
    from . import freegroup

    if not args.trials:
        raise UnusableInput("--trials must be >= 1")
    configs = freegroup.random_z_configs(args.trials, seed=args.seed)
    worst_len = 0
    for E in configs:
        word, ratio = freegroup.witness_word(E)
        worst_len = max(worst_len, len(word))
        if ratio > Fraction(1, 3):
            return False, {"failed_at": [str(v) for v in E]}, None
    folner = {
        L: str(freegroup.z_boundary_ratio(freegroup.tail_segment(L)))
        for L in (10, 100, 1000)
    }
    report = {
        "configs": len(configs),
        "max_witness_length": worst_len,
        "ratio_bound": "1/3",
        "folner_ratios": folner,
    }
    return worst_len <= 2, report, None


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="extamen")
    sub = top.add_subparsers(dest="group", required=True)

    def common(p, *, n=None, seed=False, cap=None):
        # the shared options the handler reads, always in this order, then --out
        if n is not None:
            p.add_argument("--n", type=int, default=n)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if cap is not None:
            p.add_argument("--cap", type=int, default=cap)
        p.add_argument("--out", default=None)

    graph = sub.add_parser("graph").add_subparsers(dest="action", required=True)
    g = graph.add_parser("explore")
    common(g, n=4, cap=10**6)
    g.set_defaults(handler=_cmd_graph_explore)

    fn = sub.add_parser("fn").add_subparsers(dest="action", required=True)
    f = fn.add_parser("check")
    common(f, n=6, cap=10**6)
    f.add_argument("--fn", required=True)
    f.set_defaults(handler=_cmd_fn_check)

    ap = sub.add_parser("approx").add_subparsers(dest="action", required=True)
    v = ap.add_parser("verify")
    common(v, n=4, seed=True, cap=10**6)
    v.add_argument("--fn", required=True)
    v.add_argument("--set", required=True)
    v.add_argument("--beta", choices=BETA_CHOICES, default="inv_n")
    v.add_argument("--weak", action="store_true")
    v.add_argument("--samples", type=int, default=500)
    v.set_defaults(handler=_cmd_approx_verify)
    c = ap.add_parser("construct")
    common(c, n=4, cap=10**6)
    c.add_argument("--kind", choices=KIND_CHOICES, required=True)
    c.add_argument("--fn", default=None)
    c.add_argument("--powers", default=None)
    c.add_argument("--beta", choices=BETA_CHOICES, default="inv_n")
    c.set_defaults(handler=_cmd_approx_construct)
    rf = ap.add_parser("refute")
    common(rf, n=5)
    rf.add_argument("--set", required=True)
    rf.set_defaults(handler=_cmd_approx_refute)

    walk = sub.add_parser("walk").add_subparsers(dest="action", required=True)
    wg = walk.add_parser("green")
    # green_mc budgets (trials * steps) exceed the generic cap
    common(wg, n=30, seed=True, cap=10**10)
    wg.add_argument("--r", default="1")
    wg.add_argument("--trials", type=int, default=0)
    wg.add_argument("--steps", type=int, default=10**5)
    wg.set_defaults(handler=_cmd_walk_green)
    wr = walk.add_parser("return")
    common(wr, n=30)
    wr.set_defaults(handler=_cmd_walk_return)
    wd = walk.add_parser("decay")
    # like green_mc, a decay run is budgeted by trials * steps
    common(wd, seed=True, cap=10**10)
    wd.add_argument("--trials", type=int, default=100)
    wd.add_argument("--steps", type=int, default=1000)
    wd.add_argument("--checkpoints", default="100,1000")
    wd.add_argument("--fn", default=DECAY_FN_DEFAULT)
    wd.set_defaults(handler=_cmd_walk_decay)

    cx = sub.add_parser("cx").add_subparsers(dest="action", required=True)
    s = cx.add_parser("scan")
    common(s, seed=True)
    s.add_argument("--trials", type=int, default=200)
    s.set_defaults(handler=_cmd_cx_scan)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    started = time.monotonic()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in NONNEGATIVE_OPTIONS:
            value = getattr(args, name, None)
            if value is not None and value < 0:
                raise UnusableInput(f"--{name} must be >= 0, got {value}")
        ok, report, series = args.handler(args)
    except UnusableInput as exc:
        print(f"unusable input: {exc}", file=sys.stderr)
        return 1
    except (CapExceeded, SearchExhausted) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except ExtamenError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    _emit(args.out, list(argv), report, series, started)
    status = "PASS" if ok else "FAIL"
    brief = {k: v for k, v in report.items() if not isinstance(v, (dict, list))}
    print(f"{status} {json.dumps(brief, sort_keys=True)}")
    return 0 if ok else 1
