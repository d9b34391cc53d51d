"""Deterministic command-line surface.

Exit codes: 0 for success or a verification pass, 1 for a verification
failure, 2 for an input error.  Output is byte-identical for identical
inputs, flags and seed (randomized commands draw from Python's Mersenne
Twister seeded with the string "<seed>:<check name>").
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .complexes import ValidationError, sigma_tower_report
from .homotopy import cylinder, homotopy_pushout, skeleton_pushout_check, weq_certificate, wrap
from .serialization import (
    ParseError,
    certificate_to_doc,
    parse_file,
    simplicial_set_from_doc,
    ref_from_text,
)
from .simpab import bar_B, ez_maps, kn_roundtrip_ok, nk_roundtrip_iso, normalize_N
from .simplicial import SimplicialMap
from .spaces import chains
from .suite import run_suite


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _homology_line(groups) -> str:
    return " ".join("H%d=%s" % (n, g) for n, g in groups)


def _load(path: str):
    try:
        return parse_file(path)
    except FileNotFoundError:
        raise CliError("no such file: %s" % path)
    except (ParseError, ValidationError) as exc:
        raise CliError("%s: %s" % (path, exc))


def _need(paths, count, what):
    if len(paths) < count:
        raise CliError("command needs %d --in file(s): %s" % (count, what))


def _expect(obj, kind, want, path):
    if kind != want:
        raise CliError("%s: expected a %s document, found %s" % (path, want, kind))
    return obj


def _range(args, default):
    if args.range is None:
        return default
    if args.range < 0:
        raise CliError("--range must be nonnegative")
    return args.range


def _write_out(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_homology(args, out):
    _need(args.inputs, 1, "a chain complex")
    kind, c = _load(args.inputs[0])
    c = _expect(c, kind, "chain-complex", args.inputs[0])
    line = _homology_line((n, c.homology(n)) for n in c.degrees())
    print(line, file=out)
    _write_out(args, line + "\n")
    return 0


def cmd_space_homology(args, out):
    _need(args.inputs, 1, "a simplicial set")
    kind, x = _load(args.inputs[0])
    x = _expect(x, kind, "simplicial-set", args.inputs[0])
    c = chains(x, normalized=True)
    line = _homology_line((n, c.homology(n)) for n in range(c.max_deg + 1))
    print(("reduced " if x.pointed else "") + line, file=out)
    _write_out(args, line + "\n")
    return 0


def cmd_nk_roundtrip(args, out):
    _need(args.inputs, 1, "a chain complex or simplicial group")
    d = args.dim if args.dim is not None else 3
    if d < 0:
        raise CliError("--dim must be nonnegative, got %d" % d)
    kind, obj = _load(args.inputs[0])
    if kind == "chain-complex":
        try:
            iso = nk_roundtrip_iso(obj, d)
        except ValidationError as exc:
            print("nk-roundtrip: FAIL (%s)" % exc, file=out)
            return 1
        print("nk-roundtrip: OK (degrees 0..%d compare equal)" % max(iso), file=out)
        return 0
    if kind == "simplicial-group":
        ok = kn_roundtrip_ok(obj)
        print("kn-roundtrip: %s" % ("OK" if ok else "FAIL"), file=out)
        return 0 if ok else 1
    raise CliError("%s: need a chain complex or a simplicial group" % args.inputs[0])


def cmd_bar(args, out):
    _need(args.inputs, 1, "a simplicial group")
    kind, a = _load(args.inputs[0])
    a = _expect(a, kind, "simplicial-group", args.inputs[0])
    na = normalize_N(a)
    nb = normalize_N(bar_B(a))
    print("input " + _homology_line((i, na.homology(i)) for i in range(a.D)), file=out)
    print("bar   " + _homology_line((i, nb.homology(i)) for i in range(a.D)), file=out)
    ok = nb.homology(0).is_zero() and all(
        nb.homology(i) == na.homology(i - 1) for i in range(1, a.D)
    )
    print("shift-by-one: %s" % ("OK" if ok else "FAIL"), file=out)
    return 0 if ok else 1


def cmd_ez_verify(args, out):
    _need(args.inputs, 1, "one or two simplicial groups")
    kind, a = _load(args.inputs[0])
    a = _expect(a, kind, "simplicial-group", args.inputs[0])
    if len(args.inputs) > 1:
        kind2, b = _load(args.inputs[1])
        b = _expect(b, kind2, "simplicial-group", args.inputs[1])
        if b.D != a.D:
            raise CliError("%s: truncation dimension %d differs from %d in %s"
                           % (args.inputs[1], b.D, a.D, args.inputs[0]))
    else:
        b = a
    pair = ez_maps(a, b)
    strict = pair.strict_identity_ok()
    print("aw o shuffle = id: %s" % ("OK" if strict else "FAIL"), file=out)
    agree = all(
        pair.shuffle.source.homology(n) == pair.shuffle.target.homology(n)
        for n in range(a.D)
    )
    print("homology of the two tensor models agrees in range: %s"
          % ("OK" if agree else "FAIL"), file=out)
    return 0 if strict and agree else 1


def cmd_wr_verify(args, out):
    _need(args.inputs, 1, "a pointed simplicial set")
    kind, x = _load(args.inputs[0])
    x = _expect(x, kind, "simplicial-set", args.inputs[0])
    if not x.pointed:
        raise CliError("%s: wrap verification needs a pointed space" % args.inputs[0])
    d = args.dim if args.dim is not None else 4
    if d < 0:
        raise CliError("--dim must be nonnegative, got %d" % d)
    rng_range = _range(args, max(0, d - 1))
    if rng_range > d - 1:
        if args.range is None:
            raise CliError("--dim must be at least 1 (trusted range 0..dim-1)")
        raise CliError("--range must be at most dim - 1 (trusted range)")
    wr = wrap(x, d)
    cert = weq_certificate(wr.counit, rng_range)
    print("counit certificate: %s" % ("PASS" if cert.passed else "FAIL"), file=out)
    print("  pi0 bijective: %s" % cert.pi0_bijective, file=out)
    for n in sorted(cert.homology_iso):
        print("  homology degree %d: %s" % (n, "ok" if cert.homology_iso[n] else "MISMATCH"),
              file=out)
    print("  groupoid comparison: %s" % cert.groupoid_match, file=out)
    ok = cert.passed
    for n in range(min(3, d - 1)):
        rep = skeleton_pushout_check(x, n, d)
        print("skeleton square n=%d: %s" % (n, "OK" if rep.holds else "FAIL"), file=out)
        ok = ok and rep.holds
    _write_out(args, json.dumps(certificate_to_doc(cert), indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


def _map_from_doc(doc, source, target, label):
    if not isinstance(doc, dict) or not isinstance(doc.get("cells"), dict):
        raise CliError("map %r needs a cells table" % label)
    try:
        assignment = {c: ref_from_text(str(t)) for c, t in doc["cells"].items()}
        return SimplicialMap(source, target, assignment)
    except (ParseError, ValidationError) as exc:
        raise CliError("map %r: %s" % (label, exc))


def _load_diagram(path, parts, needs):
    """The JSON object at path and the simplicial sets stored under parts."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CliError("no such file: %s" % path)
    except json.JSONDecodeError as exc:
        raise CliError("%s: invalid JSON: %s" % (path, exc.msg))
    if not isinstance(doc, dict):
        raise CliError("%s: expected a JSON object, found %s" % (path, type(doc).__name__))
    spaces = []
    for name in parts:
        if name not in doc:
            raise CliError("%s: %s (missing %r)" % (path, needs, name))
        if not isinstance(doc[name], dict):
            raise CliError("%s: %s must be a JSON object" % (path, name))
        try:
            spaces.append(simplicial_set_from_doc(doc[name]))
        except (ParseError, ValidationError) as exc:
            raise CliError("%s: %s" % (path, exc))
    return doc, spaces


def cmd_pushout(args, out):
    _need(args.inputs, 1, "a diagram document")
    doc, (k, l, m) = _load_diagram(args.inputs[0], ("K", "L", "M"),
                                   "diagram needs K, L, M and maps f, g")
    f = _map_from_doc(doc.get("f"), k, l, "f")
    g = _map_from_doc(doc.get("g"), k, m, "g")
    try:
        hp = homotopy_pushout(f, g)
    except ValueError as exc:  # unpointed spaces or maps
        raise CliError("%s: %s" % (args.inputs[0], exc))
    c = chains(hp.space, normalized=True)
    print("homotopy pushout " + _homology_line((n, c.homology(n)) for n in range(c.max_deg + 1)),
          file=out)
    copro = hp.from_left.is_levelwise_injective() and hp.from_right.is_levelwise_injective()
    print("structural maps are termwise coprojections: %s" % ("OK" if copro else "FAIL"),
          file=out)
    return 0 if copro else 1


def cmd_cylinder(args, out):
    _need(args.inputs, 1, "a map document")
    rng_range = _range(args, 2)
    doc, (k, l) = _load_diagram(args.inputs[0], ("source", "target"),
                                "need source, target and map")
    f = _map_from_doc(doc.get("map"), k, l, "map")
    try:
        cyl = cylinder(f)
    except ValueError as exc:  # unpointed spaces or map
        raise CliError("%s: %s" % (args.inputs[0], exc))
    strict = cyl.retraction.compose(cyl.from_target) == SimplicialMap.identity(l)
    print("retraction o inclusion = id: %s" % ("OK" if strict else "FAIL"), file=out)
    cert = weq_certificate(cyl.retraction, rng_range)
    print("retraction certificate: %s" % ("PASS" if cert.passed else "FAIL"), file=out)
    _write_out(args, json.dumps(certificate_to_doc(cert), indent=2, sort_keys=True) + "\n")
    return 0 if strict and cert.passed else 1


def cmd_tower_report(args, out):
    _need(args.inputs, 2, "two chain complexes K and L")
    kind1, k = _load(args.inputs[0])
    k = _expect(k, kind1, "chain-complex", args.inputs[0])
    kind2, l = _load(args.inputs[1])
    l = _expect(l, kind2, "chain-complex", args.inputs[1])
    rep = sigma_tower_report(k, l)
    print("stabilization index: %d" % rep.stabilization_index, file=out)
    for n, g in rep.tower:
        print("  [trunc<=%d K, L] = %s" % (n, g), file=out)
    print("limit group: %s" % rep.limit_group, file=out)
    print("full group:  %s" % rep.hom_full, file=out)
    print("derived limit vanishes: %s" % rep.lim1_vanishes, file=out)
    print("limit = full group (verified): %s" % rep.exactness_verified, file=out)
    return 0 if rep.exactness_verified and rep.lim1_vanishes else 1


def cmd_suite(args, out):
    seed = args.seed if args.seed is not None else 0
    size = args.size or "small"
    report, ok = run_suite(seed, size)
    print(report, end="", file=out)
    _write_out(args, report)
    return 0 if ok else 1


COMMANDS = {
    "homology": (cmd_homology, "homology of a chain complex file"),
    "space-homology": (cmd_space_homology, "homology of a simplicial set file"),
    "nk-roundtrip": (cmd_nk_roundtrip, "verify the normalization round trip"),
    "bar": (cmd_bar, "bar construction and its degree shift"),
    "ez-verify": (cmd_ez_verify, "strict shuffle/Alexander-Whitney cancellation"),
    "wr-verify": (cmd_wr_verify, "wrapping counit certificate and skeletal squares"),
    "pushout": (cmd_pushout, "homotopy pushout of a diagram document"),
    "cylinder": (cmd_cylinder, "mapping cylinder with strict retraction"),
    "tower-report": (cmd_tower_report, "hard-truncation Hom tower report"),
    "suite": (cmd_suite, "run the randomized verification suite"),
}

FLAGS = {
    "--in": dict(dest="inputs", action="append", default=[], metavar="PATH",
                 help="input file (repeatable)"),
    "--out": dict(metavar="PATH", help="also write the report here"),
    "--dim": dict(type=int, help="dimension cap / truncation"),
    "--range": dict(type=int, help="certificate range"),
    "--seed": dict(type=int, help="random seed"),
    "--size": dict(choices=("small", "medium"), help="suite size"),
}

# the flags each command reads; a command not listed reads --in only
COMMAND_FLAGS = {
    "homology": ("--in", "--out"),
    "space-homology": ("--in", "--out"),
    "nk-roundtrip": ("--in", "--dim"),
    "wr-verify": ("--in", "--out", "--dim", "--range"),
    "cylinder": ("--in", "--out", "--range"),
    "suite": ("--out", "--seed", "--size"),
}


# built once per process: parse_args fills a fresh namespace on each call,
# and an "append" action copies its default list before appending
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skernel",
        description="exact-arithmetic kernel for simplicial homotopy computations",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in COMMAND_FLAGS.get(name, ("--in",)):
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if not args.command:
        parser.print_help()
        return 2
    fn, _ = COMMANDS[args.command]
    try:
        if extra:
            raise CliError("%s does not take %s" % (args.command, extra[0].split("=")[0]))
        return fn(args, sys.stdout)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except (ParseError, ValidationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
