"""Structured-text inputs: IFS specification files and experiment configs.

IFS file — one directive per line, '#' comments:

    name my-cantor
    kind affine
    interval 0 1
    map 1/3 0
    map 1/3 2/3
    weights 1/2 1/2

Ratios and translations are exact rationals written p/q.  A builtin
system (ifs_core.BUILTINS) is named by the reference `builtin:<name>` (see
`resolve_system`) wherever a file path is accepted.

Config file — flat `key value` pairs plus a single `include <path>`
directive (included values are read first and may be overridden).
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .ifs_core import AffineMap, Ifs, WeightVector, builtin


class SpecFileError(ValueError):
    def __init__(self, path, line_no, msg):
        super().__init__(f"{path}:{line_no}: {msg}")
        self.path = path
        self.line_no = line_no


def _lines(path):
    for i, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def resolve_system(ref):
    """(ifs, weights) named by `builtin:<name>` (see ifs_core.BUILTINS) or by
    the path of an IFS file; weights is None when the file gives none."""
    if ref.startswith("builtin:"):
        return builtin(ref.split(":", 1)[1])
    return parse_ifs_file(ref)


def parse_ifs_file(path):
    kind = None
    interval = None
    maps = []
    weights = None
    name = None
    for line_no, line in _lines(path):
        parts = line.split()
        key, args = parts[0], parts[1:]
        try:
            if key == "name":
                name = " ".join(args)
            elif key == "kind":
                kind = args[0]
                if kind != "affine":
                    raise ValueError("only 'affine' systems can be specified in files; "
                                     "smooth systems come from the builtin catalog")
            elif key == "interval":
                interval = (Fraction(args[0]), Fraction(args[1]))
            elif key == "map":
                maps.append(AffineMap(Fraction(args[0]), Fraction(args[1])))
            elif key == "weights":
                weights = WeightVector([Fraction(a) for a in args])
            else:
                raise ValueError(f"unknown directive {key!r}")
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            raise SpecFileError(path, line_no, str(exc)) from exc
    if kind is None:
        raise SpecFileError(path, 0, "missing field: kind")
    if interval is None:
        raise SpecFileError(path, 0, "missing field: interval")
    if len(maps) < 2:
        raise SpecFileError(path, 0, "missing field: need at least two 'map' lines")
    if weights is not None and len(weights) != len(maps):
        raise SpecFileError(path, 0, "weights length does not match the map count")
    try:
        ifs = Ifs(maps, interval, name=name or Path(path).stem)
    except ValueError as exc:
        raise SpecFileError(path, 0, str(exc)) from exc
    return ifs, weights


def serialize_ifs(ifs, weights=None):
    if not ifs.is_affine:
        raise ValueError("only affine systems serialize to spec files")
    lines = [f"name {ifs.name}", "kind affine", f"interval {ifs.interval[0]} {ifs.interval[1]}"]
    for m in ifs.maps:
        lines.append(f"map {m.ratio} {m.translation}")
    if weights is not None:
        lines.append("weights " + " ".join(str(w) for w in weights))
    return "\n".join(lines) + "\n"


def parse_config(path, _depth=0):
    if _depth > 8:
        raise SpecFileError(path, 0, "include chain too deep")
    out = {}
    included = False
    for line_no, line in _lines(path):
        parts = line.split(None, 1)
        key = parts[0]
        value = parts[1].strip() if len(parts) > 1 else ""
        if key == "include":
            if included:
                raise SpecFileError(path, line_no, "only one include directive is allowed")
            included = True
            target = Path(path).parent / value
            base = parse_config(target, _depth + 1)
            base.update(out)
            out = base
        else:
            out[key] = value
    return out
