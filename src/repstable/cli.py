"""Command-line front end: pipelines from a presentation file to
classified components and shape findings.

Reports are line-delimited records with a fixed field order; the DOT
output is for humans, the records are the API.  Every artifact embeds the
run configuration and the library version, so re-running a command with
the same configuration reproduces byte-identical files.  Partial artifacts
are only ever written under a ``.partial`` name.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from importlib import resources

from . import __version__, modules, stable, strings
from .fields import get_field
from .presentation import (
    ParseError,
    PresentationError,
    parse_presentation,
    validate_gentle,
)
from .repetitive import WindowError, build_repetitive_window


@dataclass
class RunConfig:
    command: str
    input_path: str
    window: tuple
    max_len: int
    universe_dim: int
    out_dir: str
    characteristic: int
    seed: str

    def header_lines(self):
        return [
            "# repstable %s" % __version__,
            "# command=%s input=%s window=%d..%d max-len=%d "
            "universe-dim=%d char=%d seed=%s"
            % (self.command, os.path.basename(self.input_path),
               self.window[0], self.window[1], self.max_len,
               self.universe_dim, self.characteristic, self.seed or "-"),
        ]


class CliError(Exception):
    pass


# Every exception class the package defines; main reports each as one
# ``error:`` line with exit status 2.
ERRORS = (CliError, ParseError, PresentationError, WindowError,
          modules.ModuleError, modules.DecomposeError,
          strings.StringError, strings.ArInjectiveError,
          strings.EnlargementError,
          stable.TrichotomyError, stable.TheoremViolationError)


def _write_artifact(out_dir: str, name: str, text: str):
    partial = os.path.join(out_dir, name + ".partial")
    final = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(partial, "w") as fh:
            fh.write(text)
        os.replace(partial, final)
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (final, exc))
    return final


def _load_presentation(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc))
    try:
        return parse_presentation(text)
    except ParseError as exc:
        raise CliError("parse error in %s at %s" % (path, exc))


def _parse_seed(text: str) -> strings.StringWord:
    if text.startswith("v:"):
        return strings.StringWord(text[2:], ())
    letters = []
    for tok in text.split("."):
        if tok.endswith("^-1"):
            letters.append((tok[:-3], -1))
        else:
            letters.append((tok, 1))
    return strings.StringWord("", tuple(letters))


def _resolve_seed(win, text: str) -> strings.StringWord:
    w = _parse_seed(text)
    if not w.letters:
        if w.source not in win.presentation.quiver.vertices:
            raise CliError("seed vertex %r is not in the window" % w.source)
        return w
    name, sign = w.letters[0]
    if name not in win.presentation.quiver.arrows:
        raise CliError("seed arrow %r is not in the window" % name)
    arr = win.presentation.quiver.arrows[name]
    src = arr.source if sign > 0 else arr.target
    word = strings.StringWord(src, w.letters)
    ctx = strings.window_context(win)
    if not ctx.is_valid(word):
        raise CliError("seed %r is not a valid string word" % text)
    return word


def cmd_validate(cfg: RunConfig):
    pres = _load_presentation(cfg.input_path)
    report = validate_gentle(pres)
    lines = cfg.header_lines() + [str(report)]
    text = "\n".join(lines) + "\n"
    _write_artifact(cfg.out_dir, "validate.txt", text)
    print(str(report))
    return 0 if report.is_gentle else 1


def cmd_repetitive(cfg: RunConfig):
    pres = _load_presentation(cfg.input_path)
    win = build_repetitive_window(pres, *cfg.window)
    dsl, sidecar = win.serialize()
    _write_artifact(cfg.out_dir, "window.quiver",
                    "\n".join(cfg.header_lines()) + "\n" + dsl)
    _write_artifact(cfg.out_dir, "window.degrees",
                    "\n".join(cfg.header_lines()) + "\n" + sidecar)
    print("window %d..%d written" % (win.lo, win.hi))
    return 0


def cmd_strings(cfg: RunConfig):
    pres = _load_presentation(cfg.input_path)
    win = build_repetitive_window(pres, *cfg.window)
    words = strings.enumerate_strings(win, cfg.max_len)
    lines = cfg.header_lines() + ["# %d words up to length %d"
                                  % (len(words), cfg.max_len)]
    lines.extend(str(w) for w in words)
    _write_artifact(cfg.out_dir, "strings.txt", "\n".join(lines) + "\n")
    print("%d words" % len(words))
    return 0


def cmd_ar(cfg: RunConfig):
    pres = _load_presentation(cfg.input_path)
    win = build_repetitive_window(pres, *cfg.window)
    if not cfg.seed:
        raise CliError("ar: --seed WORD is required")
    word = _resolve_seed(win, cfg.seed)
    fld = get_field(cfg.characteristic)
    seq, win2 = strings.ar_sequence(win, word, fld)
    universe = [strings.string_module(win2, w, fld)
                for w in strings.enumerate_strings(
                    win2, max(cfg.universe_dim - 1, 0))]
    universe.extend(win2.all_projectives(fld))
    report = stable.check_ar_axioms(seq, universe)
    lines = cfg.header_lines()
    lines.append("start\t%s" % seq.meta["start_word"])
    lines.append("middles\t%s" % "+".join(str(w) for w
                                          in seq.meta["middle_words"]))
    proj = seq.meta["projective"]
    lines.append("projective\t%s" % ("%s@%d" % proj if proj else "-"))
    lines.append("end\t%s" % seq.meta["end_word"])
    lines.append("window\t%d..%d" % seq.meta["window"])
    for ax in ("ars1", "ars2", "art1", "art2", "art3", "art3_star"):
        lines.append("%s\t%s" % (ax, getattr(report, ax)))
    lines.append("universe\t%d" % report.universe_size)
    for d in report.details:
        lines.append("detail\t%s" % d)
    _write_artifact(cfg.out_dir, "ar.txt", "\n".join(lines) + "\n")
    ok = (report.ars1 and report.ars2 and report.art1 and report.art2
          and report.art3 and report.art3_star)
    print("almost split axioms: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def _knit(cfg: RunConfig):
    """The component that ``knit``, ``triangles`` and ``example4`` report
    on, knitted from the configured seed."""
    pres = _load_presentation(cfg.input_path)
    win = build_repetitive_window(pres, *cfg.window)
    fld = get_field(cfg.characteristic)
    seed = (_resolve_seed(win, cfg.seed) if cfg.seed
            else strings.StringWord(
                win.vname(sorted(win.base.quiver.vertices)[0],
                          (win.lo + win.hi) // 2), ()))
    steps = max(cfg.max_len, 1)
    return strings.knit_component(
        win, seed, steps, fld,
        classifier=lambda h: str(stable.classify_irreducible(h)))


def cmd_knit(cfg: RunConfig):
    return _write_component(cfg, _knit(cfg))


def _write_component(cfg: RunConfig, comp):
    header = "\n".join(cfg.header_lines()) + "\n"
    _write_artifact(cfg.out_dir, "component.dot",
                    header + strings.component_dot(comp))
    _write_artifact(cfg.out_dir, "component.tsv",
                    header + strings.component_table(comp))
    print("%d meshes, %d nodes%s"
          % (len(comp.meshes), len(comp.nodes),
             " (truncated)" if comp.truncated else ""))
    return 0 if not comp.truncated else 1


def _finding_record(cfg: RunConfig, i, mesh, finding):
    return "\t".join([
        str(i), str(strings.StringWord.decode(mesh.start)),
        str(strings.StringWord.decode(mesh.end)),
        str(finding.class_h), str(finding.class_hp),
        finding.clause or "VIOLATION",
        "yes" if finding.p_present else "no",
        {True: "yes", False: "no", None: "-"}[finding.lower_simple],
        "%d..%d" % mesh.window,
        str(cfg.universe_dim or "-"),
        "pass" if finding.passed else "; ".join(finding.violations),
    ])


FINDINGS_HEADER = ("# triangle\tstart\tend\tclass_h\tclass_hp\tclause\t"
                   "projective\thom_qi_simple\twindow\tuniverse\tverdict")


def cmd_triangles(cfg: RunConfig):
    return _write_findings(cfg, _knit(cfg))


def _write_findings(cfg: RunConfig, comp):
    lines = cfg.header_lines() + [FINDINGS_HEADER]
    all_pass = True
    for i, mesh in enumerate(comp.meshes):
        finding = stable.verify_shape_table(
            *stable.ar_triangle_from_sequence(mesh.seq))
        all_pass = all_pass and finding.passed
        lines.append(_finding_record(cfg, i, mesh, finding))
    _write_artifact(cfg.out_dir, "findings.tsv", "\n".join(lines) + "\n")
    print("%d triangles, %s" % (len(comp.meshes),
                                "all pass" if all_pass else "VIOLATIONS"))
    return 0 if all_pass else 1


def _bundled_example() -> str:
    return str(resources.files("repstable").joinpath("data/example4.quiver"))


def cmd_example4(cfg: RunConfig, check: bool):
    cfg.input_path = _bundled_example()
    cfg.window = (-3, 5)
    cfg.max_len = 12
    cfg.seed = "v:1@0"
    comp = _knit(cfg)
    rc1 = _write_component(cfg, comp)
    rc2 = _write_findings(cfg, comp)
    if rc1 or rc2:
        return rc1 or rc2
    if not check:
        return 0
    golden_dir = resources.files("repstable").joinpath("data/golden/example4")
    mismatches = []
    for name in ("component.dot", "component.tsv", "findings.tsv"):
        produced = open(os.path.join(cfg.out_dir, name)).read()
        expected = golden_dir.joinpath(name).read_text()
        if produced != expected:
            mismatches.append(name)
    if mismatches:
        print("golden mismatch: %s" % ", ".join(mismatches))
        return 1
    print("golden diff clean")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a :class:`CliError` instead of a usage
    block and exit status 2 of its own."""

    def error(self, message):
        raise CliError(message)


def build_parser():
    ap = _Parser(
        prog="repstable",
        description="Repetitive windows of gentle algebras: strings, almost "
                    "split sequences and stable triangle classification.")
    ap.add_argument("command",
                    choices=["validate", "repetitive", "strings", "ar",
                             "knit", "triangles", "example4"])
    ap.add_argument("input", nargs="?", default="",
                    help="presentation file (unused by example4)")
    ap.add_argument("--window", nargs=2, type=int, default=[0, 4],
                    metavar=("LO", "HI"))
    ap.add_argument("--max-len", type=int, default=6)
    ap.add_argument("--universe-dim", type=int, default=12)
    ap.add_argument("--char", type=int, default=0)
    ap.add_argument("--seed", default="", metavar="WORD")
    ap.add_argument("--out", default="out")
    ap.add_argument("--check", action="store_true",
                    help="compare example4 artifacts against the bundled "
                         "golden files")
    return ap


def cmd_dispatch(cfg: RunConfig, check: bool = False) -> int:
    handlers = {
        "validate": cmd_validate,
        "repetitive": cmd_repetitive,
        "strings": cmd_strings,
        "ar": cmd_ar,
        "knit": cmd_knit,
        "triangles": cmd_triangles,
    }
    if cfg.command == "example4":
        return cmd_example4(cfg, check)
    if not cfg.input_path:
        raise CliError("%s: an input presentation file is required"
                       % cfg.command)
    return handlers[cfg.command](cfg)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.window[0] + 2 > args.window[1]:
            raise CliError("window must span at least 3 degrees")
        if args.max_len < 0:
            raise CliError("--max-len must be at least 0, got %d"
                           % args.max_len)
        if args.universe_dim < 1:
            raise CliError("--universe-dim must be at least 1, got %d"
                           % args.universe_dim)
        try:
            get_field(args.char)
        except ValueError:
            raise CliError("characteristic must be 0 or a prime, got %d"
                           % args.char)
        cfg = RunConfig(args.command, args.input, tuple(args.window),
                        args.max_len, args.universe_dim, args.out,
                        args.char, args.seed)
        return cmd_dispatch(cfg, args.check)
    except ERRORS as exc:
        print("error: %s" % "; ".join(str(exc).splitlines()),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
