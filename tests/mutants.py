"""Kept mutants: deliberate one-place breaks of a check or rule, each of
which the tier-1 tests must catch.

    python tests/mutants.py [NAME ...]

For each entry of ``MUTANTS`` (or only the named ones) the checkout,
without ``.git``, is copied to a temporary directory, the entry's old
text (which must occur exactly once in its file) is replaced by its new
text, and the tier-1 tests run there with ``-x``.  A mutant is killed
when they fail.  One line per mutant gives its verdict and seconds; the
exit status is 1 when any mutant survives.  Standard library only.
pytest does not collect this file; ``tests/test_mutants.py`` checks that
every old text still occurs exactly once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STABLE = "src/repstable/stable.py"
STRINGS = "src/repstable/strings.py"

# (name, file, exact old text, new text)
MUTANTS = [
    # The almost split sequence: the pushout's signs and its certificate.
    ("pushout-sign-two-middles", STRINGS,
     "return end, [({j: j for j in range(k + 1)}, -1),",
     "return end, [({j: j for j in range(k + 1)}, 1),"),
    ("pushout-sign-biserial", STRINGS,
     "if at[i] in nu}, -1) for s in surgeries]",
     "if at[i] in nu}, 1) for s in surgeries]"),
    ("no-exactness-raise", STRINGS,
     "if not modules.check_ses(modules.ShortExactSeq(f, g)).global_exact:",
     "if False:"),
    # The ladder squares of triangle_from_ses.
    ("no-ladder-square-u", STABLE,
     "if not (modules.compose(umap, f) - iota).is_zero():",
     "if False:"),
    ("no-ladder-square-hpp", STABLE,
     "if not (modules.compose(hpp, g) - piu).is_zero():",
     "if False:"),
    # The shape table, the trichotomy and art2.
    ("no-pair-table", STABLE,
     "    if clause is None:",
     "    if False:"),
    ("no-projective-dichotomy", STABLE,
     "if chp.kind != expected:",
     "if False:"),
    ("no-simple-injective-condition", STABLE,
     "elif not upper_simple:",
     "elif False:"),
    ("no-split-mono-start-rule", STABLE,
     'if ch.kind == "smonic" and phat_info is not None:',
     "if False:"),
    ("no-trichotomy-raise", STABLE,
     "if len(neither) != 1:",
     "if False:"),
    ("art2-always-true", STABLE,
     "report.art2 = factor_through_projinj(tri.hpp) is None",
     "report.art2 = True"),
    # Rules that every layer relies on.
    ("rad-square-through-all-of-hom", STABLE,
     "for r in modules.radical_hom(fi.target, h.target)",
     "for r in modules.hom_basis(fi.target, h.target)"),
    ("extend-without-forbidden-check", STRINGS,
     "if tuple(sub) in self.forbidden:",
     "if False:"),
    ("reversed-socle-paths", "src/repstable/repetitive.py",
     "for p, k in self._realizations[v]]",
     "for p, k in reversed(self._realizations[v])]"),
    ("no-back-elimination", "src/repstable/linalg.py",
     "for pc in holders.pop(c, ()):",
     "for pc in ():"),
    ("eigenvalue-off", "src/repstable/modules.py",
     "c = _eigenvalue(m, h)",
     "c = 0"),
]


def mutate(root, path, old, new):
    full = os.path.join(root, path)
    with open(full) as fh:
        text = fh.read()
    if text.count(old) != 1:
        raise SystemExit("%s: old text occurs %d times: %r"
                         % (path, text.count(old), old))
    with open(full, "w") as fh:
        fh.write(text.replace(old, new))


def run(path, old, new):
    """(tier-1 exit status, seconds) on a mutated copy of the checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "out", ".perfbench_out"))
        mutate(copy, path, old, new)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(copy, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        start = time.perf_counter()
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x",
             "-p", "no:cacheprovider", "--continue-on-collection-errors"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode
        return status, time.perf_counter() - start


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    survivors = []
    for name, path, old, new in chosen:
        status, seconds = run(path, old, new)
        verdict = "killed" if status else "SURVIVED"
        if not status:
            survivors.append(name)
        print("%-32s %-8s %6.1f s" % (name, verdict, seconds), flush=True)
    print("%d mutants, %d survived%s" % (
        len(chosen), len(survivors),
        ": " + ", ".join(survivors) if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
