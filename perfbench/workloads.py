"""The four fixed workloads of the repstable benchmark.

Each workload is one fixed job, run as a closed loop: one caller, and
the next operation starts only after the previous one has finished.

* ``setup`` parses the presentation and builds the window.  It is timed
  apart from the job (``setup_s``) and repeated before every pass, so
  that no pass inherits the per-window caches of the one before.
* ``prepare`` does the job's shared steps (knitting, enumerating words)
  and returns the operations; it is part of the timed job.
* ``check`` decides, untimed, whether each operation's result is
  correct.

``prepare`` and ``check`` also receive the pass's ``Probes`` (see
``run.py``); only ``ex4-cli``, whose work runs in child processes, uses
them.

The default seed 0 runs the operations in the order listed below; another
seed runs the same operations in a shuffled order.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from importlib import resources

from repstable import stable, strings
from repstable.fields import PrimeField, QQ
from repstable.presentation import parse_presentation
from repstable.repetitive import build_repetitive_window
from repstable.strings import StringWord

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

A2_TEXT = "vertices 1 2\narrow a : 1 -> 2\n"
A3_TEXT = "vertices 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\nzero a b\n"
TWOLOOP_TEXT = ("vertices 1 2\narrow l : 1 -> 1\narrow a : 1 -> 2\n"
                "arrow m : 2 -> 2\nzero l l\nzero m m\nnilpotent 8\n")
EX4_NAMES = ("component.dot", "component.tsv", "findings.tsv")


def _example4_text():
    return (resources.files("repstable")
            .joinpath("data/example4.quiver").read_text())


@dataclass
class Op:
    key: str        # stable identifier of the operation within the job
    field: str      # "qq" or "gf101": the field the operation computes in
    run: object     # callable with no arguments; its result is checked


class TwoloopTriangles:
    """Two-loop algebra, window -2..5 over QQ: knit 8 meshes from 1@1; one
    operation is one mesh's triangle and its shape-table verdict."""

    name = "twoloop-triangles"
    field = "qq"
    in_process = True

    def __init__(self, tiny=False):
        self.meshes = 2 if tiny else 8

    def setup(self):
        return build_repetitive_window(parse_presentation(TWOLOOP_TEXT), -2, 5)

    def prepare(self, win, probes):
        seed = StringWord(win.vname("1", 1), ())
        comp = strings.knit_component(win, seed, self.meshes, QQ)
        if len(comp.meshes) != self.meshes or comp.truncated:
            raise RuntimeError("knit gave %d meshes, truncated=%s"
                               % (len(comp.meshes), comp.truncated))
        return [Op("mesh%d" % i, "qq",
                   lambda mesh=mesh: self._triangle(mesh))
                for i, mesh in enumerate(comp.meshes)]

    @staticmethod
    def _triangle(mesh):
        tri, phat = stable.ar_triangle_from_sequence(mesh.seq)
        return stable.verify_shape_table(tri, phat)

    def check(self, win, results, probes):
        return {key: ((str(f.class_h), str(f.class_hp), f.clause, f.passed),
                      f.passed)
                for key, f in results.items()}


class ArOracle:
    """A2 and A3, window 0..3: one operation is the almost split sequence
    of one word (length <= 4) with its six axioms checked against the words
    up to length 8 plus the projectives, in char 0 or in char 101."""

    name = "ar-oracle"
    field = None
    in_process = True

    def __init__(self, tiny=False):
        self.word_len, self.universe_len = (0, 1) if tiny else (4, 8)
        self.min_sequences = 1 if tiny else 20

    def setup(self):
        return {key: build_repetitive_window(parse_presentation(text), 0, 3)
                for key, text in (("a2", A2_TEXT), ("a3", A3_TEXT))}

    def prepare(self, wins, probes):
        ops = []
        for label, fld in (("qq", QQ), ("gf101", PrimeField(101))):
            for key, win in wins.items():
                universe_words = strings.enumerate_strings(
                    win, self.universe_len)
                for w in strings.enumerate_strings(win, self.word_len):
                    ops.append(Op("%s/%s/%s" % (label, key, w), label,
                                  lambda win=win, w=w, fld=fld,
                                  uw=universe_words:
                                  self._axioms(win, w, fld, uw)))
        return ops

    @staticmethod
    def _axioms(win, w, fld, universe_words):
        try:
            seq, win2 = strings.ar_sequence(win, w, fld)
        except strings.ArInjectiveError:
            return ("injective",)
        universe = [strings.string_module(win2, u, fld)
                    for u in universe_words]
        universe.extend(win2.all_projectives(fld))
        rep = stable.check_ar_axioms(seq, universe)
        return (rep.ars1, rep.ars2, rep.art1, rep.art2, rep.art3,
                rep.art3_star)

    def check(self, wins, results, probes):
        sequences = sum(1 for v in results.values() if v != ("injective",))
        out = {}
        for key, verdict in results.items():
            label, rest = key.split("/", 1)
            other = results.get(("gf101/" if label == "qq" else "qq/") + rest)
            ok = (sequences >= self.min_sequences
                  and (verdict == ("injective",) or all(verdict))
                  and other == verdict)
            out[key] = (verdict, ok)
        return out


class CertifyEdges:
    """example4, window -3..5 over QQ: knit 3 meshes from 2@0; one
    operation is the certified classification (universe_dim 8) of one
    mesh edge."""

    name = "certify-edges"
    field = "qq"
    in_process = True

    def __init__(self, tiny=False):
        self.meshes, self.universe_dim = (1, 5) if tiny else (3, 8)

    def setup(self):
        return build_repetitive_window(parse_presentation(_example4_text()),
                                       -3, 5)

    def prepare(self, win, probes):
        comp = strings.knit_component(win, StringWord("2@0", ()),
                                      self.meshes, QQ)
        ops = []
        for i, mesh in enumerate(comp.meshes):
            for j, emap in enumerate(mesh.edge_maps):
                ops.append(Op("mesh%d/edge%d" % (i, j), "qq",
                              lambda emap=emap: (emap, self._certify(emap))))
        return ops

    def _certify(self, emap):
        return stable.classify_irreducible(emap, certify=True,
                                           universe_dim=self.universe_dim)

    def check(self, win, results, probes):
        out = {}
        for key, (emap, verdict) in results.items():
            plain = stable.classify_irreducible(emap)
            ok = (verdict.kind != "not_irreducible"
                  and verdict.kind == plain.kind)
            out[key] = ((verdict.kind, verdict.degree), ok)
        return out


class Ex4Cli:
    """``repstable example4 --check``, one fresh process per operation."""

    name = "ex4-cli"
    field = "qq"
    in_process = False

    def __init__(self, tiny=False):
        pass    # the bundled example has one size

    def setup(self):
        return _example4_text()

    def prepare(self, text, probes):
        return [Op("example4", "qq", lambda: self._run(probes))]

    @staticmethod
    def _run(probes):
        out_dir = tempfile.mkdtemp(prefix="ex4-", dir=scratch_dir())
        report = os.path.join(out_dir, "report.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli",
               "--report", report]
        if probes.tracer is not None:
            cmd += ["--spans", "%s.%d.tsv.gz" % (probes.tracer.spans_path,
                                                 probes.tracer.pass_no)]
        cmd += ["--", "example4", "--check", "--out", out_dir]
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL)
        return proc.returncode, out_dir

    def check(self, text, results, probes):
        golden = resources.files("repstable").joinpath("data/golden/example4")
        out = {}
        for key, (rc, out_dir) in results.items():
            same = []
            for name in EX4_NAMES:
                path = pathlib.Path(out_dir, name)
                same.append(path.exists() and path.read_bytes()
                            == golden.joinpath(name).read_bytes())
            report_path = os.path.join(out_dir, "report.json")
            if os.path.exists(report_path):
                with open(report_path) as fh:
                    report = json.load(fh)
                if probes.tracer is not None:
                    probes.tracer.child_raws.append(report["trace"])
                if probes.sampler is not None:
                    probes.sampler.add(*report["speed"])
            shutil.rmtree(out_dir, ignore_errors=True)
            out[key] = ((rc, all(same)), rc == 0 and all(same))
        return out


WORKLOADS = {cls.name: cls for cls in
             (Ex4Cli, TwoloopTriangles, ArOracle, CertifyEdges)}


def scratch_dir():
    """Where runs leave artifacts and span files, inside the checkout."""
    path = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(path, exist_ok=True)
    return path


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
