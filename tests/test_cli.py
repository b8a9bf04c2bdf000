import importlib
import inspect
import os
import pkgutil

import pytest

import repstable
from repstable import cli
from repstable.cli import main

A2_TEXT = "vertices 1 2\narrow a : 1 -> 2\n"
EXAMPLE4 = os.path.join(os.path.dirname(__file__), "..", "src", "repstable",
                        "data", "example4.quiver")


def write_a2(tmp_path):
    p = tmp_path / "a2.quiver"
    p.write_text(A2_TEXT)
    return str(p)


def test_validate_gentle_exit_zero(tmp_path, capsys):
    path = write_a2(tmp_path)
    rc = main(["validate", path, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "gentle: yes" in capsys.readouterr().out
    assert (tmp_path / "out" / "validate.txt").exists()


def test_validate_not_gentle_exit_nonzero(tmp_path, capsys):
    p = tmp_path / "bad.quiver"
    p.write_text("vertices 0 1 2 3\narrow a : 0 -> 1\n"
                 "arrow b : 0 -> 2\narrow c : 0 -> 3\n")
    rc = main(["validate", str(p), "--out", str(tmp_path / "out")])
    assert rc == 1


def test_parse_error_exit_two(tmp_path, capsys):
    p = tmp_path / "broken.quiver"
    p.write_text("arrow a : 1 -> 2\n")
    rc = main(["validate", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_repetitive_and_strings(tmp_path):
    path = write_a2(tmp_path)
    out = str(tmp_path / "out")
    assert main(["repetitive", path, "--window", "0", "3",
                 "--out", out]) == 0
    assert (tmp_path / "out" / "window.quiver").exists()
    assert (tmp_path / "out" / "window.degrees").exists()
    assert main(["strings", path, "--window", "0", "3", "--max-len", "2",
                 "--out", out]) == 0
    text = (tmp_path / "out" / "strings.txt").read_text()
    assert "# 9 words" in text


def test_ar_command(tmp_path):
    path = write_a2(tmp_path)
    out = str(tmp_path / "out")
    rc = main(["ar", path, "--window", "0", "3", "--seed", "v:1@1",
               "--max-len", "4", "--out", out])
    assert rc == 0
    text = (tmp_path / "out" / "ar.txt").read_text()
    assert "ars1\tTrue" in text and "art3_star\tTrue" in text


def test_triangles_allowed_cells(tmp_path):
    path = write_a2(tmp_path)
    out = str(tmp_path / "out")
    rc = main(["triangles", path, "--window", "0", "5", "--seed", "v:1@2",
               "--max-len", "8", "--out", out])
    assert rc == 0
    lines = [l for l in (tmp_path / "out" / "findings.tsv")
             .read_text().splitlines() if l and not l.startswith("#")]
    assert len(lines) >= 6
    for line in lines:
        cols = line.split("\t")
        assert cols[5] in ("i", "ii", "iii-a", "iii-b")
        assert cols[-1] == "pass"


def test_knit_deterministic(tmp_path):
    path = write_a2(tmp_path)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    args = ["knit", path, "--window", "0", "5", "--seed", "v:1@2",
            "--max-len", "6"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    for name in ("component.dot", "component.tsv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b


def test_no_partial_artifacts_left(tmp_path):
    path = write_a2(tmp_path)
    out = str(tmp_path / "out")
    main(["knit", path, "--window", "0", "4", "--seed", "v:1@1",
          "--max-len", "3", "--out", out])
    assert not [f for f in os.listdir(out) if f.endswith(".partial")]


def test_example4_check(tmp_path, monkeypatch):
    # All three artifacts come from one knitted component.
    calls = []
    knit = cli.strings.knit_component

    def counted(*args, **kwargs):
        calls.append(args)
        return knit(*args, **kwargs)

    monkeypatch.setattr(cli.strings, "knit_component", counted)
    rc = main(["example4", "--out", str(tmp_path / "ex4"), "--check"])
    assert rc == 0
    assert len(calls) == 1


def test_window_too_short(tmp_path, capsys):
    path = write_a2(tmp_path)
    rc = main(["repetitive", path, "--window", "0", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 2


def _single_error_line(capsys):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert captured.out == ""


def test_non_prime_characteristic_exit_two(tmp_path, capsys):
    rc = main(["ar", EXAMPLE4, "--window", "-1", "3", "--seed", "v:1@0",
               "--char", "4", "--out", str(tmp_path / "out")])
    assert rc == 2
    _single_error_line(capsys)


@pytest.mark.parametrize("args", [
    ["strings", "--max-len", "-1"],
    ["ar", "--seed", "a@1", "--universe-dim", "-3"],
    ["ar", "--seed", "a@1", "--universe-dim", "0"],
], ids=["max-len", "universe-dim-negative", "universe-dim-zero"])
def test_bounds_below_their_minimum_exit_two(args, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([args[0], write_a2(tmp_path), "--window", "0", "3",
                 "--out", str(out)] + args[1:]) == 2
    _single_error_line(capsys)
    assert not out.exists()


def _package_exceptions():
    found = []
    for info in pkgutil.iter_modules(repstable.__path__):
        mod = importlib.import_module("repstable." + info.name)
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if issubclass(cls, Exception) and cls.__module__ == mod.__name__:
                found.append(cls)
    return found


@pytest.mark.parametrize("exc_class", _package_exceptions(),
                         ids=lambda c: c.__name__)
def test_every_package_error_exit_two(exc_class, tmp_path, capsys,
                                      monkeypatch):
    def fail(cfg, check=False):
        exc = exc_class.__new__(exc_class)
        Exception.__init__(exc, "first line\nsecond line")
        raise exc

    monkeypatch.setattr(cli, "cmd_dispatch", fail)
    rc = main(["validate", "in.quiver", "--out", str(tmp_path / "out")])
    assert rc == 2
    _single_error_line(capsys)


def test_triangle_findings_equal_in_every_characteristic(tmp_path, capsys):
    def findings(char):
        out = str(tmp_path / ("c%d" % char))
        rc = main(["triangles", EXAMPLE4, "--window", "-3", "5",
                   "--seed", "v:1@0", "--max-len", "7", "--char", str(char),
                   "--out", out])
        assert rc == 0
        text = open(os.path.join(out, "findings.tsv")).read()
        return [line for line in text.splitlines()
                if not line.startswith("# repstable")
                and not line.startswith("# command=")]

    rows = findings(0)
    assert len(rows) == 8
    for char in (2, 3, 101):
        assert findings(char) == rows


def test_unwritable_out_exit_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["validate", write_a2(tmp_path),
               "--out", str(blocker / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write ")


@pytest.mark.parametrize("args", [
    ["bogus"],
    [],
    ["validate", "in.quiver", "--char", "x"],
    ["validate", "in.quiver", "--window", "0"],
    ["validate", "in.quiver", "--no-such-option"],
], ids=["command", "missing-command", "char", "window", "option"])
def test_usage_errors_exit_two(args, capsys):
    assert main(args) == 2
    _single_error_line(capsys)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "usage: repstable" in capsys.readouterr().out
