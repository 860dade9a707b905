"""The CLI's artifacts against the committed manifest (tests/data/artifacts.json).

Each command the manifest holds runs through cli.main in an empty
directory, as tests/data/make_artifacts.py ran it.  Exit codes, file names
and the text between numbers must be equal.  Each number must agree with
the manifest's within 1e-12 relative, so that other numpy and BLAS builds
can pass; a number under _ZERO on both sides is a rounded zero (the
rotatability index of a rotatable design, a deviation of 0) and agrees
within _ZERO.  On the numpy and machine the manifest was made on, every
line must also be equal, which for a repr-printed float is equality by
repr.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

DATA = Path(__file__).with_name("data")
_spec = importlib.util.spec_from_file_location("make_artifacts", DATA / "make_artifacts.py")
make_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_artifacts)

MANIFEST = json.loads(make_artifacts.MANIFEST.read_text())
RTOL = 1e-12
_ZERO = 1e-13
_NUMBER = make_artifacts.NUMBER
SAME_PLATFORM = all(make_artifacts.platform_record()[key] == MANIFEST["platform"][key]
                    for key in ("numpy", "machine", "system"))


def assert_same_text(got: list[str], want: list[str], where: str) -> None:
    assert len(got) == len(want), f"{where}: {len(got)} lines, want {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        gparts, wparts = _NUMBER.split(g), _NUMBER.split(w)
        assert gparts[::2] == wparts[::2], f"{where}:{i + 1}: {g!r} != {w!r}"
        for a, b in zip(map(float, gparts[1::2]), map(float, wparts[1::2])):
            assert math.isclose(a, b, rel_tol=RTOL, abs_tol=_ZERO), \
                f"{where}:{i + 1}: {a!r} != {b!r}: {g!r}"
        if SAME_PLATFORM:
            assert g == w, f"{where}:{i + 1}: {g!r} != {w!r}"


def test_manifest_holds_every_command():
    assert [c["argv"] for c in MANIFEST["commands"]] == [list(argv) for argv in
                                                         make_artifacts.COMMANDS]


@pytest.mark.parametrize("want", MANIFEST["commands"],
                         ids=[" ".join(c["argv"]) for c in MANIFEST["commands"]])
def test_artifacts_match_the_manifest(want):
    got = make_artifacts.record(want["argv"])
    assert got["exit"] == want["exit"]
    assert sorted(got["files"]) == sorted(want["files"])
    for stream in ("stdout", "stderr"):
        assert_same_text(got[stream], want[stream], stream)
    for path, lines in want["files"].items():
        assert_same_text(got["files"][path], lines, path)


@pytest.mark.parametrize("same_platform", [True, False])
@pytest.mark.parametrize("line,edit", [
    ("1.5,0.25,x1", "1.500000001,0.25,x1"),
    ("1.5,0.25,x1", "1.5,0.25,x2"),
    ("1.5,0.25,x1", "1.5;0.25,x1"),
    ("1.5,0.25,x1", "1.5,0.25,x1,0"),
    ("spv 3.0e-11", "spv 3.1e-11"),
])
def test_a_moved_number_or_word_fails(line, edit, same_platform, monkeypatch):
    monkeypatch.setitem(globals(), "SAME_PLATFORM", same_platform)
    with pytest.raises(AssertionError):
        assert_same_text([edit], [line], "edit")


def test_last_bits_pass_only_off_platform(monkeypatch):
    got, want = ["rot 1.002894637614934e-15,2.0000000000000004"], ["rot 3.1e-15,2.0"]
    monkeypatch.setitem(globals(), "SAME_PLATFORM", False)
    assert_same_text(got, want, "noise")
    monkeypatch.setitem(globals(), "SAME_PLATFORM", True)
    with pytest.raises(AssertionError):
        assert_same_text(got, want, "noise")


def test_moved_lines_name_each_line_that_moved():
    def command(argv, code=0, stdout=(), files=None):
        return {"argv": [argv], "exit": code, "stdout": list(stdout), "stderr": [],
                "files": files or {}}

    old = {"platform": {"numpy": "1"},
           "commands": [command("a", 0, ["x 1.0 7 -2e-3", "y 0", "w"],
                                {"f.csv": ["1"], "h.csv": ["0,2"]}), command("b")]}
    new = {"platform": {"numpy": "2"},
           "commands": [command("a", 1, ["x 1.5 7 -1e-3", "y! 2", "w", "z"],
                                {"g.csv": ["1"], "h.csv": ["1e-300,2"]}), command("c")]}
    assert make_artifacts.moved_lines(old, new) == [
        "platform: {'numpy': '1'} -> {'numpy': '2'}",
        "b: only in the old manifest",
        "a: exit 0 -> 1",
        "a: stdout:1: 'x 1.0 7 -2e-3' -> 'x 1.5 7 -1e-3'; "
        "numbers: 1.0 -> 1.5 (+5.0e-01), -2e-3 -> -1e-3 (+5.0e-01)",
        "a: stdout:2: 'y 0' -> 'y! 2'",
        "a: stdout:4: None -> 'z'",
        "a: g.csv only in the new manifest",
        "a: h.csv:1: '0,2' -> '1e-300,2'; numbers: 0 -> 1e-300 (from 0)",
        "a: f.csv only in the old manifest",
        "c: only in the new manifest",
    ]
    assert make_artifacts.moved_lines(new, new) == []
