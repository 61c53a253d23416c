"""Golden outputs: small CLI jobs must print and write the recorded numbers.

``tests/data/golden.json`` holds, per job, the exit code, stdout and the
text of every file written, with the output directory replaced by ``<OUT>``.
Numbers are compared to a relative tolerance of 1e-12 (``|x - ref| <=
1e-12 * (1 + |ref|)``); everything between them must match exactly.

Record entries again (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py NAME ...``: only the named
entries are re-recorded (a ``verify_*`` entry reruns its source job) and every
other entry is kept byte for byte.  With no names every entry is re-recorded.
Recording by name prints each number of the named entries that moved beyond
the tolerance: entry, file, recorded value, new value and relative change.
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest

from lagsol.cli import main

DATA = Path(__file__).parent / "data" / "golden.json"
SMALL = ["--mesh-samples=4", "--mesh-count=3"]
ORBIT = ["--lambdas=1,-1", "--alphas=1,2", "--A=0.4", "--alpha=0.5"]
JOBS = {
    "expander": ["expander", "--alpha=1", "--a=1,2", "--samples=5"] + SMALL,
    "expander_minimal": ["expander", "--alpha=0", "--a=1,2", "--samples=5"] + SMALL,
    "periodic": ["periodic"] + ORBIT + ["--mesh"] + SMALL,
    "stationary": ["periodic", "--lambdas=1,-1", "--alphas=1,1", "--A=1", "--alpha=0",
                   "--mesh"] + SMALL,
    "translator_expander": ["translator", "--alpha=1", "--a=1"] + SMALL,
    "translator_orbit": ["translator", "--alpha=0.5", "--lambdas=1,-1", "--alphas=1,2",
                         "--A=0.4"] + SMALL,
    "flow_family": ["flow-family"] + ORBIT + ["--t=-1,0,1"] + SMALL,
    # solver jobs: Newton on the angle map, orbit integrals, periodicity scans
    "invert_minimal_2": ["invert-angles", "--alpha=0", "--target=0.6,0.9707963267948966"],
    "invert_expander_2": ["invert-angles", "--alpha=1", "--target=0.4,0.6",
                          "--write-report"],
    "invert_minimal_3": ["invert-angles", "--alpha=0", "--target=0.4,0.5,0.6707963267948966"],
    "invert_expander_3": ["invert-angles", "--alpha=0.5", "--target=0.3,0.4,0.5"],
    "periodic_qmax_4096": ["periodic"] + ORBIT + ["--qmax=4096"],
    "shrinker_qmax_100000": ["shrinker", "--alphas=1,1.5", "--A=0.5", "--alpha=-1",
                             "--qmax=100000"],
    "periodic_search_harmonic": ["periodic-search", "--lambdas=1,1,-1",
                                 "--alpha=-1.2666666666666666",
                                 "--gamma=-3.5075391617039733,-2.338359441135982,"
                                 "1.4030156646815894"],
}
# verify jobs re-read the mesh and record another job wrote
VERIFY = {
    "verify_periodic": "periodic",
    "verify_stationary": "stationary",
    "verify_translator_expander": "translator_expander",
    "verify_translator_orbit": "translator_orbit",
}
TOL = 1e-12
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def run_jobs(root: Path, names=None) -> dict:
    """Run the named jobs (every job by default) under root, each verify job
    after its source job; returns job -> {rc, stdout, files}."""
    names = set(JOBS) | set(VERIFY) if names is None else set(names)
    verify = [name for name in VERIFY if name in names]
    needed = names | {VERIFY[name] for name in verify}
    out = {}
    for name, argv in JOBS.items():
        if name in needed:
            out[name] = _run(argv, root / name)
    for name in verify:
        source = VERIFY[name]
        src = root / source
        prefix = JOBS[source][0]
        argv = ["verify", f"--mesh={src / (prefix + '_mesh.csv')}",
                f"--record={src / (prefix + '_record.txt')}",
                f"--residuals={root / name / 'residuals.csv'}"]
        out[name] = _run(argv, root / name)
    return out


def record(names=(), path: Path = DATA) -> list:
    """Re-record the named entries of path, or every entry when names is
    empty; the other entries are kept as they are.  Returns a line for each
    number of a named entry that moved beyond TOL (see moved_numbers)."""
    unknown = sorted(set(names) - set(JOBS) - set(VERIFY))
    if unknown:
        raise ValueError(f"unknown golden jobs: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        fresh = run_jobs(Path(tmp), names or None)
    data = json.loads(path.read_text()) if names else {}
    moved = [line for name in names if name in data
             for line in moved_numbers(name, data[name], fresh[name])]
    data.update({name: fresh[name] for name in (names or fresh)})
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return moved


def moved_numbers(name: str, old: dict, new: dict) -> list:
    """'entry file: recorded -> new (relative change r)' for each number that
    moved beyond TOL between two recordings of an entry, and a line for each
    output whose text changed outside the numbers."""
    texts = {"stdout": (old["stdout"], new["stdout"])}
    for file in sorted(set(old["files"]) | set(new["files"])):
        texts[file] = (old["files"].get(file), new["files"].get(file))
    lines = []
    for file, (ref, text) in texts.items():
        if ref is None or text is None or NUMBER.split(text) != NUMBER.split(ref):
            lines.append(f"{name} {file}: text differs outside the numbers")
            continue
        for _, a, b in _moved(text, ref):
            change = (float(a) - float(b)) / abs(float(b)) if float(b) else math.inf
            lines.append(f"{name} {file}: {b} -> {a} (relative change {change:+.2e})")
    return lines


def _run(argv, outdir: Path) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv + [f"--outdir={outdir}"])
    root = str(outdir.parent)
    return {"rc": rc, "stdout": buf.getvalue().replace(root, "<OUT>"),
            "files": {p.name: p.read_text().replace(root, "<OUT>")
                      for p in sorted(outdir.iterdir())}}


def _moved(text: str, ref: str):
    """(k, number, recorded number) for each number k of text that differs
    from its counterpart in ref beyond the golden rule."""
    return [(k, a, b) for k, (a, b) in enumerate(zip(NUMBER.findall(text), NUMBER.findall(ref)))
            if not abs(float(a) - float(b)) <= TOL * (1.0 + abs(float(b)))]


def _mismatch(text: str, ref: str):
    """None when text matches ref under the golden rule, else a description."""
    if NUMBER.split(text) != NUMBER.split(ref):
        return "text differs outside the numbers"
    for k, a, b in _moved(text, ref)[:1]:
        return f"number {k}: {a} against the recorded {b}"
    return None


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_jobs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("job", list(JOBS) + list(VERIFY))
def test_outputs_match_the_recorded_goldens(outputs, job):
    ref = json.loads(DATA.read_text())[job]
    got = outputs[job]
    assert got["rc"] == ref["rc"] == 0
    assert sorted(got["files"]) == sorted(ref["files"])
    assert _mismatch(got["stdout"], ref["stdout"]) is None, "stdout"
    for name, text in ref["files"].items():
        assert _mismatch(got["files"][name], text) is None, name


def test_the_comparison_catches_a_changed_digit():
    assert _mismatch("S = 1.2345678901234", "S = 1.2345678901234") is None
    assert _mismatch("S = 1.2345678901234", "S = 1.2345678901235") is None
    assert _mismatch("S = 1.23456789012", "S = 1.23456789013") is not None
    assert _mismatch("case = oscillating", "case = hamiltonian") is not None
    assert _mismatch("S1 x S0 x R1", "S1 x S0 x R1") is None


def test_recording_one_entry_keeps_every_other_entry(tmp_path):
    text = DATA.read_text()
    before = json.loads(text)
    # the file is in the recorder's own layout, so kept entries keep their bytes
    assert json.dumps(before, indent=1, sort_keys=True) + "\n" == text
    copy = tmp_path / "golden.json"
    copy.write_text(text)
    record(["verify_stationary"], copy)
    after = json.loads(copy.read_text())
    assert sorted(after) == sorted(before)
    assert {k: v for k, v in after.items() if k != "verify_stationary"} == \
        {k: v for k, v in before.items() if k != "verify_stationary"}
    got, ref = after["verify_stationary"], before["verify_stationary"]
    assert sorted(got["files"]) == sorted(ref["files"])
    assert _mismatch(got["stdout"], ref["stdout"]) is None
    with pytest.raises(ValueError, match="unknown golden jobs: nope"):
        record(["nope"], copy)


def test_recording_reports_each_moved_number(tmp_path):
    copy = tmp_path / "golden.json"
    data = json.loads(DATA.read_text())
    entry = data["verify_stationary"]
    old = NUMBER.findall(entry["stdout"].split("max_quadric = ")[1])[0]
    entry["stdout"] = entry["stdout"].replace(f"max_quadric = {old}", "max_quadric = 0.5")
    copy.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    moved = record(["verify_stationary"], copy)
    assert moved == [f"verify_stationary stdout: 0.5 -> {old} "
                     f"(relative change {(float(old) - 0.5) / 0.5:+.2e})"]
    assert record(["verify_stationary"], copy) == []


if __name__ == "__main__":
    try:
        moved = record(sys.argv[1:])
    except ValueError as exc:
        sys.exit(f"{sys.argv[0]}: {exc}")
    print("\n".join(moved or ["no number moved beyond the tolerance"]))
    print(f"wrote {DATA}", file=sys.stderr)
