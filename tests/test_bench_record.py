"""tools/bench_record.py --compare on two small records."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def _record(path: Path, revision: str, wall: dict, **fields) -> str:
    metrics = {"wall_s": 0.5, "slowest_op_s": 0.25, "setup_s": 0.125, "peak_rss_mb": 20.0}
    workloads = {
        w: {"parent": {}, "change": {m: {"median": wall[w] if m == "wall_s" else v}
                                     for m, v in metrics.items()}}
        for w in wall
    }
    record = {"revisions": {"parent": "p", "change": revision}, "workloads": workloads, **fields}
    path.write_text(json.dumps(record))
    return str(path)


def test_compare_prints_medians_ratios_and_line_counts(tmp_path, capsys):
    old = _record(tmp_path / "old.json", "aaa", {"matrix": 0.5, "abort_scan": 2.0},
                  src_lines={"parent": 1900, "change": 1880})
    new = _record(tmp_path / "new.json", "bbb", {"matrix": 0.25, "verify_large": 1.0},
                  src_lines={"parent": 1880, "change": 1850},
                  src_code_lines={"parent": 1300, "change": 1280},
                  verifier_code_lines={"parent": 1086, "change": 798})
    assert bench_record.main(["--compare", old, new]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "workload metric first second ratio",
        "matrix wall_s 0.5 0.25 0.5000",
        "matrix slowest_op_s 0.25 0.25 1.0000",
        "matrix setup_s 0.125 0.125 1.0000",
        "matrix peak_rss_mb 20 20 1.0000",
        f"{old}: change aaa src_lines 1880 src_code_lines n/a verifier_code_lines n/a",
        f"{new}: change bbb src_lines 1850 src_code_lines 1280 verifier_code_lines 798",
    ]


PACKAGE = {
    "__init__.py": "from .verify import check\nfrom .builder import build\n",
    "verify.py": '"""Checks."""\n\nfrom .trace import load\n\n\ndef check():\n    return load()\n',
    "trace.py": "# the format\nfrom .errors import Bad\n\n\ndef load():\n    from . import errors\n    return errors\n",
    "errors.py": 'class Bad(Exception):\n    """A refusal."""\n',
    "builder.py": "from .trace import load\nbuild = load\n",
}


def test_verifier_code_lines_follow_the_imports_of_verify(tmp_path):
    package = tmp_path / "src" / "repbasis"
    package.mkdir(parents=True)
    for name, text in PACKAGE.items():
        (package / name).write_text(text)
    # verify 3, trace 4, errors 1; neither __init__ nor builder is reached
    assert bench_record.verifier_code_lines(tmp_path) == 8
    assert bench_record.src_code_lines(tmp_path) == 8 + 2 + 2
