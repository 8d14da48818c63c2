"""tools/stdout_digests.py: one line per invocation, a hash or its numbers."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "stdout_digests.py"
_spec = importlib.util.spec_from_file_location("stdout_digests", _TOOL)
stdout_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stdout_digests)

_TEXT = "mode R2, Phi+ 0.5 agrees; -1e-12 and 9.5e-07 of 20 pairs, v1.2 -inf 12.\n"


def _run(capsys, tmp_path, values: bool) -> tuple[bool, str]:
    argv = [sys.executable, "-c", f"print({_TEXT!r}, end='')"]
    ok, stdout = stdout_digests._digest(argv, "label", 0, str(tmp_path), dict(os.environ), values)
    assert stdout == _TEXT.encode()
    return ok, capsys.readouterr().out


def test_default_line_is_a_hash_of_stdout(capsys, tmp_path):
    ok, out = _run(capsys, tmp_path, values=False)
    assert ok and out == f"{hashlib.sha256(_TEXT.encode()).hexdigest()}  label\n"


def test_values_line_lists_each_standalone_number(capsys, tmp_path):
    # numbers inside words (R2, v1.2) are not values
    ok, out = _run(capsys, tmp_path, values=True)
    assert ok and out == "label: 0.5 -1e-12 9.5e-07 20 -inf 12\n"


@pytest.mark.parametrize("values", [False, True])
def test_unexpected_exit_code_fails_either_way(capsys, tmp_path, values):
    argv = [sys.executable, "-c", "raise SystemExit(3)"]
    ok, _ = stdout_digests._digest(argv, "label", 0, str(tmp_path), dict(os.environ), values)
    assert not ok


def test_against_prints_only_the_lines_that_differ(capsys):
    before = ["aaa  relcommit audit", "bbb  relcommit run", "ccc  demos/x.py"]
    assert stdout_digests._compare(before, list(before)) == 0
    assert capsys.readouterr().out == ""
    after = ["aaa  relcommit audit", "bbd  relcommit run", "ccc  demos/x.py"]
    assert stdout_digests._compare(before, after) == 1
    assert capsys.readouterr().out == "- bbb  relcommit run\n+ bbd  relcommit run\n"


def test_kernels_compares_each_kernel_setting_with_the_default(capsys, monkeypatch):
    runs = []

    def run_all(root, values, emit, setting=None):
        runs.append((root, setting))
        emit(f"{'bbd' if setting and 'OPENBLAS_CORETYPE' in setting else 'bbb'}  relcommit run")
        return 0

    monkeypatch.setattr(stdout_digests, "_run_all", run_all)
    monkeypatch.setattr(sys, "argv", ["stdout_digests.py", "--kernels"])
    assert stdout_digests.main() == 1
    assert runs == [(stdout_digests.ROOT, None),
                    (stdout_digests.ROOT, {"OPENBLAS_CORETYPE": "Prescott"}),
                    (stdout_digests.ROOT, stdout_digests._baseline_dispatch(stdout_digests.ROOT))]
    assert capsys.readouterr().out == "- bbb  relcommit run\n+ bbd  relcommit run\n"


def test_baseline_dispatch_disables_every_dispatched_target():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    setting = stdout_digests._baseline_dispatch(stdout_digests.ROOT)
    assert setting == {"NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)}
