"""Command-line interface: formats, exit codes, determinism, file output."""
from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from kdvcorr.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text()
)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_output_matches_golden_bytes(capsys, case):
    # stdout and exit code of every subcommand in every format, byte for
    # byte; data/cli_golden.json pins what each command printed when captured
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


def test_tau_single_index(capsys):
    code, out, _ = run(capsys, "tau", "1")
    assert code == 0
    assert out == "<tau_1> = 1/24 (g=1)\n"


def test_tau_csv_off_dimension_leaves_genus_blank(capsys):
    code, out, _ = run(capsys, "tau", "2,2", "--format", "csv")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row == ["2", "2", "", "0", "1"]


def test_table_empty_range_csv_is_header_only(capsys):
    code, out, _ = run(capsys, "table", "2", "0", "--format", "csv")
    assert code == 0
    assert out == "k1,k2,g,numerator,denominator\n"


def test_table_json_spot(capsys):
    code, out, _ = run(capsys, "table", "4", "9", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    spot = [r for r in rows if r["indices"] == [2, 2, 2, 4]]
    assert spot == [
        {
            "indices": [2, 2, 2, 4],
            "genus": 3,
            "value": {"num": "53", "den": "1152"},
        }
    ]


def test_table_csv_parses_and_sorts(capsys):
    code, out, _ = run(capsys, "table", "3", "6", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k1", "k2", "k3", "g", "numerator", "denominator"]
    keys = [tuple(map(int, r[:3])) for r in rows[1:]]
    assert keys == sorted(keys)
    assert all(k == tuple(sorted(k)) for k in keys)


def test_kappa_csv(capsys):
    code, out, _ = run(capsys, "kappa", "2", "2", "--format", "csv")
    assert code == 0
    assert out == "kappa,tau,g,numerator,denominator\n2,2,2,29,5760\n"


def test_wp_smallest_case(capsys):
    code, out, _ = run(capsys, "wp", "0", "3")
    assert code == 0
    assert "  d=0 k=(0, 0, 0)  1" in out.splitlines()


def test_wp_json(capsys):
    code, out, _ = run(capsys, "wp", "1", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["g"] == 1 and data["n"] == 1
    entries = {(e["d"], tuple(e["indices"])): e for e in data["entries"]}
    assert entries[(1, (0,))]["w"] == {"num": "1", "den": "24"}
    assert entries[(0, (1,))]["w"] == {"num": "1", "den": "8"}


def test_wave_csv_round_trips(capsys):
    code, out, _ = run(capsys, "wave", "2", "--depth", "8", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["component", "part", "exponent", "numerator", "denominator"]
    assert ["A", "P", "7", "-1", "105"] in rows


def test_selftest_text(capsys):
    code, out, _ = run(capsys, "selftest", "--depth", "6")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("ok    ") for line in lines[:-1])
    assert lines[-1] == "15 checks, 0 failed (depth 6)"


def test_selftest_injected_fault_fails(capsys):
    code, out, _ = run(capsys, "selftest", "--depth", "6", "--inject-fault")
    assert code == 1
    assert any(line.startswith("FAIL  correlator-spots") for line in out.splitlines())


def test_selftest_shallow_truncation_fails(capsys):
    code, out, _ = run(capsys, "selftest", "--depth", "6", "--shallow-truncation")
    assert code == 1
    assert "FAIL  shallow-truncation" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "3,x"],
        ["tau", "-1"],
        ["wave", "1", "--depth", "0"],
        ["table", "1", "5"],
        ["table", "2", "-1"],
        ["kappa", "0"],
        ["kappa", "1,0", "2"],
        ["wp", "-1", "1"],
        ["wp", "1", "0"],
        ["wp", "0", "2"],
        ["selftest", "--depth", "5"],
        ["table", "3", "5", "--workers", "0"],
        ["wp", "1", "2", "--workers", "-1"],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "3,2"],
        ["table", "3", "4"],
        ["kappa", "1,1", "5"],
        ["wp", "1", "1"],
    ],
)
def test_depth_is_rejected_off_wave_and_selftest(capsys, argv):
    # --depth changes the output of wave and selftest only; elsewhere the
    # truncation budgets are derived exactly and --verify is the check
    with pytest.raises(SystemExit) as fail:
        main(argv + ["--depth", "40"])
    assert fail.value.code == 2
    assert "--depth" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["wave", "1"], ["selftest"]])
def test_verify_is_rejected_where_nothing_reads_it(capsys, argv):
    # --verify is offered only where a truncation check runs
    with pytest.raises(SystemExit) as fail:
        main(argv + ["--verify"])
    assert fail.value.code == 2
    assert "--verify" in capsys.readouterr().err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as fail:
        main(["frobnicate"])
    assert fail.value.code == 2


def test_io_failure_exits_one(capsys):
    code, _, err = run(capsys, "tau", "3,2", "--out", "/no/such/dir/out.txt")
    assert code == 1
    assert err.strip()


def test_out_writes_exact_stdout_bytes(capsys, tmp_path):
    code, out, _ = run(capsys, "table", "2", "6", "--format", "csv")
    assert code == 0
    target = tmp_path / "table.csv"
    code2, out2, _ = run(capsys, "table", "2", "6", "--format", "csv", "--out", str(target))
    assert code2 == 0 and out2 == ""
    assert target.read_text() == out


def test_table_deterministic_across_workers(capsys):
    outputs = []
    for workers in ("1", "4"):
        code, out, _ = run(
            capsys, "table", "3", "12", "--format", "csv", "--workers", workers
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    code, again, _ = run(capsys, "table", "3", "12", "--format", "csv")
    assert again == outputs[0]


def test_module_entry_point(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "kdvcorr", "tau", "3,2"],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "<tau_3 tau_2> = 29/5760 (g=2)\n"
