import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bowtie
from bowtie import cli, duplication, modules, theorems
from bowtie.cli import main

# SHA-256 of the stdout of `bowtie hunt --max 12` (every checker, variant
# and reading, budget 256), as first recorded in BENCH_3.json
HUNT_MAX12_SHA256 = "1a097192b73711ff4e51bef7e89fbdb14d6d1053340c6ad38fe068a431166be1"

# SHA-256 of the stdout of `bowtie hunt --max 20 --theorem L8`, the report
# of perfbench's l8-sweep workload (budget 256: the n = 17..20 instances
# with I = Z_n are skip rows)
HUNT_L8_MAX20_SHA256 = "19ee1fe2bf59feda9262cf457854ddb78b715e5574caf07c81c3a53efbc5ee7c"

# SHA-256 of the stdout of `bowtie hunt --max 24 --budget 576`: carriers
# up to 576 elements, so M><I's tables are uint16 and every mask built from
# one of their entries must come from a Python int
HUNT_MAX24_BUDGET576_SHA256 = "e4de70f6eb33abbcc5d92aac8c75c2debe35074be910ac6d6e29aadd08a1e8d6"

# SHA-256 of the stdout of `bowtie hunt --max 32 --budget 1024`: 15 of its
# 237 lattices have 32 or more nodes, so they are joined by the wide pass
HUNT_MAX32_BUDGET1024_SHA256 = "f7e79e12a04f653b685871975b6a403e2509945cbbbf9418b813f0e6670eb884"

# SHA-256 of the stdout of `bowtie hunt --max 48 --budget 2304`, the
# frontier hunt (about 10 s, so marked slow: run it with `pytest -m slow`)
HUNT_MAX48_BUDGET2304_SHA256 = "a296525cb67e06e09d667feecf5fef8aa43bcc66b306cfb8777f0dbf7d2d7ff1"

# SHA-256 and line count of the stdout of `bowtie hunt --max 64 --budget
# 4096`, the next frontier (about 20 s, marked slow); taken before the
# principal-mask, unit-scan and per-coset changes to the kernels
HUNT_MAX64_BUDGET4096_SHA256 = "10d74b0d531b88904c8db070ba57e6cd29ee7e90212b3569635f43c18bdf2425"
HUNT_MAX64_BUDGET4096_LINES = 47417

# (exit code, stdout SHA-256) of `bowtie verify|classify --seed-corpus NAME`
SEED_STDOUT_SHA256 = {
    ("verify", "z12-prime"):
        (1, "0479af4345b3732769d538b90fd6d693940465978ce978bd0452b7823f5e8269"),
    ("verify", "z16-primary-not-prime"):
        (1, "f5cfdae43915b2dc14a1cdac5a57a6853c03c2acadea0fdd848ac68fb7f925e4"),
    ("verify", "z20-primary"):
        (1, "3b5aa5fdbe439f0385e9dcaeec30e1b8699dc3a83767fb2d4937247d1bb3ad2e"),
    ("verify", "z6-remark"):
        (1, "a6c8815e9ce22b877324893ac0f25355c993129d1eaba397e0540436013493b7"),
    ("verify", "z6-weakly-prime"):
        (1, "a105eee6a2d97912c15fb3200acdf69fda7cb64427759699f08719c7cf1167b8"),
    ("classify", "z12-prime"):
        (0, "c92b405cc27f7254f7c38bb9f3c359dfffcc63c65a3ed92ebaf92a570f23ff15"),
    ("classify", "z16-primary-not-prime"):
        (0, "7f5a2ad1d5b9bfc9522df59c5b9b34af47986d9ccba221acd84b64d1391bb286"),
    ("classify", "z20-primary"):
        (0, "d82b53052d8b259e290f60762a46d8c42bd2d369245da0d0b3c31c632a5c807e"),
    ("classify", "z6-remark"):
        (0, "56926ea9d23e0c833199af81c0a4ac1a7dca4fe94c762cda2742c4c19ca5eecd"),
    ("classify", "z6-weakly-prime"):
        (0, "cb7e93fb20f3b57d30e9607e64c4fbcda237bb81ead5ff3dbec40ee4cb5ef91f"),
}

# SHA-256 of the stdout of scripts/replay_examples.py without its timing line
REPLAY_SHA256 = "946b45d3c4b8df2f38d9eab3c303600867832632896415c74aa273dc78e2681c"

# SHA-256 of the stdout of scripts/divergence_scan.py --max 12
DIVERGENCE_SCAN_SHA256 = "fcbcf22b1a16c0d4033ee19771dd01872cb533c3eb814b80791b5696cfe7b611"

# SHA-256 of the stdout of `bowtie hunt --max 4 --budget 10`, which has skip
# rows, one per cell that the instance's run rows would use
HUNT_BUDGET_SKIP_SHA256 = "974329efa2b18dc2b9e59225bc2813746cd71eec59868d7623c0aeefcf2f764c"

# SHA-256 of the stdout of `bowtie lattice` on each seed and on F_2^4 over
# F_2 with I = 0 (``_vector_space_doc(4)``), as the pairwise edge search
# printed them
LATTICE_STDOUT_SHA256 = {
    "z12-prime": "21f32be81ff1544d93f3ed2ada9e07f65f1dc418e8e705825f1c9e8fbe5c8e89",
    "z16-primary-not-prime": "a5c67f4d4eb997ed6e972a745cc1efc4a785f04e60b0fc090bf8ecc3f4e8e329",
    "z20-primary": "4bfe3c725036b357bbd3af53b84911370e65fdb6608a88fc7ec8163d022bad50",
    "z6-remark": "556b87777b12d80034ef19e9e2863e725cc6331be3a3cdca9f8e669635719e98",
    "z6-weakly-prime": "556b87777b12d80034ef19e9e2863e725cc6331be3a3cdca9f8e669635719e98",
    "F2^4": "7fc71942fdacecf07ee0011a8b119997468a3ac59059c8067ef4cc5d07ed22e3",
}

REPO = Path(__file__).resolve().parent.parent

Z6_SPEC = {
    "ring": {"zn": 6},
    "ideal_generators": ["3"],
    "module": "regular",
    "submodule_generators": [],
}


def _child_env(**overrides: str) -> dict[str, str]:
    """The current environment plus overrides, with the directory holding the
    imported bowtie package first on PYTHONPATH, so that a child interpreter
    runs the same code whether bowtie is installed or found via PYTHONPATH."""
    env = {**os.environ, **overrides}
    src = str(Path(bowtie.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_cli(*args: str, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bowtie.cli", *args],
        capture_output=True, text=True, timeout=120, env=_child_env(**env),
    )


def test_imports_load_no_process_pool():
    """Only hunt --workers above 1 imports the pool: importing the package,
    its CLI, the spec loader and the checkers loads neither
    concurrent.futures nor multiprocessing."""
    code = ("import sys, bowtie, bowtie.cli, bowtie.instances, bowtie.theorems; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.fixture()
def z6_path(tmp_path):
    p = tmp_path / "z6.json"
    p.write_text(json.dumps(Z6_SPEC))
    return str(p)


def test_classify_sections_and_exit(z6_path, capsys):
    assert main(["classify", z6_path]) == 0
    out = capsys.readouterr().out
    for section in ("[N in M]", "[colon (N : M)]", "[N><I in M><I]",
                    "[colon (N><I : M><I)]"):
        assert section in out
    assert "prime\tFalse\ta=(2,2) x=(3,0) ax=(0,0)" in out
    assert "weakly_prime_af\tFalse\ta=(2,5) x=(3,3) ax=(0,3)" in out
    assert "members\t{(0,0),(0,3)}" in out


def test_classify_variant_filter(z6_path, capsys):
    assert main(["classify", z6_path, "--variant", "azizi"]) == 0
    out = capsys.readouterr().out
    assert "weakly_prime_azizi" in out
    assert "weakly_prime_af" not in out


def test_classify_seed_equivalent_to_file(z6_path, capsys):
    main(["classify", z6_path])
    from_file = capsys.readouterr().out
    main(["classify", "--seed-corpus", "z6-weakly-prime"])
    from_seed = capsys.readouterr().out
    # identical apart from the instance name line
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("instance")]
    assert strip(from_file) == strip(from_seed)


def test_classify_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{")
    assert main(["classify", str(p)]) == 2


def test_classify_improper_exit_3(tmp_path, capsys):
    p = tmp_path / "improper.json"
    p.write_text(json.dumps({**Z6_SPEC, "submodule_generators": ["1"]}))
    assert main(["classify", str(p)]) == 3


def test_classify_budget_exit_4(z6_path, capsys):
    assert main(["classify", z6_path, "--budget", "10"]) == 4
    err = capsys.readouterr().err
    assert "exceeds the budget" in err


def test_seed_list(capsys):
    assert main(["classify", "--seed-corpus", "list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "z6-weakly-prime" in out and "z16-primary-not-prime" in out


def test_spec_and_seed_conflict(z6_path):
    assert main(["classify", z6_path, "--seed-corpus", "z6-remark"]) == 2


def test_verify_exit_1_on_gap(z6_path, capsys):
    assert main(["verify", z6_path]) == 1
    out = capsys.readouterr().out
    assert "C_WP\t-\t-\tfail" in out


def test_verify_single_theorem_pass(z6_path, capsys):
    assert main(["verify", z6_path, "--theorem", "L1"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1 and "\tL1\t" in lines[0]


def test_verify_theorem_comma_list(z6_path, capsys):
    assert main(["verify", z6_path, "--theorem", "L1,L8"]) == 0
    out = capsys.readouterr().out
    assert "\tL8\t" in out and "\tL1\t" in out


def test_a_failing_L8_stops_a_hunt_and_is_a_fail_row_in_verify(z6_path, monkeypatch, capsys):
    # L8 checks the construction itself: a hunt refuses to go on past a
    # failure, while verify reports it as one more row
    broken = theorems.Checker(lambda ctx: ("fail", "forced"), per_instance=True)
    monkeypatch.setitem(theorems.CHECKERS, "L8", broken)
    with pytest.raises(RuntimeError, match=re.escape(
            "construction bug: the canonical quotient maps failed on Z1|I={0}")):
        main(["hunt", "--max", "2", "--theorem", "L8"])
    capsys.readouterr()
    assert main(["verify", z6_path, "--theorem", "L8,L1"]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "z6\tL8\t-\t-\tfail\tforced"
    assert len(rows) == 2 and "\tL1\t-\t-\tpass\t" in rows[1]


def test_verify_unknown_theorem_exit_2(z6_path):
    assert main(["verify", z6_path, "--theorem", "NOPE"]) == 2


def test_verify_variant_and_reading_flags(z6_path, capsys):
    assert main(["verify", z6_path, "--theorem", "L3i",
                 "--variant", "azizi", "--reading", "bowtie"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "\tL3i\t" in l]
    assert len(lines) == 1
    assert "\tazizi\tbowtie\t" in lines[0]


def test_verify_transfer_all_on_z12(tmp_path, capsys):
    p = tmp_path / "z12.json"
    p.write_text(json.dumps({
        "ring": {"zn": 12},
        "ideal_generators": ["4"],
        "module": "regular",
        "submodule_generators": ["3"],
    }))
    assert main(["verify", str(p), "--theorem", "transfer-all"]) == 0
    out = capsys.readouterr().out
    assert out.count("\tpass\t") == 3


def test_hunt_writes_deterministic_file(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert main(["hunt", "--max", "5", "--out", str(a), "--workers", "1"]) == 0
    assert main(["hunt", "--max", "5", "--out", str(b), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_a_hunt_that_raises_leaves_the_previous_report(tmp_path, monkeypatch, capsys):
    # the report is written to a temporary file beside --out, which replaces
    # it only after the hunt succeeds
    report = tmp_path / "report.tsv"
    assert main(["hunt", "--max", "3", "--out", str(report)]) == 0
    before = report.read_bytes()

    def failing(*args, **kwargs):
        assert len(list(tmp_path.iterdir())) == 2  # the temporary file is there
        raise RuntimeError("interrupted")

    monkeypatch.setattr(cli, "hunt", failing)
    with pytest.raises(RuntimeError, match="interrupted"):
        main(["hunt", "--max", "4", "--out", str(report)])
    assert report.read_bytes() == before
    assert list(tmp_path.iterdir()) == [report]


def test_a_refused_lattice_leaves_the_previous_dot_file(z6_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    dot = out_dir / "z6.dot"
    assert main(["lattice", z6_path, "--dot", str(dot)]) == 0
    before = dot.read_bytes()
    assert main(["lattice", z6_path, "--dot", str(dot), "--budget", "4"]) == 4
    assert dot.read_bytes() == before
    assert list(out_dir.iterdir()) == [dot]


def test_a_written_report_gets_the_mode_of_a_new_file(tmp_path, capsys):
    report = tmp_path / "report.tsv"
    assert main(["hunt", "--max", "2", "--out", str(report)]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert report.stat().st_mode & 0o777 == 0o666 & ~umask


def test_hunt_stdout_report(capsys):
    assert main(["hunt", "--max", "3", "--theorem", "L1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("# hunt family=zn max=3")
    body = [l for l in lines[1:] if l]
    assert all(l.split("\t")[1] == "L1" for l in body)
    assert len(body) == 1 + 4 + 4  # sum over n<=3 of d(n)^2


def test_hunt_max12_report_is_byte_identical(capsys):
    assert main(["hunt", "--max", "12"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HUNT_MAX12_SHA256


def test_hunt_l8_max20_report_is_byte_identical(capsys):
    assert main(["hunt", "--max", "20", "--theorem", "L8"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HUNT_L8_MAX20_SHA256


def test_hunt_max24_budget576_report_is_byte_identical(capsys):
    assert main(["hunt", "--max", "24", "--budget", "576"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HUNT_MAX24_BUDGET576_SHA256


def test_hunt_max32_budget1024_report_is_byte_identical(capsys):
    assert main(["hunt", "--max", "32", "--budget", "1024"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HUNT_MAX32_BUDGET1024_SHA256


@pytest.mark.slow
def test_hunt_max48_budget2304_report_is_byte_identical(capsys):
    assert main(["hunt", "--max", "48", "--budget", "2304"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HUNT_MAX48_BUDGET2304_SHA256


@pytest.mark.slow
def test_hunt_max64_budget4096_report_is_byte_identical(capsys):
    assert main(["hunt", "--max", "64", "--budget", "4096"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == HUNT_MAX64_BUDGET4096_LINES
    assert hashlib.sha256(out.encode()).hexdigest() == HUNT_MAX64_BUDGET4096_SHA256


def test_hunt_budget_skip_report_is_byte_identical(capsys):
    assert main(["hunt", "--max", "4", "--budget", "10"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HUNT_BUDGET_SKIP_SHA256


def test_hunt_max_above_budget_exit_2(capsys):
    # every Z_n with n > budget could only be a skip row, so the hunt is
    # refused before any task is listed
    start = time.perf_counter()
    assert main(["hunt", "--max", "1000000", "--budget", "256"]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("bowtie: error: max_n 1000000 exceeds the budget 256;"
                   " every Z_n with n > 256 has |M><I| > 256\n")


def test_hunt_divergence_summary(capsys):
    assert main(["hunt", "--max", "4", "--theorem", "divergence"]) == 0
    err = capsys.readouterr().err
    assert "first divergence: Z4" in err


@pytest.mark.parametrize("command,seed", sorted(SEED_STDOUT_SHA256))
def test_seed_stdout_is_byte_identical(command, seed, capsys):
    code = main([command, "--seed-corpus", seed])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SEED_STDOUT_SHA256[command, seed]


def test_replay_examples_output_is_byte_identical():
    proc = subprocess.run(
        [sys.executable, "scripts/replay_examples.py"], cwd=REPO,
        capture_output=True, text=True, timeout=300, env=_child_env(),
    )
    assert proc.returncode == 1  # the seeds carry known statement gaps
    kept = [l for l in proc.stdout.splitlines(True) if "instances replayed in" not in l]
    assert hashlib.sha256("".join(kept).encode()).hexdigest() == REPLAY_SHA256


def test_divergence_scan_output_is_byte_identical():
    proc = subprocess.run(
        [sys.executable, "scripts/divergence_scan.py", "--max", "12"], cwd=REPO,
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DIVERGENCE_SCAN_SHA256


@pytest.mark.parametrize("workload", ["l8-sweep", "spec-docs"])
def test_ab_instances_runs_with_one_checkout_on_both_sides(workload):
    proc = subprocess.run(
        [sys.executable, "scripts/ab_instances.py", str(REPO), str(REPO),
         "--workload", workload, "--rounds", "1"], cwd=REPO,
        capture_output=True, text=True, timeout=300,
        env=_child_env(PYTHONDONTWRITEBYTECODE="1"),  # spec-docs imports perfbench/specgen.py
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5
    assert re.fullmatch(rf"{workload}: \d+ tasks, 1 rounds, report lines identical", lines[0])
    assert re.fullmatch(r"sum of per-task medians: parent [\d.]+ s, change [\d.]+ s,"
                        r" ratio [\d.]+", lines[1])
    assert re.fullmatch(r"median task: parent [\d.]+ ms, change [\d.]+ ms, ratio [\d.]+",
                        lines[2])
    # perfbench's tail statistic over the 66 and 84 tasks: p84 and p88
    p = {"l8-sweep": 84, "spec-docs": 88}[workload]
    assert re.fullmatch(rf"p{p} task: parent [\d.]+ ms, change [\d.]+ ms, ratio [\d.]+",
                        lines[3])
    # each side's per-round sums, scaled by the probe, as their median and
    # quartiles: one round is all three
    sums = re.fullmatch(r"per-round sums: parent ([\d.]+) s \(q1 \1, q3 \1\),"
                        r" change ([\d.]+) s \(q1 \2, q3 \2\), change lower in [01] of 1 rounds",
                        lines[4])
    assert sums, lines[4]


def test_lattice_dot_output(z6_path, capsys, tmp_path):
    dot = tmp_path / "z6.dot"
    assert main(["lattice", z6_path, "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("digraph submodule_lattice {")
    assert text.count("peripheries=2") == 4  # the bowtie-form submodules
    assert text.count(" -> ") == 12
    err = capsys.readouterr().err
    assert "nodes\t8" in err and "edges\t12" in err


def test_lattice_stdout(z6_path, capsys):
    assert main(["lattice", z6_path]) == 0
    out = capsys.readouterr().out
    assert out.count("[label=") == 8
    assert "WP-af" in out and "P WP-af WP-az WP-b Pri Irr" in out


def test_lattice_dot_escapes_quotes_and_backslashes_in_labels(tmp_path, capsys):
    labels = ['z"0', "o\\"]
    p = tmp_path / "odd.json"
    p.write_text(json.dumps({
        "ring": {"tables": {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]],
                            "labels": labels}},
        "ideal_generators": [labels[1]], "module": "regular"}))
    assert main(["lattice", str(p)]) == 0
    out = capsys.readouterr().out
    # every node line is one DOT string followed by the rest of the attributes
    node = re.compile(r'  s\d+ \[label="((?:[^"\\]|\\.)*)"(?:, peripheries=2)?\];')
    lines = [line for line in out.splitlines() if "[label=" in line]
    assert len(lines) == 4 and all(node.fullmatch(line) for line in lines)
    texts = [re.sub(r"\\(.)", r"\1", node.fullmatch(line)[1]) for line in lines]
    assert texts[-1] == '{(z"0,z"0),(z"0,o\\),(o\\,z"0),(o\\,o\\)}nM><I'


@pytest.mark.parametrize("command,flag,extra", [
    ("hunt", "--out", ["--max", "2"]),
    ("lattice", "--dot", None),
])
def test_unwritable_output_path_exits_2(command, flag, extra, z6_path, tmp_path, capsys,
                                       monkeypatch):
    # the path is opened before any work is done for it: no hunt runs first
    monkeypatch.setattr(cli, "hunt", lambda *a, **k: pytest.fail("the hunt ran"))
    target = tmp_path / "missing" / "report.txt"
    args = [command, *(extra if extra is not None else [z6_path]), flag, str(target)]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert err == f"bowtie: error: cannot write {target}: No such file or directory\n"
    assert "wrote" not in out and not target.exists()


@pytest.mark.parametrize("command,flag,extra", [
    ("hunt", "--out", ["--max", "2"]),
    ("lattice", "--dot", None),
])
def test_output_path_that_is_a_directory_exits_2(command, flag, extra, z6_path, tmp_path,
                                                 capsys, monkeypatch):
    monkeypatch.setattr(cli, "hunt", lambda *a, **k: pytest.fail("the hunt ran"))
    target = tmp_path / "reports"
    target.mkdir()
    args = [command, *(extra if extra is not None else [z6_path]), flag, str(target)]
    assert main(args) == 2
    assert list(target.iterdir()) == [] and sorted(tmp_path.iterdir()) == sorted(
        [target, Path(z6_path)])


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_instance_name_with_a_tab_or_line_break_exits_2(command, tmp_path, capsys):
    p = tmp_path / "named.json"
    p.write_text(json.dumps({**Z6_SPEC, "name": "bad\tname\nsecond"}))
    assert main([command, str(p)]) == 2
    assert capsys.readouterr() == (
        "", "bowtie: error: name: 'bad\\tname\\nsecond' holds a tab or a line break\n")
    # a name taken from the file stem is refused the same way
    q = tmp_path / "bad\rstem.json"
    q.write_text(json.dumps(Z6_SPEC))
    assert main([command, str(q)]) == 2
    assert capsys.readouterr().err == (
        "bowtie: error: file name: 'bad\\rstem' holds a tab or a line break\n")


def _vector_space_doc(k: int) -> dict:
    """F_2^k over F_2 as a table document, with I = 0, so M><I has 2^k elements."""
    n = 1 << k
    return {
        "ring": {"zn": 2},
        "ideal_generators": [],
        "module": {"tables": {
            "add": [[x ^ y for y in range(n)] for x in range(n)],
            "act": [[0] * n, list(range(n))],
            "labels": [format(x, f"0{k}b") for x in range(n)],
        }},
        "submodule_generators": [],
    }


@pytest.mark.parametrize("name", sorted(LATTICE_STDOUT_SHA256))
def test_lattice_stdout_is_byte_identical(name, tmp_path, capsys):
    if name.startswith("F2^"):
        p = tmp_path / "f2.json"
        p.write_text(json.dumps(_vector_space_doc(int(name[3:]))))
        args = ["lattice", str(p)]
    else:
        args = ["lattice", "--seed-corpus", name]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LATTICE_STDOUT_SHA256[name]


@pytest.mark.parametrize("command", ["classify", "verify", "lattice"])
def test_lattice_over_16_nodes_per_budget_element_is_refused(command, tmp_path, capsys,
                                                             monkeypatch):
    # F_2^6 has 2825 submodules: within 16 x 256, beyond 16 x 64
    p = tmp_path / "f2_6.json"
    p.write_text(json.dumps(_vector_space_doc(6)))
    found = []
    real_found = modules._found

    def counting(found_set, mask, limit):
        found.append(mask)
        return real_found(found_set, mask, limit)

    # enumerate_submodules adds each submodule it finds to its found set once
    monkeypatch.setattr(modules, "_found", counting)
    assert main([command, str(p), "--budget", "64"]) == 4
    assert capsys.readouterr().err == (
        "bowtie: error: lattice of M exceeds 1024 submodules (16 x budget 64);"
        " raise --budget or BOWTIE_BUDGET\n")
    # the enumeration stopped at the 1025th submodule, not after all 2825
    assert len(found) == len(set(found)) == 1025


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_im_is_summed_once_per_document_over_a_non_regular_module(command, tmp_path,
                                                                  monkeypatch):
    # the budget check and the duplication both read IM of a module that does
    # not act by its ring's mul; product_submodule sums it once for both.
    # verify also sums (0 x I)(M><I) on M><I, for the distinguished submodules
    calls = []
    real = duplication.product_submodule

    def spy(ideal, module):
        calls.append(module)
        return real(ideal, module)

    monkeypatch.setattr(duplication, "product_submodule", spy)
    doc = _vector_space_doc(2)
    doc["ideal_generators"] = ["1"]
    p = tmp_path / "f2_2.json"
    p.write_text(json.dumps(doc))
    assert main([command, str(p)]) in (0, 1)
    base = [m for m in calls if m.size == 4]
    assert len(base) == 1 and base[0].act is not base[0].ring.mul
    assert len(calls) == {"classify": 1, "verify": 2}[command]


def test_lattice_within_16_nodes_per_budget_element_is_drawn(tmp_path, capsys):
    # F_2^5 has 374 submodules, within 16 x 32
    p = tmp_path / "f2_5.json"
    p.write_text(json.dumps(_vector_space_doc(5)))
    assert main(["lattice", str(p), "--budget", "32"]) == 0
    assert "nodes\t374" in capsys.readouterr().err


def test_lattice_cap_names_the_duplicated_module(tmp_path, capsys):
    # F_2^4 with I = F_2: M has 67 submodules, M><I = M x M has 67 * 67 = 4489
    doc = _vector_space_doc(4)
    doc["ideal_generators"] = ["1"]
    p = tmp_path / "f2_4.json"
    p.write_text(json.dumps(doc))
    assert main(["classify", str(p)]) == 4
    assert capsys.readouterr().err == (
        "bowtie: error: lattice of M><I exceeds 4096 submodules (16 x budget 256);"
        " raise --budget or BOWTIE_BUDGET\n")


def test_console_entry_point():
    proc = _run_cli("classify", "--seed-corpus", "z6-weakly-prime")
    assert proc.returncode == 0
    assert "[N><I in M><I]" in proc.stdout


def test_budget_covers_the_duplicated_ring(tmp_path, capsys):
    # Z24 with I = Z24 acting on Z2: |M><I| = 4 but |A><I| = 576
    p = tmp_path / "z24-on-z2.json"
    p.write_text(json.dumps({
        "ring": {"zn": 24},
        "ideal_generators": ["1"],
        "module": {"tables": {
            "add": [[0, 1], [1, 0]],
            "act": [[0, a % 2] for a in range(24)],
        }},
    }))
    assert main(["verify", str(p), "--budget", "256"]) == 4
    assert ("|A><I| = 576 exceeds the budget 256; raise --budget or BOWTIE_BUDGET"
            in capsys.readouterr().err)


# Z200 with I = Z200 on itself: A><I has 200 * 200 = 40000 elements, so
# its add and mul hold uint16 entries, and the regular M><I shares them.
# Z24 with I = Z24 on Z2: A><I has 576 elements (uint16 entries), and M><I
# has 4, with uint8 entries in its 4 x 4 add and its 576 x 4 act.
@pytest.mark.parametrize("doc,budget,refused,held", [
    ({"ring": {"zn": 200}, "ideal_generators": ["1"], "module": "regular"},
     1000, "|M><I| = 40000", 2 * 40000 * 40000 * 2),
    ({"ring": {"zn": 24}, "ideal_generators": ["1"],
      "module": {"tables": {"add": [[0, 1], [1, 0]], "act": [[0, a % 2] for a in range(24)]}}},
     256, "|A><I| = 576", 2 * 576 * 576 * 2 + (4 * 4 + 576 * 4) * 1),
], ids=["z200-regular", "z24-on-z2"])
def test_budget_refusal_names_the_bytes_of_the_tables(doc, budget, refused, held, tmp_path,
                                                      capsys):
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc))
    assert main(["verify", str(p), "--budget", str(budget)]) == 4
    assert capsys.readouterr().err == (
        f"bowtie: error: {refused} exceeds the budget {budget}; raise --budget or BOWTIE_BUDGET"
        f" (the tables of A><I and M><I would hold {held} bytes)\n")


@pytest.mark.parametrize("ring,size", [
    ({"zn": 2000}, 2000),
    ({"product": [{"zn": 20}, {"zn": 20}]}, 400),
], ids=["zn", "product"])
def test_large_ring_refused_before_its_tables(ring, size, tmp_path, capsys, monkeypatch):
    import bowtie.instances

    def unbuilt(*args):
        raise AssertionError("tables built for an over-budget ring")

    monkeypatch.setattr(bowtie.instances, "make_zn", unbuilt)
    monkeypatch.setattr(bowtie.instances, "direct_product", unbuilt)
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"ring": ring, "ideal_generators": [], "module": "regular"}))
    assert main(["classify", str(p)]) == 4
    assert capsys.readouterr().err == (
        f"bowtie: error: |A| = {size} exceeds the budget 256;"
        " raise --budget or BOWTIE_BUDGET\n")


@pytest.mark.parametrize("command", ["classify", "verify", "lattice"])
def test_large_module_table_refused_before_it_is_read(command, tmp_path, capsys, monkeypatch):
    # |M><I| >= |M|, so a module table over the budget is refused unread
    import bowtie.instances

    def unread(*args, **kwargs):
        raise AssertionError("an over-budget module table was validated")

    p = tmp_path / "f2-cubed.json"  # F_2^3 over Z2, with I = 0: |M><I| = |M| = 8
    p.write_text(json.dumps({
        "ring": {"zn": 2}, "ideal_generators": [],
        "module": {"tables": {"add": [[a ^ b for b in range(8)] for a in range(8)],
                              "act": [[0] * 8, list(range(8))]}},
    }))
    assert main([command, str(p), "--budget", "8"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(bowtie.instances, "validate_module", unread)
    assert main([command, str(p), "--budget", "7"]) == 4
    assert capsys.readouterr().err == (
        "bowtie: error: |M| = 8 exceeds the budget 7; raise --budget or BOWTIE_BUDGET\n")


@pytest.mark.parametrize("ring,where", [
    ({"product": [{"zn": 1000000}, {"zn": 0}]}, "ring.product[1].zn"),
    ({"product": [{"zn": 1000000}, {"zn": True}]}, "ring.product[1].zn"),
    ({"product": [{"zn": 1000000}, {"zn": -3}]}, "ring.product[1].zn"),
    ({"product": [{"zn": 1000000}, {"ring": 2}]}, "ring.product[1]"),
    ({"product": [{"zn": 1000000}, {"product": [{"zn": 2}]}]}, "ring.product[1].product"),
], ids=["zero", "bool", "negative", "unknown-kind", "short-product"])
def test_bad_factor_refused_before_any_table(ring, where, tmp_path, capsys, monkeypatch):
    # a factor that is not a positive int makes |A| unknown, so the size gate
    # cannot refuse the document; it is rejected before the left factor is built
    import bowtie.instances

    def unbuilt(*args):
        raise AssertionError("tables built for a malformed ring")

    monkeypatch.setattr(bowtie.instances, "make_zn", unbuilt)
    monkeypatch.setattr(bowtie.instances, "direct_product", unbuilt)
    assert bowtie.instances.declared_ring_size(ring) is None
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"ring": ring, "ideal_generators": [], "module": "regular"}))
    assert main(["classify", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bowtie: error: {where}: ") and err.count("\n") == 1


@pytest.mark.parametrize("depth", [40, 3000])
def test_deep_product_nesting_is_a_spec_error(depth, tmp_path, capsys):
    ring = '{"product": [' * depth + '{"zn": 1}' + ', {"zn": 1}]}' * depth
    p = tmp_path / "deep.json"
    p.write_text('{"ring": %s, "ideal_generators": [], "module": "regular"}' % ring)
    assert main(["classify", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bowtie: error: ") and err.count("\n") == 1
    assert "nest" in err


@pytest.mark.parametrize("where,doc", [
    ("ring.tables.labels", {
        "ring": {"tables": {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]],
                            "labels": ["a", "a"]}},
        "ideal_generators": [], "module": "regular"}),
    ("module.tables.labels", {
        "ring": {"zn": 2}, "ideal_generators": [],
        "module": {"tables": {"add": [[0, 1], [1, 0]], "act": [[0, 0], [0, 1]],
                              "labels": ["x", "x"]}}}),
], ids=["ring", "module"])
def test_duplicate_labels_exit_2(where, doc, tmp_path, capsys):
    p = tmp_path / "dup.json"
    p.write_text(json.dumps(doc))
    assert main(["verify", str(p)]) == 2
    assert capsys.readouterr().err == f"bowtie: error: {where}: labels must be distinct\n"


def test_budget_env_var(z6_path):
    proc = _run_cli("classify", z6_path, BOWTIE_BUDGET="10")
    assert proc.returncode == 4
    assert "exceeds the budget" in proc.stderr


def test_budget_variable_sets_the_hunt_budget(monkeypatch, capsys):
    monkeypatch.setenv("BOWTIE_BUDGET", "64")
    assert main(["hunt", "--max", "2", "--theorem", "L1"]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(" budget=64")
    assert main(["hunt", "--max", "2", "--theorem", "L1", "--budget", "32"]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(" budget=32")
    monkeypatch.setenv("BOWTIE_BUDGET", "x")
    assert main(["hunt", "--max", "2", "--theorem", "L1"]) == 2
    assert capsys.readouterr() == (
        "", "bowtie: error: BOWTIE_BUDGET must be an integer, got 'x'\n")


def test_budget_env_var_not_an_integer(z6_path):
    proc = _run_cli("classify", z6_path, BOWTIE_BUDGET="abc")
    assert (proc.returncode, proc.stderr) == (
        2, "bowtie: error: BOWTIE_BUDGET must be an integer, got 'abc'\n")


def _cap_address_space() -> None:
    """Run in the child before exec: cap its address space at 1 GB."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_out_of_memory_exits_4_without_a_traceback(tmp_path):
    # Z200 with I = Z200 fits --budget 40000, but A><I's 40000 x 40000
    # tables (3 GB each) do not fit a child capped at 1 GB
    p = tmp_path / "z200.json"
    p.write_text(json.dumps({"ring": {"zn": 200}, "ideal_generators": ["1"],
                             "module": "regular"}))
    proc = subprocess.run(
        [sys.executable, "-m", "bowtie.cli", "verify", str(p), "--budget", "40000"],
        capture_output=True, text=True, timeout=120, preexec_fn=_cap_address_space,
        env=_child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        4, "", "bowtie: error: out of memory building z200: the tables of A><I and M><I"
        " would hold 6400000000 bytes; lower --budget or BOWTIE_BUDGET\n")


# ------------------------------------------------------------- refusals
#
# Every way the CLI refuses a run, one row each: the argv and BOWTIE_BUDGET,
# then the exit code and the exact stdout and stderr. In argv and in the
# expected text, "@name" is a path: of the document REFUSAL_DOCS[name],
# "@out" of an output file that already holds KEPT, which no row may change,
# "@missing" of a file in a directory that does not exist, and "@dir" of an
# empty directory, which no row may write into. oom names a
# function of the cli module that is replaced by one raising MemoryError.

KEPT = b"the previous output\n"

SEED_LIST = "z12-prime\nz16-primary-not-prime\nz20-primary\nz6-remark\nz6-weakly-prime\n"

REFUSAL_DOCS = {
    "z6": Z6_SPEC,
    "bad": "{",
    "improper": {**Z6_SPEC, "submodule_generators": ["1"]},
    "z2000": {"ring": {"zn": 2000}, "ideal_generators": [], "module": "regular"},
    "f2-cubed": {"ring": {"zn": 2}, "ideal_generators": [],
                 "module": {"tables": {"add": [[a ^ b for b in range(8)] for a in range(8)],
                                       "act": [[0] * 8, list(range(8))]}}},
    "z24-on-z2": {"ring": {"zn": 24}, "ideal_generators": ["1"],
                  "module": {"tables": {"add": [[0, 1], [1, 0]],
                                        "act": [[0, a % 2] for a in range(24)]}}},
    "f2-6": _vector_space_doc(6),
    "f2-4-on-f2": {**_vector_space_doc(4), "ideal_generators": ["1"]},
}

NO_INSTANCE = "no instance given; pass SPEC.json or --seed-corpus NAME"
BAD_VARIABLE = "BOWTIE_BUDGET must be an integer, got 'abc'"
RAISE = "; raise --budget or BOWTIE_BUDGET"
Z6_TABLES = "the tables of A><I and M><I would hold 288 bytes"

# id, argv, BOWTIE_BUDGET, oom, exit code, stdout, stderr
REFUSALS = [
    ("seed-list", ["classify", "--seed-corpus", "list"], None, None, 0, SEED_LIST, ""),
    ("seed-list-before-all-else",
     ["verify", "@z6", "--seed-corpus", "list", "--theorem", "NOPE"], "abc", None,
     0, SEED_LIST, ""),
    ("seed-list-writes-no-dot", ["lattice", "--seed-corpus", "list", "--dot", "@out"], "abc",
     None, 0, SEED_LIST, ""),
    ("spec-and-seed", ["classify", "@z6", "--seed-corpus", "z6-remark"], None, None,
     2, "", "give either a spec file or --seed-corpus, not both"),
    ("no-instance", ["lattice", "--dot", "@out"], None, None, 2, "", NO_INSTANCE),
    ("unknown-seed", ["verify", "--seed-corpus", "nope"], None, None, 2, "",
     "unknown seed 'nope'; built-ins: z12-prime, z16-primary-not-prime, z20-primary,"
     " z6-remark, z6-weakly-prime"),
    ("bad-json", ["classify", "@bad"], None, None, 2, "",
     "@bad: not valid JSON: Expecting property name enclosed in double quotes:"
     " line 1 column 2 (char 1)"),
    ("verify-unknown-theorem", ["verify", "@z6", "--theorem", "NOPE"], None, None, 2, "",
     "unknown theorem id 'NOPE'"),
    ("hunt-unknown-theorem", ["hunt", "--theorem", "bogus", "--out", "@out"], None, None,
     2, "", "unknown theorem id 'bogus'"),
    ("hunt-negative-max", ["hunt", "--max", "-1", "--out", "@out"], None, None, 2, "",
     "max_n must be nonnegative"),
    ("hunt-negative-max-to-stdout", ["hunt", "--max", "-1"], None, None, 2, "",
     "max_n must be nonnegative"),
    ("hunt-unknown-theorem-to-stdout", ["hunt", "--theorem", "bogus"], None, None, 2, "",
     "unknown theorem id 'bogus'"),
    ("hunt-max-above-budget", ["hunt", "--max", "300", "--out", "@out"], None, None, 2, "",
     "max_n 300 exceeds the budget 256; every Z_n with n > 256 has |M><I| > 256"),
    ("hunt-max-above-variable", ["hunt", "--max", "100"], "64", None, 2, "",
     "max_n 100 exceeds the budget 64; every Z_n with n > 64 has |M><I| > 64"),
    ("variable-classify", ["classify", "@z6"], "abc", None, 2, "", BAD_VARIABLE),
    ("variable-verify", ["verify", "@z6"], "abc", None, 2, "", BAD_VARIABLE),
    ("variable-hunt", ["hunt", "--max", "2", "--out", "@out"], "abc", None, 2, "",
     BAD_VARIABLE),
    ("variable-lattice", ["lattice", "@z6", "--dot", "@out"], "abc", None, 2, "",
     BAD_VARIABLE),
    ("size-A", ["classify", "@z2000"], None, None, 4, "",
     "|A| = 2000 exceeds the budget 256" + RAISE),
    ("size-M", ["lattice", "@f2-cubed", "--budget", "7", "--dot", "@out"], None, None, 4, "",
     "|M| = 8 exceeds the budget 7" + RAISE),
    ("size-MI", ["classify", "@z6", "--budget", "10"], None, None, 4, "",
     f"|M><I| = 12 exceeds the budget 10{RAISE} ({Z6_TABLES})"),
    ("size-A-lattice", ["lattice", "@z6", "--budget", "4"], None, None, 4, "",
     "|A| = 6 exceeds the budget 4" + RAISE),
    ("size-AI", ["verify", "@z24-on-z2"], None, None, 4, "",
     f"|A><I| = 576 exceeds the budget 256{RAISE}"
     " (the tables of A><I and M><I would hold 1329424 bytes)"),
    ("lattice-of-M", ["verify", "@f2-6"], "64", None, 4, "",
     "lattice of M exceeds 1024 submodules (16 x budget 64)" + RAISE),
    ("lattice-of-MI", ["lattice", "@f2-4-on-f2", "--dot", "@out"], None, None, 4, "",
     "lattice of M><I exceeds 4096 submodules (16 x budget 256)" + RAISE),
    ("oom-building", ["classify", "@z6"], None, "Instance", 4, "",
     f"out of memory building z6: {Z6_TABLES}; lower --budget or BOWTIE_BUDGET"),
    ("oom-after-building", ["lattice", "@z6", "--dot", "@out"], None, "classify_submodule",
     4, "", "out of memory; lower --budget or BOWTIE_BUDGET"),
    ("improper", ["classify", "@improper"], None, None, 3, "",
     "N = {0,1,2,3,4,5} is not a proper submodule; nothing to classify"),
    ("unwritable-out", ["hunt", "--max", "2", "--out", "@missing"], None, None, 2, "",
     "cannot write @missing: No such file or directory"),
    ("unwritable-dot", ["lattice", "@z6", "--dot", "@missing"], "abc", None, 2, "",
     "cannot write @missing: No such file or directory"),
    ("directory-out", ["hunt", "--max", "2", "--out", "@dir"], None, None, 2, "",
     "cannot write @dir: Is a directory"),
    ("directory-dot", ["lattice", "@z6", "--dot", "@dir"], None, None, 2, "",
     "cannot write @dir: Is a directory"),
    ("verify-instance-before-theorem", ["verify", "--theorem", "NOPE"], None, None, 2, "",
     NO_INSTANCE),
    ("verify-theorem-before-variable", ["verify", "@z6", "--theorem", "NOPE"], "abc", None,
     2, "", "unknown theorem id 'NOPE'"),
    ("hunt-variable-before-theorem", ["hunt", "--theorem", "bogus"], "abc", None, 2, "",
     BAD_VARIABLE),
    ("hunt-theorem-before-out", ["hunt", "--theorem", "bogus", "--out", "@missing"], None,
     None, 2, "", "unknown theorem id 'bogus'"),
    ("verify-empty-theorem", ["verify", "@z6", "--theorem", ","], None, None, 2, "",
     "no theorem id given"),
    ("hunt-empty-theorem", ["hunt", "--theorem", " ", "--out", "@out"], None, None, 2, "",
     "no theorem id given"),
]


@pytest.mark.parametrize("argv,variable,oom,code,out,err", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusals(argv, variable, oom, code, out, err, tmp_path, capsys, monkeypatch):
    paths = {"out": tmp_path / "out" / "kept.txt", "missing": tmp_path / "missing" / "x.txt",
             "dir": tmp_path / "dir"}
    paths["out"].parent.mkdir()
    paths["dir"].mkdir()
    paths["out"].write_bytes(KEPT)
    for name, doc in REFUSAL_DOCS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(doc if isinstance(doc, str) else json.dumps(doc))
    if variable is not None:
        monkeypatch.setenv("BOWTIE_BUDGET", variable)
    if oom is not None:
        def out_of_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli, oom, out_of_memory)
    at = lambda text: re.sub(r"@([\w-]+)", lambda m: str(paths[m[1]]), text)
    assert main([at(a) for a in argv]) == code
    assert capsys.readouterr() == (out, f"bowtie: error: {at(err)}\n" if err else "")
    assert paths["out"].read_bytes() == KEPT
    assert list(paths["out"].parent.iterdir()) == [paths["out"]]
    assert not paths["missing"].parent.exists()
    assert list(paths["dir"].iterdir()) == []
