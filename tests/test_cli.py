"""Command-line surface: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from constalg import groebner, normal_words, presentation
from constalg.cli import run


@pytest.fixture
def instance_file(tmp_path):
    def write(data, name="inst.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


CLASSICAL_4 = {"d": 4, "f": [[0, 1], [0, 1], [0, 1], [0, 1]]}
CLASSICAL_2 = {"d": 2, "f": [[0, 1], [0, 1]]}


def test_relations_listing(instance_file, capsys):
    code = run(["relations", "--instance", instance_file(CLASSICAL_4)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("R(1,2,3,4): ")
    assert sum(1 for line in lines if line.startswith("S(")) == 4


def test_relations_out_file(instance_file, tmp_path, capsys):
    out_path = tmp_path / "relations.txt"
    run(["relations", "--instance", instance_file(CLASSICAL_4), "--out", str(out_path)])
    stdout = capsys.readouterr().out
    assert out_path.read_text() == stdout


def test_verify_gb_success_and_certificate(instance_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = run(
        [
            "verify-gb",
            "--instance",
            instance_file(CLASSICAL_4),
            "--certificate",
            str(cert_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: verified reduced Groebner basis" in out
    cert = json.loads(cert_path.read_text())
    assert cert["verdict"] is True
    assert cert["variant"] == "corrected"
    assert len(cert["pairs"]) == 10
    assert all(p["normal_form_zero"] for p in cert["pairs"])
    assert cert["instance"]["d"] == 4


def test_verify_gb_literal_variant_fails(instance_file, capsys):
    code = run(
        ["verify-gb", "--instance", instance_file(CLASSICAL_4), "--variant", "paper"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: FAILED" in out
    assert "lead of" in out


def test_verify_gb_jobs_flag_same_output(instance_file, capsys):
    path = instance_file(CLASSICAL_4)
    run(["verify-gb", "--instance", path])
    serial = capsys.readouterr().out
    run(["verify-gb", "--instance", path, "--jobs", "2"])
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_verify_gb_certificate_is_byte_deterministic(instance_file, tmp_path, capsys):
    path = instance_file(CLASSICAL_4)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for cert in (first, second):
        assert run(["verify-gb", "--instance", path, "--certificate", str(cert)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert "generated_at" not in json.loads(first.read_text())


def test_dimension_cap(instance_file, capsys):
    at_cap = instance_file({"d": 64, "f": [[0, 1]] * 64}, "d64.json")
    assert run(["check", "--instance", at_cap, "--poly", "x64"]) == 0
    assert capsys.readouterr().out == "constant\n"
    above = instance_file({"d": 65, "f": [[0, 1]] * 65}, "d65.json")
    assert run(["rewrite", "--instance", above, "--poly", "x1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the supported maximum of 64" in captured.err


def test_normal_words_listing_and_count(instance_file, capsys):
    path = instance_file(CLASSICAL_2)
    code = run(["normal-words", "--instance", path, "--max-deg", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["1", "x2", "x1"]
    run(["normal-words", "--instance", path, "--max-deg", "1", "--count-only"])
    assert capsys.readouterr().out.strip() == "3"


def test_normal_words_word_guard_exit_2(instance_file, monkeypatch, capsys):
    monkeypatch.setattr(normal_words, "MAX_NORMAL_WORDS", 2)
    path = instance_file(CLASSICAL_2)
    assert run(["normal-words", "--instance", path, "--max-deg", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: more than 2 normal words")


def test_count_only_ignores_word_guard(instance_file, monkeypatch, capsys):
    # Counting builds no words, so the listing cap does not apply.
    monkeypatch.setattr(normal_words, "MAX_NORMAL_WORDS", 2)
    path = instance_file(CLASSICAL_2)
    assert run(["normal-words", "--instance", path, "--max-deg", "1", "--count-only"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_count_only_budget_exit_2(instance_file, capsys):
    path = instance_file({"d": 64, "f": [[0, 1]] * 64}, "d64.json")
    start = time.perf_counter()
    code = run(["normal-words", "--instance", path, "--max-deg", "1000000", "--count-only"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: counting normal words up to image degree 1000000")
    assert elapsed < 1.0


def test_check_verdicts(instance_file, capsys):
    path = instance_file(CLASSICAL_2)
    assert run(["check", "--instance", path, "--poly", "y1"]) == 1
    assert capsys.readouterr().out.strip() == "not a constant"
    assert run(["check", "--instance", path, "--poly", "x1*y2-x2*y1"]) == 0
    assert capsys.readouterr().out.strip() == "constant"


def test_poly_text_may_start_with_minus(instance_file, capsys):
    path = instance_file(CLASSICAL_4)
    assert run(["check", "--instance", path, "--poly", "-3/2*x2*x3*x4"]) == 0
    assert capsys.readouterr().out == "constant\n"
    assert run(["check", "--instance", path, "--poly", "-y1"]) == 1
    assert capsys.readouterr().out == "not a constant\n"
    assert run(["rewrite", "--instance", path, "--poly", "-x1"]) == 0
    assert capsys.readouterr().out == "-x1\n"
    assert run(["rewrite", "--instance", path, "--poly", "-x1*y2 + x2*y1"]) == 0
    assert capsys.readouterr().out == "-u1_2\n"


def test_poly_without_text_exit_2(instance_file, capsys):
    assert run(["check", "--instance", instance_file(CLASSICAL_2), "--poly"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument --poly: expected one argument\n"


def test_check_huge_exponent(instance_file, capsys):
    # The exponent is read directly, not built by two million multiplications.
    path = instance_file(CLASSICAL_2)
    assert run(["check", "--instance", path, "--poly", "x1^2000000"]) == 0
    assert capsys.readouterr().out.strip() == "constant"


def test_check_overlong_numbers_exit_2(instance_file, capsys):
    # More digits than int() accepts from a string: a parse error, not a traceback.
    path = instance_file(CLASSICAL_2)
    nines = "9" * 5000
    for poly, offset in ((f"x1^{nines}", 3), (f"{nines}*x1", 0)):
        assert run(["check", "--instance", path, "--poly", poly]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: number of 5000 digits at offset {offset} is too long\n"


def test_rewrite_generator(instance_file, capsys):
    path = instance_file(CLASSICAL_2)
    code = run(["rewrite", "--instance", path, "--poly", "x1*y2-x2*y1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "u1_2"


def test_rewrite_out_file(instance_file, tmp_path, capsys):
    out_path = tmp_path / "rewrite.txt"
    path = instance_file(CLASSICAL_4)
    poly = "x1*y2-x2*y1 + 2*x3"
    assert run(["rewrite", "--instance", path, "--poly", poly, "--out", str(out_path)]) == 0
    stdout = capsys.readouterr().out
    assert stdout == "u1_2 + 2*x3\n"
    assert out_path.read_text() == stdout


def test_rewrite_non_constant_exits_1(instance_file, capsys):
    path = instance_file(CLASSICAL_2)
    code = run(["rewrite", "--instance", path, "--poly", "y1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


def test_rewrite_rejects_non_constant_before_peeling(instance_file, monkeypatch, capsys):
    # Without the constancy test first, peeling x1^N*y2^N would take u1_2^N
    # and fail only after N steps; the test rejects it before any generator.
    def no_generators(inst):
        raise AssertionError("build_generators called on a non-constant")

    monkeypatch.setattr(normal_words, "build_generators", no_generators)
    path = instance_file(CLASSICAL_2)
    code = run(["rewrite", "--instance", path, "--poly", "x1^1000000*y2^1000000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: polynomial is not a constant of the derivation\n"


def test_rewrite_peel_budget_exit_2(instance_file, monkeypatch, capsys):
    path = instance_file(CLASSICAL_2)
    poly = "x1*y2 - x2*y1 + x1^2"  # pi(u1_2 + x1^2): two peel steps
    monkeypatch.setattr(normal_words, "MAX_PEEL_STEPS", 2)
    assert run(["rewrite", "--instance", path, "--poly", poly]) == 0
    assert capsys.readouterr().out == "u1_2 + x1^2\n"
    monkeypatch.setattr(normal_words, "MAX_PEEL_STEPS", 1)
    assert run(["rewrite", "--instance", path, "--poly", poly]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rewriting needs more than 1 peel steps\n"


def test_kernel_dim(instance_file, capsys):
    path = instance_file(CLASSICAL_2)
    code = run(["kernel-dim", "--instance", path, "--max-deg", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "dimension: 7"
    run(["kernel-dim", "--instance", path, "--max-deg", "2", "--basis"])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dimension: 7"
    assert len(out) == 8


@pytest.mark.parametrize("command", ["normal-words", "kernel-dim"])
def test_negative_max_deg_exit_2(instance_file, capsys, command):
    path = instance_file(CLASSICAL_2)
    assert run([command, "--instance", path, "--max-deg", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-deg must be nonnegative\n"


@pytest.mark.parametrize("command", ["normal-words", "kernel-dim"])
def test_missing_instance_reported_before_degree(tmp_path, capsys, command):
    missing = str(tmp_path / "nope.json")
    for degree in ("2", "-1"):
        assert run([command, "--instance", missing, "--max-deg", degree]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read instance file")


def test_kernel_dim_guard_trips_before_enumerating(instance_file, monkeypatch, capsys):
    def enumerate_all(d, bound):
        raise AssertionError("the slice was enumerated before the guard check")

    monkeypatch.setattr(normal_words, "_monomials_up_to_degree", enumerate_all)
    path = instance_file(CLASSICAL_4)
    assert run(["kernel-dim", "--instance", path, "--max-deg", "60"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 7392009768 monomials exceed the guard bound 5000\n"


def _must_not_build(*args):
    raise AssertionError("relations were built before the budget check")


def test_relations_budget_exit_2(instance_file, monkeypatch, capsys):
    monkeypatch.setattr(presentation, "quadratic_relation", _must_not_build)
    monkeypatch.setattr(presentation, "mixed_relation", _must_not_build)
    path = instance_file({"d": 64, "f": [[0, 1]] * 64})
    assert run(["relations", "--instance", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: d=64 has 677040 relations, more than 12650\n"


@pytest.mark.parametrize("d, relations", [(64, 677040), (13, 1001)])
def test_verify_gb_pair_budget_exit_2(instance_file, monkeypatch, capsys, d, relations):
    monkeypatch.setattr(groebner, "build_relations", _must_not_build)
    path = instance_file({"d": d, "f": [[0, 1]] * d})
    assert run(["verify-gb", "--instance", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {relations} relations give more than 300000 pairs\n"


def test_verify_gb_reduction_step_budget_exit_2(instance_file, tmp_path, monkeypatch, capsys):
    path = instance_file(CLASSICAL_4)
    cert = tmp_path / "cert.json"
    argv = ["verify-gb", "--instance", path, "--certificate", str(cert)]
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", 10)  # d = 4 takes 10 steps
    assert run(argv) == 0
    assert capsys.readouterr().out.endswith("verdict: verified reduced Groebner basis\n")
    cert.unlink()
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", 9)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: verification needs more than 9 reduction steps\n"
    assert not cert.exists()


def test_degenerate_instances_exit_2(instance_file, capsys):
    for bad in (
        {"d": 2, "f": [[3], [0, 1]]},  # constant f_1
        {"d": 2, "f": [[0], [0, 1]]},  # zero f_1
        {"d": 2, "f": [[], [0, 1]]},  # empty f_1
    ):
        code = run(["verify-gb", "--instance", instance_file(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")


def test_parse_errors_exit_2(instance_file, capsys):
    path = instance_file(CLASSICAL_2)
    assert run(["check", "--instance", path, "--poly", "x9"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert run(["check", "--instance", path, "--poly", "u2_1 +"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_instance_file_exit_2(tmp_path, capsys):
    assert run(["relations", "--instance", str(tmp_path / "nope.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "content",
    [
        b'{"d": 2, "f": [["\xff"], [0, 1]]}',
        b'{"d": 1' + b"0" * 5000 + b', "f": []}',
        b'{"d": 1, "f": [[0, 1' + b"0" * 5000 + b']]}',
        b"[" * 100_000,
    ],
    ids=["non-utf8", "overlong-d", "overlong-f", "deep-nesting"],
)
def test_malformed_instance_file_exit_2(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert run(["relations", "--instance", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot parse instance file")


@pytest.mark.parametrize(
    "argv, data",
    [
        (["verify-gb", "--certificate"], CLASSICAL_2),
        (["relations", "--out"], CLASSICAL_4),  # at d = 2 there are no relations to print
        (["rewrite", "--poly", "x1", "--out"], CLASSICAL_2),
    ],
    ids=["verify-gb", "relations", "rewrite"],
)
def test_unwritable_output_exit_2(instance_file, tmp_path, capsys, argv, data):
    target = str(tmp_path / "missing" / "out.txt")
    assert run([*argv, target, "--instance", instance_file(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output file")


@pytest.mark.parametrize(
    "data, message",
    [
        ({"d": 2, "f": [[0, True], [0, 1]]}, "coefficient True is not an exact rational"),
        ({"d": "2", "f": [[0, 1], [0, 1]]}, "field 'd' must be an integer, got '2'"),
        ({"d": 2, "f": "x1"}, "field 'f' must be a list of coefficient lists"),
        ({"d": 2, "f": [1, 2]}, "coefficients of f_1 must be a list or tuple, got 1"),
    ],
    ids=["bool-coefficient", "string-d", "string-f", "flat-f"],
)
def test_invalid_instance_fields_exit_2(instance_file, capsys, data, message):
    assert run(["relations", "--instance", instance_file(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_usage_errors_exit_2(capsys):
    assert run(["frobnicate"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert run(["relations"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert run(["normal-words", "--instance", "x.json", "--max-deg", "plenty"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_byte_identical_reruns(instance_file, capsys):
    path = instance_file(CLASSICAL_4)
    outputs = []
    for _ in range(2):
        run(["relations", "--instance", path])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        run(["normal-words", "--instance", path, "--max-deg", "3"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_module_entry_point(instance_file):
    # the child imports the tree's own code, installed or not
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "constalg",
            "check",
            "--instance",
            instance_file(CLASSICAL_2),
            "--poly",
            "x1",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "constant"


def test_cli_runs_without_dataclasses_or_inspect():
    # Without site (-S) a fresh interpreter imports only what constalg needs;
    # the records are namedtuple subclasses, so `dataclasses` and the
    # `inspect` it pulls in stay unloaded.
    golden = Path(__file__).parent / "golden"
    instance = str(golden / "nowicki4.json")
    argvs = [
        ["verify-gb", "--instance", instance],
        ["kernel-dim", "--instance", instance, "--max-deg", "5", "--basis"],
    ]
    script = (
        "import sys\n"
        "from constalg import cli\n"
        f"codes = [cli.run(argv) for argv in {argvs!r}]\n"
        "loaded = [name for name in ('dataclasses', 'inspect') if name in sys.modules]\n"
        "print(codes, loaded, file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert result.stderr == "[0, 0] []\n"
    expected = [golden / "nowicki4.corrected.stdout", golden / "nowicki4.kernel-dim.5.stdout"]
    assert result.stdout == "".join(path.read_text() for path in expected)
