import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from homcap.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """``python -m homcap.cli ...`` in a new interpreter, with homcap from src."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "homcap.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


class TestCapacityCommand:
    def test_headline_value(self, capsys):
        code, out, err = run(capsys, "capacity", "S^2 v S^4")
        assert code == 0
        assert "Finite(4)" in out

    def test_unknown_is_success(self, capsys):
        code, out, _ = run(capsys, "capacity", "CP^3")
        assert code == 0
        assert "Unknown" in out

    def test_enumerate(self, capsys):
        doc = run_json(capsys, "capacity", "S^1 v S^2", "--enumerate")
        assert doc["capacity"] == {"kind": "finite", "value": 4}
        assert doc["dominated"] == ["*", "S^1", "S^2", "S^1 v S^2"]

    def test_enumerate_unsupported_exits_2(self, capsys):
        code, _, err = run(capsys, "capacity", "S^3 x K(Z,2)", "--enumerate")
        assert code == 2
        assert err.startswith("unsupported-capacity:")

    def test_lower_bound_output(self, capsys):
        code, out, _ = run(capsys, "capacity", "S^3 x K(Z,2)")
        assert code == 0
        assert "LowerBound(4)" in out

    def test_moore_wedge_extension_is_flagged(self, capsys):
        doc = run_json(capsys, "capacity", "S^3 v M(Z/2,2)")
        assert doc["capacity"] == {"kind": "finite", "value": 4}
        assert "extending the sphere-wedge rule" in doc["note"]
        # settled cases carry no note
        assert "note" not in run_json(capsys, "capacity", "S^2 v S^4")
        assert "note" not in run_json(capsys, "capacity", "M(Z/4 + Z/2, 3)")


class TestHomologyCommand:
    def test_cp2_table(self, capsys):
        code, out, _ = run(capsys, "homology", "CP^2")
        assert code == 0
        assert "H_0 = Z" in out
        assert "H_2 = Z" in out
        assert "H_4 = Z" in out
        assert "H_3 = 0" in out
        assert "exact above bound: yes" in out

    def test_json_shape(self, capsys):
        doc = run_json(capsys, "homology", "K(Z/2,1)", "--bound", "4")
        assert doc["groups"] == {"0": "Z", "1": "Z/2", "2": "0", "3": "Z/2", "4": "0"}
        assert doc["exact_above_bound"] is False

    def test_default_bound_is_dimension(self, capsys):
        doc = run_json(capsys, "homology", "S^2 v S^4")
        assert doc["bound"] == 4

    def test_infinite_dimensional_default_bound(self, capsys):
        doc = run_json(capsys, "homology", "K(Z,2)")
        assert doc["bound"] == 10

    def test_unsupported_space_exits_2(self, capsys):
        code, _, err = run(capsys, "homology", "K(Z/6, 2)")
        assert code == 2
        assert err.startswith("unsupported-space:")


class TestCompareCommand:
    def test_counterexample_report(self, capsys):
        doc = run_json(capsys, "compare", "S^2 v S^4", "CP^2", "--bound", "10")
        assert doc["homology_agrees"] is True
        assert doc["exact_comparison"] is True
        assert doc["capacity_x"] == {"kind": "finite", "value": 4}
        assert doc["capacity_y"] == {"kind": "finite", "value": 2}
        assert doc["is_counterexample"] is True

    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "compare", "S^2", "S^3")
        assert code == 0
        assert "homology agrees: no" in out
        assert "capacity X: Finite(2)" in out

    def test_default_bound_reported(self, capsys):
        doc = run_json(capsys, "compare", "CP^6", "CP^6")
        assert doc["compared_up_to"] == 12
        assert doc["exact_comparison"] is True


@pytest.mark.parametrize(
    "argv, outermost",
    [
        (["compare", "S^2 v S^4", "CP^2"], 2),
        (["compare", "S^2 x S^3", "K(Z/6, 2)", "--bound", "4"], 2),
        (["homology", "S^2 x S^3"], 1),
        (["capacity", "S^2 v S^3"], 1),
    ],
)
def test_each_space_is_canonicalized_once(monkeypatch, capsys, argv, outermost):
    canonicalize, depth, calls = sys.modules["homcap.spaces"].canonicalize, [0], []

    def counted(space):
        calls.append(depth[0] == 0)
        depth[0] += 1
        try:
            return canonicalize(space)
        finally:
            depth[0] -= 1

    # `import homcap.capacity` would bind the function the package re-exports
    for name in ("homcap.spaces", "homcap.capacity", "homcap.cli"):
        monkeypatch.setattr(sys.modules[name], "canonicalize", counted)
    main(argv)
    capsys.readouterr()
    assert sum(calls) == outermost


class TestSummandsCommand:
    def test_classes(self, capsys):
        doc = run_json(capsys, "summands", "Z/4 + Z/2")
        assert doc["count"] == 4
        assert doc["classes"] == ["0", "Z/2", "Z/4", "Z/2 + Z/4"]

    def test_text(self, capsys):
        code, out, _ = run(capsys, "summands", "Z")
        assert code == 0
        assert "summand classes (2):" in out


class TestErrorHandling:
    def test_parse_error_exits_1(self, capsys):
        code, _, err = run(capsys, "capacity", "S^^2")
        assert code == 1
        assert err.startswith("parse-error:")
        assert "column" in err

    def test_domain_error_exits_1(self, capsys):
        code, _, err = run(capsys, "capacity", "M(Z, 1)")
        assert code == 1
        assert err.startswith("domain-error:")
        assert "degree must be >= 2" in err

    def test_cp1_domain_error(self, capsys):
        code, _, err = run(capsys, "homology", "CP^1")
        assert code == 1
        assert "write S^2" in err

    def test_negative_bound_rejected(self, capsys):
        code, _, err = run(capsys, "homology", "S^2", "--bound", "-3")
        assert code == 1
        assert err.startswith("domain-error:")

    def test_over_long_numbers_are_domain_errors(self, capsys):
        # numerals with more digits than int() converts are reported at
        # their column; derived orders and counts with more digits than
        # str() converts are domain errors too, never a traceback
        primorial = math.prod(p for p in range(2, 542) if all(p % q for q in range(2, p)))
        for argv, detail in [
            (["capacity", "S^" + "9" * 5000], "column 3: "),
            (["summands", "Z/" + "7" * 5000], "column 3: "),
            (["summands", "Z/1" + "0" * 4299 + " + Z/" + str(3**20)], "group order"),
            # 144 degrees of 2^100 summand classes each: 4,335 digits
            (["capacity", " v ".join(f"M(Z/{primorial}, {d})" for d in range(2, 146))], "count"),
        ]:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("domain-error: ") and err.count("\n") == 1
            assert detail in err and "set_int_max_str_digits" not in err

    def test_errors_are_single_lines(self, capsys):
        for argv in (
            ["capacity", "S^"],
            ["homology", "K(Z/6,2)"],
            ["capacity", "CP^3", "--enumerate"],
            ["capacity", "S^2 v (" * 3000 + "S^2" + ")" * 3000],
            ["summands", "Z^99999999999999999999"],  # past the index size
        ):
            code, _, err = run(capsys, *argv)
            assert code in (1, 2)
            assert err.endswith("\n") and err.count("\n") == 1


class TestSharedParser:
    def test_no_state_carries_over_between_calls(self, capsys):
        assert run_json(capsys, "homology", "S^2 v S^4", "--bound", "2")["bound"] == 2
        assert run_json(capsys, "homology", "S^2 v S^4")["bound"] == 4
        assert "dominated" in run_json(capsys, "capacity", "S^1 v S^2", "--enumerate")
        assert "dominated" not in run_json(capsys, "capacity", "S^1 v S^2")
        for argv in (["homology"], ["compare", "S^2", "--bound", "x"]):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2
        capsys.readouterr()
        argv = ["compare", "S^2 v S^4", "CP^2", "--json"]
        assert run(capsys, *argv) == run_fresh(*argv)

    def test_module_runs_as_a_script(self):
        code, out, err = run_fresh("capacity", "S^2 v S^4", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["capacity"] == {"kind": "finite", "value": 4}


class TestJsonStability:
    def test_byte_stable_across_runs(self, capsys):
        _, first, _ = run(capsys, "compare", "S^2 v S^4", "CP^2", "--json")
        _, second, _ = run(capsys, "compare", "S^2 v S^4", "CP^2", "--json")
        assert first == second

    def test_key_order_fixed(self, capsys):
        _, out, _ = run(capsys, "compare", "S^2", "S^2", "--json")
        keys = list(json.loads(out))
        assert keys == [
            "command",
            "space_x",
            "space_y",
            "compared_up_to",
            "homology_agrees",
            "exact_comparison",
            "capacity_x",
            "capacity_y",
            "is_counterexample",
        ]


def readme_examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) of every ``$ homcap ...`` example in the README's
    "Command line" section; an example's output runs to the next blank
    line or the end of its code block."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples, output = [], None
    for line in section.splitlines():
        if line.startswith("$ homcap "):
            output = []
            examples.append((shlex.split(line)[2:], output))
        elif not line.strip() or line.startswith("```"):
            output = None
        elif output is not None:
            output.append(line)
    return [(argv, "".join(f"{line}\n" for line in output)) for argv, output in examples]


def test_readme_examples_print_what_the_readme_shows(capsys):
    examples = readme_examples()
    assert len(examples) >= 3
    for argv, expected in examples:
        assert run(capsys, *argv) == (0, expected, ""), argv


def test_readme_library_block_runs():
    # a public name the README's "Library" example uses must still exist
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from homcap import" in block
    exec(compile(block, str(README), "exec"), {})
