"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench

They check that every workload passes its output checks, that a wrong
golden is caught, that the traced run covers the layer table and restores
the library afterwards, and that the command fails cleanly outside a
source checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str, **overrides):
    sizes = {
        "audit": dict(radii=(3, 2)),
        "zipper": dict(per_structure=4, comb_sizes=(4, 8)),
        "algebra": dict(per_structure=4, comb_sizes=(5, 10)),
        "cli": dict(rounds=1),
    }[name]
    return workloads.WORKLOADS[name](**{**sizes, **overrides})


@pytest.fixture(autouse=True)
def results_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")


def run_tiny(name: str, trace: bool = False, **overrides):
    # a zero-length budget still runs one whole block
    return run.run(name, seed=7, seconds=1e-9, trace=trace, workload=tiny(name, **overrides))


# which traced functions each workload must reach, from the layer table
REACHED = {
    "audit": ["elements.compose", "elements.CanonicalElement.packed", "elements.invert",
              "zipper.properness_audit"],
    "zipper": ["zipper.symdiff", "zipper.zipper_length", "zipper.act_on_eclass", "zipper.gz_member",
               "zipper.cocycle_identity_defect", "zipper.wall_separation",
               "words.PrefixCode.proper_prefixes", "elements.compose"],
    "algebra": ["elements.compose", "elements.invert", "elements.parse_element", "elements.apply",
                "elements.format_element", "elements.is_in_F", "elements.is_in_T",
                "words.Alphabet.parse_word", "words.Alphabet.parse_point", "words.Point.prefix",
                "structure.germ_apply"],
    "cli": ["cli.main", "walls.walls_to_zipper", "structure.parse_automaton",
            "structure.SelfSimilarGroup.validate"],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(name):
    result, detail = run_tiny(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["fail_ratio"] == 0
    metrics = result["metrics"]
    assert {(k, m["unit"]) for k, m in metrics.items()} == {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_wrong_audit_golden_is_caught():
    goldens = dict(workloads.AUDIT_GOLDENS)
    balls, within, stabilized = goldens[("trivial", 3)]
    goldens[("trivial", 3)] = (balls, within[:-1] + [within[-1] + 1], stabilized)
    result, detail = run_tiny("audit", goldens=goldens)
    assert not result["correct"]
    assert result["failed"] == balls[-1]
    assert detail["fail_ratio"] > 0


def test_wrong_cli_golden_is_caught():
    cases = workloads.cli_goldens()
    argv, text = cases[0]
    cases[0] = (argv, text + "extra\n")
    result, detail = run_tiny("cli", goldens=cases)
    assert result["failed"] == 1
    assert detail["fail_ratio"] > 0


def test_cli_goldens_cover_every_readme_example():
    examples = workloads.readme_examples(HERE.parent / "README.md")
    cases = workloads.cli_goldens()
    assert len(cases) == 2 * (len(examples) - 1)
    assert {tuple(argv[:2]) for argv, _ in cases} == {("--format", "text"), ("--format", "records")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reaches_its_layers(name):
    result, detail = run_tiny(name, trace=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert {(k, m["unit"]) for k, m in metrics.items()} == {(m["name"], m["unit"]) for m in SPEC["per_layer"]}
    for span in REACHED[name]:
        assert metrics[f"{span}.calls"]["value"] > 0, span
        assert metrics[f"{span}.self_s"]["value"] > 0, span
    assert all(metrics[f"{span}.errors"]["value"] == 0 for span in tracing.SPAN_NAMES)
    assert metrics["trace.overhead"]["value"] > 0
    if name == "audit":
        # totals are per traced block, and a block makes two audits
        assert metrics["zipper.properness_audit.calls"]["value"] == 2
        assert 0 < metrics["zipper.properness_audit.yield"]["value"] < 1
    if name == "algebra":
        assert metrics["elements.apply.rows_scanned"]["value"] >= 1
    assert detail["spans_kept"] > 0


def _attributes() -> dict:
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "localsim" and not mod_name.startswith("localsim."):
            continue
        for attr, value in vars(module).items():
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("localsim"):
                for cls_attr, cls_value in vars(value).items():
                    out[(mod_name, attr, cls_attr)] = cls_value
    return out


def test_tracing_restores_every_attribute():
    lib = run.fresh_import()
    before = _attributes()
    compose = lib.compose
    workload = tiny("zipper")
    state = workload.setup(lib, 3)
    tracer = tracing.Tracer()
    with tracer:
        assert lib.compose is not compose and lib.zipper.compose is lib.compose
        workload.block(state, workloads.Recorder())
    after = _attributes()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert tracer.calls["zipper.act_on_eclass"] > 0


def test_slope_fit():
    assert workloads.slope([10, 20, 40], [1.0, 8.0, 64.0]) == pytest.approx(3.0)


def test_fails_cleanly_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
