import json
from pathlib import Path

import pytest

import run
import tracing
import workloads
from avfusion.config import parse_config
from avfusion.verify import SuiteResult

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_configs_are_a_pure_function_of_the_seed(name):
    w = workloads.WORKLOADS[name]
    assert w.configs(4) == w.configs(4)
    for data in w.configs(4).values():
        parse_config(json.dumps(data))
    assert w.configs(4) != w.configs(5)


def _generated_bytes(tmp_path, tag, seed):
    client = workloads.Client(tmp_path / tag, threads=1)
    client.write_configs(workloads.WORKLOADS["eval-long-rjca"].configs(seed))
    client.setup_call("gen", "train.json")
    dataset = client.out / "dataset"
    return {p.name: p.read_bytes() for p in sorted(dataset.iterdir())}


def test_generated_dataset_is_a_pure_function_of_the_seed(tmp_path):
    first = _generated_bytes(tmp_path, "a", 3)
    assert len(first) == 4 * workloads.EvalLongRjca.train_clips + 1
    assert first == _generated_bytes(tmp_path, "b", 3)
    other = _generated_bytes(tmp_path, "c", 4)
    assert set(other) == set(first) and other != first


def test_train_steps_the_criterion5_split():
    w = workloads.TrainGradcheck()
    # 200 train / 40 validation clips in every fold, one window a clip
    assert (w.clips - w.clips // w.folds, w.clips // w.folds, w.frames) == (200, 40, 64)


def test_suite_line_matches_the_gradcheck_report():
    result = SuiteResult(entries=[("RJCA/M1/x", 1e-9)], checked=12, skipped_kinks=1)
    match = workloads._SUITE_LINE.match(result.format_lines()[-1])
    assert match is not None
    assert match.group(1) == "PASS" and match.group(4) == "12" and match.group(5) == "1"


def test_failed_call_fails_the_iteration(tmp_path):
    w = workloads.WORKLOADS["eval-long-rjca"]
    client = workloads.Client(tmp_path / "empty", threads=1)
    client.write_configs(w.configs(0))
    it = w.iterate(client)  # no saved parameters to evaluate
    assert it.failures and "eval exited" in it.failures[0]
    assert list(it.commands) == ["gen", "eval"]
    assert it.seconds == sum(it.commands.values())


def test_changed_train_output_fails_the_iteration(tmp_path):
    w = workloads.TrainGradcheck()
    client = workloads.Client(tmp_path, threads=1)
    client.out.mkdir()
    (client.out / "train_summary.json").write_text(
        json.dumps({"folds": w.folds, "best_val_ccc": 0.5, "per_fold_val_ccc": [0.5] * w.folds})
    )
    (client.out / "history.csv").write_text("epoch\n" + "0\n" * w.epochs)
    (client.out / "predictions.csv").write_text("clip_id\n")
    for content, expected in ((b"first", 0), (b"first", 0), (b"other", 1)):
        (client.out / "params.bin").write_bytes(content)
        failures = []
        w._check_train(client, failures, {})
        assert len(failures) == expected
    assert "params.bin differs" in failures[0]


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_unreadable_output_fails_the_iteration(tmp_path):
    client = workloads.Client(tmp_path, threads=1)
    failures = []
    workloads._check_outputs(workloads.TrainGradcheck()._check_train, client, failures, {})
    assert len(failures) == 1 and failures[0].startswith("unreadable output")
