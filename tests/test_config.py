"""Experiment configuration parsing tests."""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfusion.config import ExperimentConfig, load_config, parse_config, serialize_config
from avfusion.exceptions import ConfigError
from avfusion.synthdata import GenConfig
from avfusion.training import TrainConfig

SAMPLE = """\
{
  "out_dir": "runs/sample",
  "generator": {
    "num_videos": 12,
    "frames": 96,
    "corruption_prob": 0.25,
    "seed": 3
  },
  "training": {
    "mode": "GRJCA",
    "depth": 2,
    "init_lr": 0.001,
    "head_hidden": [16, 8]
  }
}
"""


class TestParsing:
    def test_empty_object_gives_defaults(self):
        cfg = parse_config("{}")
        assert cfg == ExperimentConfig()
        assert cfg.generator == GenConfig()
        assert cfg.training == TrainConfig()

    def test_sections_optional(self):
        cfg = parse_config('{"training": {"depth": 4}}')
        assert cfg.training.depth == 4
        assert cfg.generator == GenConfig()
        assert cfg.out_dir == "runs"

    def test_sample_fields_land(self):
        cfg = parse_config(SAMPLE)
        assert cfg.out_dir == "runs/sample"
        assert cfg.generator.num_videos == 12
        assert cfg.generator.corruption_prob == 0.25
        assert cfg.training.mode == "GRJCA"
        assert cfg.training.head_hidden == (16, 8)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(SAMPLE, encoding="utf-8")
        assert load_config(path) == parse_config(SAMPLE)


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        first = parse_config(SAMPLE)
        assert parse_config(serialize_config(first)) == first

    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_serialized_is_plain_json(self):
        data = json.loads(serialize_config(parse_config(SAMPLE)))
        assert set(data) == {"out_dir", "generator", "training"}
        assert data["training"]["head_hidden"] == [16, 8]


class TestErrors:
    def test_unknown_top_level_key_names_key_and_line(self):
        text = '{\n  "out_dir": "x",\n  "generater": {}\n}'
        with pytest.raises(ConfigError, match=r"generater.*line 3"):
            parse_config(text)

    def test_unknown_nested_key_names_key_and_line(self):
        text = '{\n  "training": {\n    "learning_rate": 0.1\n  }\n}'
        with pytest.raises(ConfigError, match=r"learning_rate.*line 3"):
            parse_config(text)

    def test_unknown_generator_key(self):
        with pytest.raises(ConfigError, match="n_clips"):
            parse_config('{"generator": {"n_clips": 4}}')

    def test_invalid_json_reports_position(self):
        with pytest.raises(ConfigError, match=r"line 2"):
            parse_config('{\n  "out_dir": ,\n}')

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="top level"):
            parse_config("[1, 2]")

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="generator"):
            parse_config('{"generator": 5}')

    def test_out_dir_must_be_string(self):
        with pytest.raises(ConfigError, match="out_dir"):
            parse_config('{"out_dir": 3}')

    def test_section_validation_propagates(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config('{"training": {"mode": "XYZ"}}')
        with pytest.raises(ConfigError, match="complementarity"):
            parse_config('{"generator": {"complementarity": 2.0}}')


# every reproduction of a bad value that once ended in a traceback, in a
# silent accept, or only once train had loaded the dataset
BAD_TYPES = [
    ("training", "depth", 1.5),
    ("training", "batch_size", 2.5),
    ("training", "temperature", "0.1"),
    ("training", "head_hidden", "16"),
    ("training", "head_hidden", [1.5]),
    ("generator", "frames", 16.5),
    ("generator", "seed", 1.5),
    ("training", "joint_projection", "no"),
    ("training", "depth", True),
    ("training", "init_lr", float("nan")),
]
BAD_RANGES = [
    ("training", "dropout", -0.5),
    ("training", "dropout", 1.0),
    ("training", "temperature", 0),
    ("training", "tcn_levels", 0),
    ("training", "tcn_kernel", 1),
    ("training", "head_hidden", [0]),
]


def one_key(section, key, value):
    """A config whose only setting sits on line 3."""
    return f'{{\n  "{section}": {{\n    "{key}": {json.dumps(value)}\n  }}\n}}'


class TestFieldTypes:
    @pytest.mark.parametrize("section, key, value", BAD_TYPES)
    def test_wrong_type_names_key_and_line(self, section, key, value):
        expected = "(true or false|an integer|a finite number|a string|a list of integers)"
        with pytest.raises(ConfigError, match=rf"^{key} in {section} \(line 3\) must be {expected}, got "):
            parse_config(one_key(section, key, value))

    @pytest.mark.parametrize("section, key, value", BAD_RANGES)
    def test_out_of_range_model_setting_names_key(self, section, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(one_key(section, key, value))

    def test_line_is_searched_within_the_section(self):
        text = '{\n  "training": {"seed": 0},\n  "generator": {\n    "seed": 1.5\n  }\n}'
        with pytest.raises(ConfigError, match=r"^seed in generator \(line 4\) "):
            parse_config(text)

    def test_float_fields_keep_integers(self):
        cfg = parse_config('{"training": {"temperature": 1, "init_lr": 1}}')
        assert cfg.training.temperature == 1 and type(cfg.training.temperature) is int
        assert parse_config(serialize_config(cfg)) == cfg


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)

DECLARED = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,), "tuple": (tuple,)}

FIELDS = [
    (section, f)
    for section, cls in (("generator", GenConfig), ("training", TrainConfig))
    for f in dataclasses.fields(cls)
]


@pytest.mark.parametrize("section, field", FIELDS, ids=[f"{s}.{f.name}" for s, f in FIELDS])
@settings(max_examples=40, deadline=None)
@given(value=JSON_VALUES)
def test_any_json_value_parses_typed_or_is_config_error(section, field, value):
    text = json.dumps({section: {field.name: value}})
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    parsed = getattr(getattr(cfg, section), field.name)
    assert type(parsed) in DECLARED[field.type]
    if field.type == "tuple":
        assert all(type(n) is int for n in parsed)


class TestSchemaFile:
    def schema(self):
        root = Path(__file__).resolve().parent.parent
        with open(root / "config.schema.json", "r", encoding="utf-8") as fh:
            return json.load(fh)

    def test_schema_matches_dataclasses(self):
        schema = self.schema()
        top = schema["properties"]
        assert set(top) == {"out_dir", "generator", "training"}
        for section, cls in (("generator", GenConfig), ("training", TrainConfig)):
            fields = {f.name: f.default for f in dataclasses.fields(cls)}
            props = top[section]["properties"]
            assert set(props) == set(fields)
            for name, default in fields.items():
                stated = props[name]["default"]
                if isinstance(default, tuple):
                    default = list(default)
                assert stated == default, f"{section}.{name}"

    def test_schema_rejects_unknown_keys(self):
        schema = self.schema()
        assert schema["additionalProperties"] is False
        for section in ("generator", "training"):
            assert schema["properties"][section]["additionalProperties"] is False
