"""Experiment configuration parsing tests."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from jsonschema import Draft7Validator
from hypothesis import strategies as st

from avfusion.config import ExperimentConfig, load_config, parse_config
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{\n  "training": {\n    "depth": 2,\n    "depth": 3\n  }\n}', "'depth' given twice in training (line 3)"),
            ('{"generator": {"seed": 1}, "out_dir": "a", "out_dir": "a"}', "'out_dir' given twice in top level (line 1)"),
        ],
        ids=["section", "top-level"],
    )
    def test_key_given_twice_names_key_and_line(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == f"key {message}"

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
# sizes past numpy's byte limit for one array: inside every bound the
# schema states, so only parse_config refuses them
PAST_NUMPY_LIMIT = [
    ("generator", "frames", 10**20),
    ("generator", "dim_audio", 10**20),
    ("generator", "num_videos", 10**21),
    ("generator", "latent_dim", 10**20),
    ("training", "window_len", 10**20),
    ("training", "head_hidden", [16, 10**20]),
]
BAD_RANGES = [
    ("training", "dropout", -0.5),
    ("training", "dropout", 1.0),
    ("training", "temperature", 0),
    ("training", "tcn_levels", 0),
    ("training", "tcn_kernel", 1),
    ("training", "head_hidden", [0]),
    ("training", "folds", 1),
    ("training", "min_lr", -1),
    ("training", "weight_decay", -1),
    *PAST_NUMPY_LIMIT,
    ("generator", "seed", -1),
    ("training", "plateau_patience", 0),
    ("generator", "smoothness", 0),
    ("training", "plateau_factor", 1),
    ("training", "warmup_epochs", -1),
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
        # a bound's message has one form; a size past numpy's limit names the size
        expected = r"\d+ is too large: " if (section, key, value) in PAST_NUMPY_LIMIT else r"must be in [\[(]"
        with pytest.raises(ConfigError, match=rf"^{key} {expected}"):
            parse_config(one_key(section, key, value))

    def test_line_is_searched_within_the_section(self):
        text = '{\n  "training": {"seed": 0},\n  "generator": {\n    "seed": 1.5\n  }\n}'
        with pytest.raises(ConfigError, match=r"^seed in generator \(line 4\) "):
            parse_config(text)

    def test_float_fields_keep_integers(self):
        cfg = parse_config('{"training": {"temperature": 1, "init_lr": 1}}')
        assert cfg.training.temperature == 1 and type(cfg.training.temperature) is int


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


CONFIG_BYTES = st.one_of(
    st.binary(max_size=64),
    # text with lone surrogates encodes to bytes that are not UTF-8
    st.text(max_size=32).map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.builds(
        lambda cut, junk: SAMPLE.encode()[:cut] + junk,
        st.integers(0, len(SAMPLE)),
        st.binary(max_size=8),
    ),
    JSON_VALUES.map(lambda v: json.dumps({"training": v}).encode()),
)


@settings(max_examples=300, deadline=None)
@given(blob=CONFIG_BYTES)
def test_any_config_file_loads_or_is_config_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "any.json"
    path.write_bytes(blob)
    try:
        load_config(path)
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}: ")


def load_schema():
    root = Path(__file__).resolve().parent.parent
    with open(root / "config.schema.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


# JSON Schema bound keyword -> (which way is past it, whether the bound is excluded)
BOUND_KEYWORDS = {
    "minimum": (-math.inf, False),
    "exclusiveMinimum": (-math.inf, True),
    "maximum": (math.inf, False),
    "exclusiveMaximum": (math.inf, True),
}


def schema_bounds():
    """(section, key, keyword, bound, integer) for every bound the schema
    states, a list's being on its entries."""
    out = []
    for section in ("generator", "training"):
        for key, prop in load_schema()["properties"][section]["properties"].items():
            prop = prop.get("items", prop)
            for keyword in BOUND_KEYWORDS.keys() & prop.keys():
                out.append((section, key, keyword, prop[keyword], prop["type"] == "integer"))
    return sorted(out)


SCHEMA_BOUNDS = schema_bounds()


def next_to(bound, integer, toward):
    """The integer or float next to ``bound`` in direction ``toward``."""
    return bound + (1 if toward > 0 else -1) if integer else float(np.nextafter(bound, toward))


@pytest.mark.parametrize(
    "section, key, keyword, bound, integer", SCHEMA_BOUNDS, ids=[f"{s}.{k}.{w}" for s, k, w, *_ in SCHEMA_BOUNDS]
)
def test_schema_bound_is_parse_bound(section, key, keyword, bound, integer):
    # the value just past the bound is refused in both places, naming the
    # key; the one at an inclusive bound, or just inside an exclusive one,
    # passes both range checks
    outward, excluded = BOUND_KEYWORDS[keyword]
    past, inside = (bound, next_to(bound, integer, -outward)) if excluded else (next_to(bound, integer, outward), bound)
    if key == "head_hidden":  # the bound is on each entry
        past, inside = [past], [inside]
    validator = Draft7Validator(load_schema())
    with pytest.raises(ConfigError, match=rf"^{key} must be in "):
        parse_config(one_key(section, key, past))
    assert not validator.is_valid({section: {key: past}})
    assert validator.is_valid({section: {key: inside}})
    try:
        parse_config(one_key(section, key, inside))
    except ConfigError as exc:  # another check, such as the window against the TCN's reach
        assert not str(exc).startswith(f"{key} must be in ")


class TestSchemaFile:
    def test_schema_matches_dataclasses(self):
        schema = load_schema()
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
        schema = load_schema()
        assert schema["additionalProperties"] is False
        for section in ("generator", "training"):
            assert schema["properties"][section]["additionalProperties"] is False

    def test_schema_is_valid_draft7(self):
        Draft7Validator.check_schema(load_schema())

    def test_default_config_validates(self):
        config = dataclasses.asdict(ExperimentConfig())
        config["training"]["head_hidden"] = list(config["training"]["head_hidden"])
        Draft7Validator(load_schema()).validate(config)

    # NaN is not JSON, so no schema can reject it; parse_config does
    @pytest.mark.parametrize(
        "text",
        [one_key(*case) for case in BAD_TYPES if not (isinstance(case[2], float) and math.isnan(case[2]))]
        + ["[1, 2]", '{"generator": 5}', '{"out_dir": 3}'],
    )
    def test_schema_rejects_every_wrong_type_parse_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)
        assert not Draft7Validator(load_schema()).is_valid(json.loads(text))

    @pytest.mark.parametrize("section, key, value", [case for case in BAD_RANGES if case not in PAST_NUMPY_LIMIT])
    def test_schema_rejects_every_bad_range_parse_rejects(self, section, key, value):
        with pytest.raises(ConfigError):
            parse_config(one_key(section, key, value))
        assert not Draft7Validator(load_schema()).is_valid({section: {key: value}})
