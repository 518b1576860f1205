"""Run configuration: typed sections, and loading that fails only with
the package's own errors."""
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from glyphsdf.config import (
    MAX_WIDTH, MIN_WIDTH, EvalSettings, FieldSettings, RunConfig, TrainSettings, check_widths
)
from glyphsdf.errors import ConfigError, GlyphSdfError

from helpers import json_values

SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize(
    "build",
    [
        lambda: FieldSettings(aa_k=True),
        lambda: FieldSettings(corner_threshold="3"),
        lambda: TrainSettings(lr=True),
        lambda: TrainSettings(lr="x"),
        lambda: TrainSettings(rho=None),
        lambda: TrainSettings(epochs=2.0),
        lambda: TrainSettings(supervision=1),
    ],
)
def test_numbers_and_strings_have_their_annotated_type(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: FieldSettings(aa_k=float("inf")),
        lambda: TrainSettings(rho=float("inf")),
        lambda: TrainSettings(gamma_reg=float("inf")),
        # an int that no float holds
        lambda: TrainSettings(lr=10**400),
    ],
    ids=["aa_k inf", "rho inf", "gamma_reg inf", "lr 10**400"],
)
def test_float_fields_take_finite_values_only(build):
    with pytest.raises(ConfigError, match="finite"):
        build()


def test_float_fields_take_ints_and_optional_fields_none():
    assert FieldSettings(aa_k=4).aa_k == 4
    assert TrainSettings(samples_cap=None, freeze_epoch=None).samples_cap is None


def test_width_rule_takes_distinct_integers_in_the_grid_range():
    check_widths([MIN_WIDTH, 91, MAX_WIDTH], "--res")
    assert FieldSettings(train_width=MAX_WIDTH).train_width == MAX_WIDTH
    assert EvalSettings(resolutions=[MAX_WIDTH, MIN_WIDTH]).resolutions == [MAX_WIDTH, MIN_WIDTH]


@pytest.mark.parametrize(
    "widths, match",
    [
        ([], "at least one width"),
        ([16, 32, 16], "none twice"),
        ([MIN_WIDTH - 1], "width 7 is not"),
        ([MAX_WIDTH + 1], "width 65536 is not"),
        ([10**10], "is not an integer in"),
        ([16.0], "is not an integer in"),
        ([True, 16], "is not an integer in"),
        ([[16], [16]], "is not an integer in"),
    ],
    ids=["empty", "repeat", "below 8", "above u16", "10**10", "float", "bool", "list"],
)
def test_width_rule_rejects(widths, match):
    with pytest.raises(ConfigError, match=match):
        check_widths(widths, "--res")


@pytest.mark.parametrize(
    "build",
    [
        lambda: FieldSettings(train_width=MAX_WIDTH + 1),
        lambda: EvalSettings(resolutions=[]),
        lambda: EvalSettings(resolutions=[64, 64]),
        lambda: EvalSettings(methods=[]),
        lambda: EvalSettings(methods=["implicit", "implicit"]),
        lambda: EvalSettings(methods=["nearest"]),
    ],
    ids=["train_width", "resolutions empty", "resolutions repeated", "methods empty",
         "methods repeated", "methods unknown"],
)
def test_eval_and_field_settings_apply_the_list_rules(build):
    with pytest.raises(ConfigError):
        build()


@st.composite
def config_docs(draw):
    """A document of known and unknown sections whose entries are mostly
    known keys, each holding any JSON value."""
    doc = {}
    for name in draw(st.lists(st.sampled_from(sorted(SECTIONS)), unique=True)):
        keys = [f.name for f in dataclasses.fields(SECTIONS[name])]
        entries = st.dictionaries(
            st.sampled_from(keys) | st.text(max_size=4), json_values, max_size=4
        )
        doc[name] = draw(entries | json_values)
    if draw(st.booleans()):
        doc[draw(st.text(max_size=6))] = draw(json_values)
    return doc


@settings(max_examples=120, deadline=None)
@given(doc=config_docs())
def test_from_dict_loads_or_raises_package_error(doc):
    try:
        RunConfig.from_dict(doc)
    except GlyphSdfError:
        pass


@settings(max_examples=100, deadline=None)
@given(doc=json_values)
def test_any_json_document_loads_or_raises_package_error(doc):
    try:
        RunConfig.from_dict(doc)
    except GlyphSdfError:
        pass
