"""Run configuration: typed sections, and loading that fails only with
the package's own errors."""
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from glyphsdf.config import FieldSettings, RunConfig, TrainSettings
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


def test_float_fields_take_ints_and_optional_fields_none():
    assert FieldSettings(aa_k=4).aa_k == 4
    assert TrainSettings(samples_cap=None, freeze_epoch=None).samples_cap is None


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
