import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glyphsdf import glyphs
from glyphsdf.errors import GeometryError, GlyphSdfError, ManifestError, PathSyntaxError

from helpers import json_values, to_path_text

_NUMBERS_PER_COMMAND = {"M": 2, "L": 2, "Q": 4, "C": 6, "Z": 0, "m": 2, "x": 1}


@st.composite
def _path_texts(draw):
    """Subpaths of M, lines, curves and Z, where now and then a command is
    wrong, a number is missing or extra, or a number is not one, is not
    finite or is out of range."""
    def now_and_then():
        return draw(st.integers(0, 19)) == 0

    good_number = st.integers(-2, 2).map(str) | st.floats(-2, 2).map(repr)
    bad_number = st.sampled_from(["nan", "-inf", "1e309", "1e308", "1e-320"]) | st.text(max_size=3)
    tokens = []
    for _ in range(draw(st.integers(0, 3))):
        for command in ["M", *draw(st.lists(st.sampled_from("LQC"), max_size=4)), "Z"]:
            if now_and_then():
                command = draw(st.sampled_from(sorted(_NUMBERS_PER_COMMAND)))
            count = _NUMBERS_PER_COMMAND[command]
            if now_and_then():
                count += draw(st.sampled_from([-1, 1]))
            tokens.append(command)
            tokens += [draw(bad_number if now_and_then() else good_number) for _ in range(count)]
    seps = st.sampled_from([" ", "\n", "\r\n", "\t", ""] if now_and_then() else [" "])
    return "".join(t + draw(seps) for t in tokens)


class TestParsePath:
    def test_square_with_auto_close(self):
        contours = glyphs.parse_path("M 0 0 L 1 0 L 1 1 Z")
        assert len(contours) == 1
        segs = contours[0].segments
        assert len(segs) == 3
        assert all(len(s.points) == 2 for s in segs)
        assert np.array_equal(segs[-1].points, [[1, 1], [0, 0]])

    def test_quadratic_plus_closing_line(self):
        contours = glyphs.parse_path("M 0 0 Q 0.5 1 1 0 Z")
        segs = contours[0].segments
        assert [len(s.points) for s in segs] == [3, 2]

    def test_cubic(self):
        contours = glyphs.parse_path("M 0 0 C 0 1 1 1 1 0 L 0 0 Z")
        assert [len(s.points) for s in contours[0].segments] == [4, 2]

    def test_no_closing_line_when_pen_at_start(self):
        contours = glyphs.parse_path("M 0 0 L 1 0 L 0 0 Z")
        assert len(contours[0].segments) == 2

    def test_unknown_command(self):
        with pytest.raises(PathSyntaxError, match="unknown command 'X'"):
            glyphs.parse_path("M 0 0 X 1 1 Z")

    def test_wrong_arity(self):
        with pytest.raises(PathSyntaxError, match="expects 4 numbers"):
            glyphs.parse_path("M 0 0 Q 1 1 Z")

    def test_unclosed_subpath(self):
        with pytest.raises(PathSyntaxError, match="unclosed subpath"):
            glyphs.parse_path("M 0 0 L 1 0")

    def test_non_finite_number(self):
        with pytest.raises(PathSyntaxError, match="non-finite"):
            glyphs.parse_path("M 0 0 L nan 0 Z")

    def test_error_carries_line_and_column(self):
        with pytest.raises(PathSyntaxError, match="line 2, col 7"):
            glyphs.parse_path("M 0 0 L 1 0\nL 1 1 X 0 0 Z")

    def test_m_before_z_rejected(self):
        with pytest.raises(PathSyntaxError, match="not closed"):
            glyphs.parse_path("M 0 0 L 1 0 M 2 2 L 3 3 Z")

    def test_degenerate_single_point(self):
        with pytest.raises(PathSyntaxError, match="degenerate"):
            glyphs.parse_path("M 0 0 Z")

    def test_multiple_subpaths(self):
        contours = glyphs.parse_path("M 0 0 L 1 0 L 1 1 Z M 2 2 L 3 2 L 3 3 Z")
        assert len(contours) == 2

    @settings(max_examples=300, deadline=None)
    @given(text=_path_texts() | st.text(max_size=40))
    def test_any_text_parses_or_raises_package_error(self, text):
        # glyph_from_path is parse_path followed by normalize
        try:
            glyphs.glyph_from_path(text)
        except GlyphSdfError:
            pass

    def test_round_trip_exact(self):
        text = "M 0 0 Q 0.137 1.25 1 0 C 1.5 -0.5 0.25 0.125 0.1 0.7 Z"
        first = glyphs.parse_path(text)
        second = glyphs.parse_path(to_path_text(first))
        assert len(first) == len(second)
        for c1, c2 in zip(first, second):
            assert len(c1.segments) == len(c2.segments)
            for s1, s2 in zip(c1.segments, c2.segments):
                assert np.array_equal(s1.points, s2.points)


class TestNormalize:
    def test_unit_square_margin(self):
        g = glyphs.Glyph(glyphs.parse_path("M 0 0 L 1 0 L 1 1 L 0 1 Z"))
        norm = glyphs.normalize(g, margin=0.15)
        lo, hi = norm.bounding_box()
        assert np.allclose(lo, [-0.85, -0.85]) and np.allclose(hi, [0.85, 0.85])

    def test_idempotent(self):
        g = glyphs.Glyph(glyphs.parse_path("M 0 0 Q 2 5 4 1 L 1 -3 Z"))
        once = glyphs.normalize(g)
        twice = glyphs.normalize(once)
        for c1, c2 in zip(once.contours, twice.contours):
            for s1, s2 in zip(c1.segments, c2.segments):
                assert np.max(np.abs(s1.points - s2.points)) < 1e-12

    def test_zero_extent_rejected(self):
        seg = glyphs.Segment([[1.0, 1.0], [1.0, 1.0]])
        g = glyphs.Glyph([glyphs.Contour([seg])])
        with pytest.raises(GeometryError, match="zero-extent"):
            glyphs.normalize(g)

    @pytest.mark.parametrize("text, extent", [
        ("M -1e308 0 L 1e308 0 L 0 1e308 Z", "inf"),  # the extent overflows
        ("M 1e308 0 L 1.7e308 0 L 1.7e308 1 Z", "7e+307"),  # so does the center
        ("M 0 0 L 1e-320 0 L 0 1e-320 Z", "9.99989e-321"),  # so does the scale
    ])
    def test_extent_a_float_cannot_scale_rejected(self, text, extent):
        # one GeometryError naming the extent, and no numpy warning before it
        g = glyphs.Glyph(glyphs.parse_path(text))
        with pytest.raises(GeometryError, match=re.escape(f"glyph of extent {extent}: ")):
            glyphs.normalize(g)

    def test_empty_glyph_rejected(self):
        with pytest.raises(GeometryError, match="empty"):
            glyphs.normalize(glyphs.Glyph([]))

    def test_contours_stay_closed(self):
        text = "M 0 0 Q 2 5 4 1 L 1 -3 Z M 1 0 L 2 0 L 2 1 Z"
        norm = glyphs.normalize(glyphs.Glyph(glyphs.parse_path(text)))
        for contour in norm.contours:
            n = len(contour.segments)
            for i, seg in enumerate(contour.segments):
                nxt = contour.segments[(i + 1) % n]
                assert np.array_equal(seg.end, nxt.start)

    def test_aspect_preserved(self):
        g = glyphs.Glyph(glyphs.parse_path("M 0 0 L 4 0 L 4 1 L 0 1 Z"))
        lo, hi = glyphs.normalize(g).bounding_box()
        extent = hi - lo
        assert extent[0] == pytest.approx(1.7)
        assert extent[1] == pytest.approx(1.7 / 4)


class TestManifest:
    def _write(self, tmp_path, records, glyph_files=("a.txt", "b.txt", "c.txt")):
        import json

        for name in glyph_files:
            (tmp_path / name).write_text("M 0 0 L 1 0 L 1 1 Z")
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(records))
        return mpath

    def test_two_families_three_labels(self, tmp_path):
        records = [
            {"family": fam, "label": lab, "file": "a.txt"}
            for fam in ("serif", "mono")
            for lab in ("A", "B", "C")
        ]
        path = self._write(tmp_path, records)
        entries = glyphs.load_manifest(path)
        assert len(entries) == 6
        assert sorted({e.family_index for e in entries}) == [0, 1]
        assert [e.label for e in entries[:3]] == [0, 1, 2]

    def test_unknown_label(self, tmp_path):
        path = self._write(tmp_path, [{"family": "f", "label": "µ", "file": "a.txt"}])
        with pytest.raises(ManifestError, match="not in alphabet"):
            glyphs.load_manifest(path)

    def test_missing_file(self, tmp_path):
        path = self._write(tmp_path, [{"family": "f", "label": "A", "file": "nope.txt"}])
        with pytest.raises(ManifestError, match="not found"):
            glyphs.load_manifest(path)

    def test_duplicate_pair(self, tmp_path):
        records = [
            {"family": "f", "label": "A", "file": "a.txt"},
            {"family": "f", "label": "A", "file": "b.txt"},
        ]
        path = self._write(tmp_path, records)
        with pytest.raises(ManifestError, match="duplicate"):
            glyphs.load_manifest(path)

    def test_nul_in_file_name(self, tmp_path):
        path = self._write(tmp_path, [{"family": "f", "label": "A", "file": "a\x00.txt"}])
        with pytest.raises(ManifestError, match="bad file name"):
            glyphs.load_manifest(path)

    def test_overlong_file_name(self, tmp_path):
        # one path component past the 255 bytes a file name may have
        path = self._write(tmp_path, [{"family": "f", "label": "A", "file": "a" * 300}])
        with pytest.raises(ManifestError, match="bad file name|not found"):
            glyphs.load_manifest(path)

    def test_empty_manifest_ok(self, tmp_path):
        path = self._write(tmp_path, [])
        assert glyphs.load_manifest(path) == []

    def test_stray_keys_rejected(self, tmp_path):
        path = self._write(
            tmp_path, [{"family": "f", "label": "A", "file": "a.txt", "x": 1}]
        )
        with pytest.raises(ManifestError, match="exactly the keys"):
            glyphs.load_manifest(path)

    @pytest.mark.parametrize("key", ["family", "label", "file"])
    def test_non_string_value_rejected(self, tmp_path, key):
        record = {"family": "f", "label": "A", "file": "a.txt", key: 1}
        with pytest.raises(ManifestError, match="as strings"):
            glyphs.load_manifest(self._write(tmp_path, [record]))


_manifest_strings = st.sampled_from(["f", "g", "A", "B", "", "a.txt", "gone.txt", "..", "a\x00b"])


@st.composite
def _manifest_docs(draw):
    """Manifest text: a list of records that mostly have the right keys,
    holding names, files that exist or not, or any JSON value."""
    value = _manifest_strings | json_values
    record = st.fixed_dictionaries(dict.fromkeys(["family", "label", "file"], value)) | (
        st.dictionaries(st.sampled_from(["family", "label", "file"]) | st.text(max_size=3),
                        value, max_size=4)
    )
    doc = draw(st.lists(record | json_values, max_size=4) | json_values)
    return json.dumps(doc).encode()


class TestManifestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(raw=_manifest_docs() | st.binary(max_size=30)
           | st.integers(1, 5000).map(lambda k: b"[" * k + b"]" * k))
    def test_any_manifest_loads_or_raises_package_error(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "a.txt").write_text("M 0 0 L 1 0 L 1 1 Z")
            path = Path(tmp) / "manifest.json"
            path.write_bytes(raw)
            try:
                glyphs.load_manifest(path)
            except GlyphSdfError:
                pass


def test_segment_invariants():
    with pytest.raises(GeometryError):
        glyphs.Segment([[0, 0]])
    with pytest.raises(GeometryError):
        glyphs.Segment([[0, 0], [1, np.inf]])
    with pytest.raises(GeometryError):
        glyphs.Segment([[0, 0]] * 5)
    assert len(glyphs.Segment([[0, 0], [1, 0], [2, 1]]).points) == 3


def test_contour_requires_closure():
    a = glyphs.Segment([[0, 0], [1, 0]])
    b = glyphs.Segment([[1, 0], [0, 1]])  # does not return to start
    with pytest.raises(GeometryError, match="not closed"):
        glyphs.Contour([a, b])
