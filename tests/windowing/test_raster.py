"""Tests for raster images (the bitmap filter & scaling routines)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RasterError
from repro.windowing.raster import RasterImage, procedural_portrait


class TestConstruction:
    def test_blank(self):
        image = RasterImage.blank(3, 2, value=7)
        assert image.pixels == bytes([7] * 6)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(RasterError):
            RasterImage(0, 3, b"")
        with pytest.raises(RasterError):
            RasterImage.blank(2, -1)

    def test_wrong_data_length_rejected(self):
        with pytest.raises(RasterError):
            RasterImage(2, 2, b"abc")

    def test_from_rows(self):
        image = RasterImage.from_rows([[0, 128], [255, 64]])
        assert image.pixel(1, 0) == 128
        assert image.pixel(0, 1) == 255

    def test_from_rows_clamps(self):
        image = RasterImage.from_rows([[-5, 300]])
        assert image.pixel(0, 0) == 0
        assert image.pixel(1, 0) == 255

    def test_ragged_rows_rejected(self):
        with pytest.raises(RasterError):
            RasterImage.from_rows([[1, 2], [3]])

    def test_bad_blank_value_rejected(self):
        with pytest.raises(RasterError):
            RasterImage.blank(2, 2, value=300)


class TestPixels:
    def test_out_of_bounds_rejected(self):
        image = RasterImage.blank(2, 2)
        with pytest.raises(RasterError):
            image.pixel(2, 0)
        with pytest.raises(RasterError):
            image.pixel(0, -1)

    def test_with_pixel_is_functional(self):
        image = RasterImage.blank(2, 2, value=0)
        updated = image.with_pixel(1, 1, 200)
        assert updated.pixel(1, 1) == 200
        assert image.pixel(1, 1) == 0


class TestScale:
    def test_upscale_nearest(self):
        image = RasterImage.from_rows([[0, 255]])
        scaled = image.scale(4, 1)
        assert list(scaled.pixels) == [0, 0, 255, 255]

    def test_downscale_box_filter_averages(self):
        image = RasterImage.from_rows([[0, 255], [0, 255]])
        scaled = image.scale(1, 1)
        assert scaled.pixels[0] == 127  # mean of 0,255,0,255

    def test_identity_scale(self):
        image = procedural_portrait(3, 12)
        assert image.scale(12, 12).pixels == image.pixels

    def test_bad_target_rejected(self):
        with pytest.raises(RasterError):
            RasterImage.blank(2, 2).scale(0, 2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=10))
    def test_scale_dimensions_property(self, w, h, new_w, new_h):
        scaled = RasterImage.blank(w, h, value=99).scale(new_w, new_h)
        assert (scaled.width, scaled.height) == (new_w, new_h)
        assert set(scaled.pixels) == {99}  # constant image stays constant


class TestFilters:
    def test_smooth_blurs_spike(self):
        rows = [[0] * 3 for _ in range(3)]
        rows[1][1] = 255
        smoothed = RasterImage.from_rows(rows).smooth()
        assert smoothed.pixel(1, 1) == 255 // 9
        assert smoothed.pixel(0, 0) == 255 // 4  # corner has 4 neighbours

    def test_smooth_preserves_constant(self):
        image = RasterImage.blank(4, 4, value=100)
        assert image.smooth().pixels == image.pixels

    def test_invert(self):
        image = RasterImage.from_rows([[0, 255]])
        assert list(image.invert().pixels) == [255, 0]

    def test_double_invert_identity(self):
        image = procedural_portrait(5, 10)
        assert image.invert().invert().pixels == image.pixels


class TestAscii:
    def test_darkest_uses_first_ramp_char(self):
        image = RasterImage.from_rows([[0, 255]])
        art = image.to_ascii("#.")
        assert art == "#."

    def test_line_per_row(self):
        image = RasterImage.blank(3, 2)
        assert len(image.to_ascii().split("\n")) == 2

    def test_empty_ramp_rejected(self):
        with pytest.raises(RasterError):
            RasterImage.blank(1, 1).to_ascii("")


class TestPortrait:
    def test_deterministic(self):
        assert procedural_portrait(7).pixels == procedural_portrait(7).pixels

    def test_varies_with_seed(self):
        assert procedural_portrait(1).pixels != procedural_portrait(2).pixels

    def test_built_once_per_seed_and_size(self):
        """The picture display asks for the same portrait on every click."""
        assert procedural_portrait(9, 12) is procedural_portrait(9, 12)
        assert procedural_portrait(9, 12) is not procedural_portrait(9, 14)

    def test_size(self):
        image = procedural_portrait(1, size=20)
        assert (image.width, image.height) == (20, 20)

    def test_too_small_rejected(self):
        with pytest.raises(RasterError):
            procedural_portrait(1, size=4)

    def test_has_dark_features_on_light_ground(self):
        image = procedural_portrait(3)
        assert 0 in image.pixels     # eyes
        assert 255 in image.pixels   # background
