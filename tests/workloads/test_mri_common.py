"""The shared MRI math (mri-fhd / mri-q kernels)."""

import tracemalloc

import numpy as np
import pytest

from repro.workloads.parboil import mri_common
from repro.workloads.parboil.mri_common import (
    phase_matrix,
    fhd_reference,
    q_reference,
    make_samples,
    make_voxels,
)


@pytest.fixture
def rng():
    return np.random.default_rng(9)


class TestGenerators:
    def test_samples_shape_and_range(self, rng):
        samples = make_samples(rng, 128)
        assert samples.shape == (128, 5)
        assert samples.dtype == np.float32
        assert (samples[:, :3] >= -1).all() and (samples[:, :3] <= 1).all()
        assert (samples[:, 3:] >= 0).all()

    def test_voxels_shape(self, rng):
        voxels = make_voxels(rng, 64)
        assert voxels.shape == (64, 3)
        assert (np.abs(voxels) <= 1).all()


class TestMath:
    def test_phase_matrix_shape(self, rng):
        k = make_voxels(rng, 8)
        x = make_voxels(rng, 5)
        assert phase_matrix(k, x).shape == (8, 5)

    def test_phase_matrix_is_scaled_dot_product(self):
        k = np.array([[1.0, 0.0, 0.0]], dtype=np.float32)
        x = np.array([[0.5, 9.0, 9.0]], dtype=np.float32)
        # Only the first component matters for this k.
        assert phase_matrix(k, x)[0, 0] == pytest.approx(np.pi, rel=1e-6)

    def test_fhd_single_sample_closed_form(self):
        k = np.array([[0.25, 0.0, 0.0]], dtype=np.float32)
        x = np.array([[1.0, 0.0, 0.0]], dtype=np.float32)
        phi_r = np.array([2.0], dtype=np.float32)
        phi_i = np.array([3.0], dtype=np.float32)
        arg = 2 * np.pi * 0.25
        r_fhd, i_fhd = fhd_reference(k, phi_r, phi_i, x)
        assert r_fhd[0] == pytest.approx(2 * np.cos(arg) + 3 * np.sin(arg),
                                         rel=1e-5)
        assert i_fhd[0] == pytest.approx(3 * np.cos(arg) - 2 * np.sin(arg),
                                         rel=1e-5)

    def test_q_single_sample_closed_form(self):
        k = np.array([[0.25, 0.0, 0.0]], dtype=np.float32)
        x = np.array([[0.5, 0.0, 0.0]], dtype=np.float32)
        magnitude = np.array([4.0], dtype=np.float32)
        arg = 2 * np.pi * 0.125
        r_q, i_q = q_reference(k, magnitude, x)
        assert r_q[0] == pytest.approx(4 * np.cos(arg), rel=1e-5)
        assert i_q[0] == pytest.approx(4 * np.sin(arg), rel=1e-5)

    def test_fhd_is_linear_in_phi(self, rng):
        k = make_voxels(rng, 16)
        x = make_voxels(rng, 4)
        phi_r = rng.random(16).astype(np.float32)
        phi_i = rng.random(16).astype(np.float32)
        r1, i1 = fhd_reference(k, phi_r, phi_i, x)
        r2, i2 = fhd_reference(k, 2 * phi_r, 2 * phi_i, x)
        assert np.allclose(r2, 2 * r1, rtol=1e-4)
        assert np.allclose(i2, 2 * i1, rtol=1e-4)

    def test_q_at_origin_sums_magnitudes(self, rng):
        k = make_voxels(rng, 32)
        magnitude = rng.random(32).astype(np.float32)
        origin = np.zeros((1, 3), dtype=np.float32)
        r_q, i_q = q_reference(k, magnitude, origin)
        assert r_q[0] == pytest.approx(float(magnitude.sum()), rel=1e-5)
        assert i_q[0] == pytest.approx(0.0, abs=1e-5)


def _whole_grid_terms(k_coords, voxels):
    """cos and sin of the whole (samples x voxels) phase grid at once."""
    arg = np.float32(2.0 * np.pi) * (k_coords @ voxels.T)
    return np.cos(arg), np.sin(arg)


#: Fixed before measuring, for float32 sums of at most 64 terms no
#: larger than one in magnitude.
FLOAT32_TOLERANCE = dict(rtol=1e-5, atol=1e-5)

#: (PHASE_TILE_CELLS, PHASE_TILE_MIN_VOXELS) pairs; None keeps the
#: defaults.  On 333 voxels none of the resulting widths divides evenly.
PHASE_TILES = [None, (1, 7), (100, 1), (64 * 5, 2)]


class TestTiledPhaseGrid:
    """The tiled phase grid against the whole-grid formula."""

    @pytest.fixture(params=PHASE_TILES, ids=str)
    def tiles(self, request, monkeypatch):
        if request.param is not None:
            cells, min_voxels = request.param
            monkeypatch.setattr(mri_common, "PHASE_TILE_CELLS", cells)
            monkeypatch.setattr(
                mri_common, "PHASE_TILE_MIN_VOXELS", min_voxels
            )

    @pytest.mark.parametrize("n_samples", [1, 7, 64])
    @pytest.mark.parametrize("n_voxels", [1, 10, 333])
    def test_q_matches_whole_grid(self, rng, tiles, n_samples, n_voxels):
        k = make_voxels(rng, n_samples)
        magnitude = rng.random(n_samples).astype(np.float32)
        x = make_voxels(rng, n_voxels)
        cos_arg, sin_arg = _whole_grid_terms(k, x)
        r_q, i_q = q_reference(k, magnitude, x)
        assert r_q.dtype == i_q.dtype == np.float32
        np.testing.assert_allclose(r_q, magnitude @ cos_arg,
                                   **FLOAT32_TOLERANCE)
        np.testing.assert_allclose(i_q, magnitude @ sin_arg,
                                   **FLOAT32_TOLERANCE)

    @pytest.mark.parametrize("n_samples", [1, 7, 64])
    @pytest.mark.parametrize("n_voxels", [1, 10, 333])
    def test_fhd_matches_whole_grid(self, rng, tiles, n_samples, n_voxels):
        samples = make_samples(rng, n_samples)
        k, phi_r, phi_i = samples[:, :3], samples[:, 3], samples[:, 4]
        x = make_voxels(rng, n_voxels)
        cos_arg, sin_arg = _whole_grid_terms(k, x)
        r_fhd, i_fhd = fhd_reference(k, phi_r, phi_i, x)
        assert r_fhd.dtype == i_fhd.dtype == np.float32
        np.testing.assert_allclose(
            r_fhd, phi_r @ cos_arg + phi_i @ sin_arg, **FLOAT32_TOLERANCE
        )
        np.testing.assert_allclose(
            i_fhd, phi_i @ cos_arg - phi_r @ sin_arg, **FLOAT32_TOLERANCE
        )


def _peak_mib(function, *args):
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1] / float(1 << 20)
    finally:
        tracemalloc.stop()


class TestPhaseGridMemory:
    """No call holds the whole (samples x voxels) grid: at paper shape the
    whole-grid phase, cos and sin buffers alone are 192 MiB (mri-q) and
    96 MiB (mri-fhd)."""

    def test_q_peak_at_paper_shape(self, rng):
        k = make_voxels(rng, 256)
        magnitude = rng.random(256).astype(np.float32)
        x = make_voxels(rng, 65536)
        assert _peak_mib(q_reference, k, magnitude, x) < 32

    def test_fhd_peak_at_paper_shape(self, rng):
        samples = make_samples(rng, 32768)
        x = make_voxels(rng, 256)
        peak = _peak_mib(
            fhd_reference, samples[:, :3], samples[:, 3], samples[:, 4], x
        )
        assert peak < 32
