"""Unit tests for the adapter data model, padding, trimming, flattening."""

import numpy as np
import pytest

from horus.errors import ConfigurationError
from horus.lora import (
    ClientUpdate,
    GlobalState,
    LayerDims,
    LayerId,
    LoraPair,
    flatten_padded,
    pad_to_global,
    payload_bytes,
    trim_to_local,
    unflatten_padded,
)
from horus.spectral import spectral_entropy, thin_svd, topk_energy_ratio

FF, CL = LayerId.FEATURE_FIRST, LayerId.CLASSIFIER


def make_update(rng, client_id=0, arch_id=0, rank=4, ff=(16, 8), cl=(8, 3)):
    layers = {}
    for lid, (d_in, d_out) in ((FF, ff), (CL, cl)):
        layers[lid] = LoraPair(
            a=rng.normal(size=(rank, d_in)),
            b=rng.normal(size=(d_out, rank)),
            rank=rank,
        )
    return ClientUpdate(client_id=client_id, arch_id=arch_id, layers=layers)


GLOBAL_DIMS = {FF: LayerDims(16, 12), CL: LayerDims(12, 3)}


class TestTypes:
    def test_lora_pair_shape_checks(self):
        with pytest.raises(ValueError):
            LoraPair(a=np.zeros((3, 5)), b=np.zeros((4, 4)), rank=4)
        with pytest.raises(ValueError):
            LoraPair(a=np.zeros((4, 5)), b=np.zeros((4, 3)), rank=4)

    def test_lora_pair_rejects_non_finite(self):
        a = np.zeros((2, 3))
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            LoraPair(a=a, b=np.zeros((4, 2)), rank=2)

    def test_client_update_requires_both_layers(self):
        pair = LoraPair(np.zeros((2, 4)), np.zeros((3, 2)), 2)
        with pytest.raises(ValueError):
            ClientUpdate(client_id=0, arch_id=0, layers={FF: pair})

    def test_client_update_rejects_mixed_ranks(self):
        p2 = LoraPair(np.zeros((2, 4)), np.zeros((3, 2)), 2)
        p3 = LoraPair(np.zeros((3, 4)), np.zeros((3, 3)), 3)
        with pytest.raises(ValueError):
            ClientUpdate(client_id=0, arch_id=0, layers={FF: p2, CL: p3})


class TestPadToGlobal:
    def test_same_dims_is_noop(self):
        rng = np.random.default_rng(0)
        u = make_update(rng, ff=(16, 12), cl=(12, 3))
        padded = pad_to_global(u, GLOBAL_DIMS)
        for lid in LayerId:
            np.testing.assert_array_equal(padded[lid].a_padded, u.layers[lid].a)
            np.testing.assert_array_equal(padded[lid].b_padded, u.layers[lid].b)
            assert padded[lid].mask_a.all() and padded[lid].mask_b.all()

    def test_padding_zero_fills_and_masks(self):
        rng = np.random.default_rng(1)
        u = make_update(rng, ff=(16, 8), cl=(8, 3))
        padded = pad_to_global(u, GLOBAL_DIMS)
        cl = padded[CL]
        np.testing.assert_array_equal(cl.a_padded[:, :8], u.layers[CL].a)
        np.testing.assert_array_equal(cl.a_padded[:, 8:], 0.0)
        np.testing.assert_array_equal(cl.mask_a[:, :8], 1.0)
        np.testing.assert_array_equal(cl.mask_a[:, 8:], 0.0)
        ff = padded[FF]
        np.testing.assert_array_equal(ff.b_padded[8:, :], 0.0)
        np.testing.assert_array_equal(ff.mask_b[8:, :], 0.0)

    def test_padding_preserves_spectral_features(self):
        rng = np.random.default_rng(2)
        u = make_update(rng, ff=(16, 8), cl=(8, 3))
        padded = pad_to_global(u, GLOBAL_DIMS)
        for lid in LayerId:
            _, s_orig, _ = thin_svd(u.layers[lid].a)
            _, s_pad, _ = thin_svd(padded[lid].a_padded)
            assert abs(spectral_entropy(s_orig) - spectral_entropy(s_pad)) <= 1e-10
            assert abs(
                topk_energy_ratio(s_orig, 2) - topk_energy_ratio(s_pad, 2)
            ) <= 1e-10

    def test_oversized_client_rejected(self):
        rng = np.random.default_rng(3)
        u = make_update(rng, ff=(20, 8), cl=(8, 3))
        with pytest.raises(ConfigurationError):
            pad_to_global(u, GLOBAL_DIMS)


class TestTrimToLocal:
    def _state_from(self, u, dims):
        padded = pad_to_global(u, dims)
        state = GlobalState.zeros(dims, u.rank)
        for lid in LayerId:
            state.layers[lid].a = padded[lid].a_padded
            state.layers[lid].b = padded[lid].b_padded
        return state

    def test_identity_at_global_dims(self):
        rng = np.random.default_rng(4)
        u = make_update(rng, ff=(16, 12), cl=(12, 3))
        state = self._state_from(u, GLOBAL_DIMS)
        for lid in LayerId:
            pair = trim_to_local(state, lid, u.layers[lid].dims)
            np.testing.assert_array_equal(pair.a, u.layers[lid].a)
            np.testing.assert_array_equal(pair.b, u.layers[lid].b)

    def test_round_trip_on_own_support(self):
        rng = np.random.default_rng(5)
        u = make_update(rng, ff=(16, 8), cl=(8, 3))
        state = self._state_from(u, GLOBAL_DIMS)
        for lid in LayerId:
            pair = trim_to_local(state, lid, u.layers[lid].dims)
            np.testing.assert_array_equal(pair.a, u.layers[lid].a)
            np.testing.assert_array_equal(pair.b, u.layers[lid].b)

    def test_two_architectures_share_top_left_block(self):
        rng = np.random.default_rng(6)
        state = GlobalState.zeros(GLOBAL_DIMS, 4)
        for lid in LayerId:
            state.layers[lid].a = rng.normal(size=state.layers[lid].a.shape)
            state.layers[lid].b = rng.normal(size=state.layers[lid].b.shape)
        small = trim_to_local(state, CL, LayerDims(8, 3))
        big = trim_to_local(state, CL, LayerDims(12, 3))
        np.testing.assert_array_equal(small.a, big.a[:, :8])
        np.testing.assert_array_equal(small.b, big.b)

    def test_oversized_local_rejected(self):
        state = GlobalState.zeros(GLOBAL_DIMS, 4)
        with pytest.raises(ConfigurationError):
            trim_to_local(state, CL, LayerDims(13, 3))


class TestPayloadBytes:
    def test_worked_example(self):
        rng = np.random.default_rng(7)
        u = make_update(rng, rank=8, ff=(16, 32), cl=(32, 4))
        assert payload_bytes(u) == 8 * (8 * 16 + 32 * 8 + 8 * 32 + 4 * 8)

    def test_linear_in_rank(self):
        rng = np.random.default_rng(8)
        u1 = make_update(rng, rank=4, ff=(16, 8), cl=(8, 3))
        u2 = make_update(rng, rank=8, ff=(16, 8), cl=(8, 3))
        assert payload_bytes(u2) == 2 * payload_bytes(u1)

    def test_ratio_to_full_parameters(self):
        rng = np.random.default_rng(9)
        d, h, c, r = 64, 32, 10, 8
        u = make_update(rng, rank=r, ff=(d, h), cl=(h, c))
        full = 8 * (h * d + c * h)
        assert payload_bytes(u) == 8 * (r * d + h * r + r * h + c * r)
        assert payload_bytes(u) / full == pytest.approx(
            (r * d + h * r + r * h + c * r) / (h * d + c * h)
        )


class TestFlatten:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        u = make_update(rng, ff=(16, 8), cl=(8, 3))
        padded = pad_to_global(u, GLOBAL_DIMS)
        vec, mask = flatten_padded(padded)
        assert vec.shape == mask.shape
        rebuilt = unflatten_padded(vec, GLOBAL_DIMS, u.rank)
        for lid in LayerId:
            np.testing.assert_array_equal(rebuilt[lid][0], padded[lid].a_padded)
            np.testing.assert_array_equal(rebuilt[lid][1], padded[lid].b_padded)

    def test_mask_sum_counts_coverage(self):
        rng = np.random.default_rng(13)
        updates = [
            make_update(rng, client_id=0, ff=(16, 8), cl=(8, 3)),
            make_update(rng, client_id=1, ff=(16, 12), cl=(12, 3)),
        ]
        masks = [
            flatten_padded(pad_to_global(u, GLOBAL_DIMS))[1] for u in updates
        ]
        total = np.sum(masks, axis=0)
        assert set(np.unique(total)) <= {0.0, 1.0, 2.0}
        # entries inside every client's support are covered by both
        small_mask, big_mask = masks
        assert np.all(total[small_mask > 0] >= 1)
        assert np.all(big_mask[small_mask > 0] == 1)
