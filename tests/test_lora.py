"""Unit tests for the adapter data model, the padded round matrix, trimming."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horus.errors import ConfigurationError
from horus.lora import (
    ClientUpdate,
    GlobalState,
    LayerDims,
    LayerId,
    LoraPair,
    pad_round,
    payload_bytes,
    round_layout,
    trim_to_local,
)
from horus.spectral import decompose_many, spectral_entropy, topk_energy_ratio

FF, CL = LayerId.FEATURE_FIRST, LayerId.CLASSIFIER


def make_update(rng, rank=4, ff=(16, 8), cl=(8, 3)):
    layers = {}
    for lid, (d_in, d_out) in ((FF, ff), (CL, cl)):
        layers[lid] = LoraPair(
            a=rng.normal(size=(rank, d_in)),
            b=rng.normal(size=(d_out, rank)),
        )
    return ClientUpdate(layers)


GLOBAL_DIMS = {FF: LayerDims(16, 12), CL: LayerDims(12, 3)}


def filled_one_by_one(updates, g):
    """``pad_round``'s matrices by one slice copy per update and block."""
    layout = round_layout(g)
    values = np.zeros((len(updates), layout[-1].cols.stop))
    masks = np.zeros_like(values)
    for i, u in enumerate(updates):
        for lid, factor, shape, cols in layout:
            m = getattr(u.layers[lid], factor)
            values[i, cols].reshape(shape)[: m.shape[0], : m.shape[1]] = m
            masks[i, cols].reshape(shape)[: m.shape[0], : m.shape[1]] = 1.0
    return values, masks


class TestTypes:
    def test_lora_pair_shape_checks(self):
        with pytest.raises(ValueError):
            LoraPair(a=np.zeros((3, 5)), b=np.zeros((4, 4)))
        with pytest.raises(ValueError):
            LoraPair(a=np.zeros((4, 5)), b=np.zeros((4, 3)))
        with pytest.raises(ValueError, match="positive rank"):
            LoraPair(a=np.zeros((0, 5)), b=np.zeros((4, 0)))

    def test_rank_is_read_off_the_arrays(self):
        pair = LoraPair(a=np.zeros((3, 5)), b=np.zeros((4, 3)))
        assert pair.rank == 3
        with pytest.raises(AttributeError):
            pair.rank = 2

    def test_delta_is_b_at_a_computed_once(self):
        rng = np.random.default_rng(0)
        pair = LoraPair(a=rng.normal(size=(3, 5)), b=rng.normal(size=(4, 3)))
        first = pair.delta
        assert first.tobytes() == (pair.b @ pair.a).tobytes()
        assert pair.delta is first
        assert not first.flags.writeable

    def test_lora_pair_rejects_non_finite(self):
        a = np.zeros((2, 3))
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            LoraPair(a=a, b=np.zeros((4, 2)))

    @pytest.mark.parametrize("a, b", [
        pytest.param(np.full((2, 3), np.inf), np.zeros((4, 2)), id="inf-a"),
        pytest.param(np.zeros((2, 3)), np.array([[0.0, 0.0]] * 3 + [[np.nan, 0.0]]),
                     id="nan-b"),
        pytest.param(np.zeros(3), np.zeros((4, 2)), id="1d-a"),
        pytest.param(np.zeros((2, 3)), np.zeros((4, 2, 1)), id="3d-b"),
    ])
    def test_public_constructor_keeps_every_check(self, a, b):
        # training results skip these checks; the public constructor must not
        with pytest.raises(ValueError, match="non-finite|2-D"):
            LoraPair(a=a, b=b)

    def test_client_update_requires_both_layers(self):
        pair = LoraPair(np.zeros((2, 4)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ClientUpdate(layers={FF: pair})

    def test_client_update_rejects_mixed_ranks(self):
        p2 = LoraPair(np.zeros((2, 4)), np.zeros((3, 2)))
        p3 = LoraPair(np.zeros((3, 4)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            ClientUpdate(layers={FF: p2, CL: p3})


def padded_pairs(u, dims):
    """One update padded alone, as {layer: (A, B, mask A, mask B)} at global shapes."""
    g = GlobalState.zeros(dims, u.layers[FF].rank)
    values, masks = pad_round([u], g)
    vals, cover = g.with_flat(values[0]).layers, g.with_flat(masks[0]).layers
    return {lid: (vals[lid].a, vals[lid].b, cover[lid].a, cover[lid].b) for lid in LayerId}


class TestPadToGlobal:
    """One update padded into a row of the round matrix by ``pad_round``."""

    def test_same_dims_is_noop(self):
        rng = np.random.default_rng(0)
        u = make_update(rng, ff=(16, 12), cl=(12, 3))
        padded = padded_pairs(u, GLOBAL_DIMS)
        for lid in LayerId:
            a_pad, b_pad, mask_a, mask_b = padded[lid]
            np.testing.assert_array_equal(a_pad, u.layers[lid].a)
            np.testing.assert_array_equal(b_pad, u.layers[lid].b)
            assert mask_a.all() and mask_b.all()

    def test_padding_zero_fills_and_masks(self):
        rng = np.random.default_rng(1)
        u = make_update(rng, ff=(16, 8), cl=(8, 3))
        padded = padded_pairs(u, GLOBAL_DIMS)
        cl_a, _, cl_mask_a, _ = padded[CL]
        np.testing.assert_array_equal(cl_a[:, :8], u.layers[CL].a)
        np.testing.assert_array_equal(cl_a[:, 8:], 0.0)
        np.testing.assert_array_equal(cl_mask_a[:, :8], 1.0)
        np.testing.assert_array_equal(cl_mask_a[:, 8:], 0.0)
        _, ff_b, _, ff_mask_b = padded[FF]
        np.testing.assert_array_equal(ff_b[8:, :], 0.0)
        np.testing.assert_array_equal(ff_mask_b[8:, :], 0.0)

    def test_padding_preserves_spectral_features(self):
        rng = np.random.default_rng(2)
        u = make_update(rng, ff=(16, 8), cl=(8, 3))
        padded = padded_pairs(u, GLOBAL_DIMS)
        for lid in LayerId:
            (s_orig, _), = decompose_many([u.layers[lid].a])
            (s_pad, _), = decompose_many([padded[lid][0]])
            assert abs(spectral_entropy(s_orig) - spectral_entropy(s_pad)) <= 1e-10
            assert abs(
                topk_energy_ratio(s_orig, 2) - topk_energy_ratio(s_pad, 2)
            ) <= 1e-10

    def test_oversized_client_rejected(self):
        rng = np.random.default_rng(3)
        u = make_update(rng, ff=(20, 8), cl=(8, 3))
        with pytest.raises(ConfigurationError, match="exceeds global maxima"):
            pad_round([u], GlobalState.zeros(GLOBAL_DIMS, u.layers[FF].rank))


class TestTrimToLocal:
    def _state_from(self, u, dims):
        padded = padded_pairs(u, dims)
        state = GlobalState.zeros(dims, u.layers[FF].rank)
        for lid in LayerId:
            state.layers[lid].a, state.layers[lid].b = padded[lid][:2]
        return state

    def test_identity_at_global_dims(self):
        rng = np.random.default_rng(4)
        u = make_update(rng, ff=(16, 12), cl=(12, 3))
        state = self._state_from(u, GLOBAL_DIMS)
        for lid, sent in u.layers.items():
            pair = trim_to_local(state, lid, LayerDims(sent.a.shape[1], sent.b.shape[0]))
            np.testing.assert_array_equal(pair.a, sent.a)
            np.testing.assert_array_equal(pair.b, sent.b)

    def test_round_trip_on_own_support(self):
        rng = np.random.default_rng(5)
        u = make_update(rng, ff=(16, 8), cl=(8, 3))
        state = self._state_from(u, GLOBAL_DIMS)
        for lid, sent in u.layers.items():
            pair = trim_to_local(state, lid, LayerDims(sent.a.shape[1], sent.b.shape[0]))
            np.testing.assert_array_equal(pair.a, sent.a)
            np.testing.assert_array_equal(pair.b, sent.b)

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

    def test_returns_a_read_only_copy(self):
        state = GlobalState.zeros(GLOBAL_DIMS, 4)
        pair = trim_to_local(state, CL, LayerDims(8, 3))
        for m, whole in ((pair.a, state.layers[CL].a), (pair.b, state.layers[CL].b)):
            assert not m.flags.writeable and not np.shares_memory(m, whole)
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 1.0
        assert state.layers[CL].a.flags.writeable

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
    """The round matrix's layout, its inverse, and the state's own row."""

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        u = make_update(rng, ff=(16, 8), cl=(8, 3))
        state = GlobalState.zeros(GLOBAL_DIMS, u.layers[FF].rank)
        values, masks = pad_round([u], state)
        assert values.shape == masks.shape
        # padded by hand: top-left placement at the global shapes
        by_hand = {}
        for lid, pair in u.layers.items():
            a = np.zeros((u.layers[FF].rank, GLOBAL_DIMS[lid].d_in))
            a[:, : pair.a.shape[1]] = pair.a
            b = np.zeros((GLOBAL_DIMS[lid].d_out, u.layers[FF].rank))
            b[: pair.b.shape[0], :] = pair.b
            by_hand[lid] = (a, b)
        rebuilt = state.with_flat(values[0])
        for lid in LayerId:
            np.testing.assert_array_equal(rebuilt.layers[lid].a, by_hand[lid][0])
            np.testing.assert_array_equal(rebuilt.layers[lid].b, by_hand[lid][1])
        # the layout: every layer's A, then every layer's B
        expected = np.concatenate(
            [by_hand[lid][0].ravel() for lid in LayerId]
            + [by_hand[lid][1].ravel() for lid in LayerId]
        )
        np.testing.assert_array_equal(values[0], expected)

    def test_mask_sum_counts_coverage(self):
        rng = np.random.default_rng(13)
        updates = [
            make_update(rng, ff=(16, 8), cl=(8, 3)),
            make_update(rng, ff=(16, 12), cl=(12, 3)),
        ]
        _, masks = pad_round(updates, GlobalState.zeros(GLOBAL_DIMS, 4))
        total = masks.sum(axis=0)
        assert set(np.unique(total)) <= {0.0, 1.0, 2.0}
        # entries inside every client's support are covered by both
        small_mask, big_mask = masks
        assert np.all(total[small_mask > 0] >= 1)
        assert np.all(big_mask[small_mask > 0] == 1)

    def test_rows_follow_update_order(self):
        rng = np.random.default_rng(14)
        updates = [make_update(rng, ff=(16, 8 + 4 * (c % 2)), cl=(8 + 4 * (c % 2), 3))
                   for c in range(3)]
        state = GlobalState.zeros(GLOBAL_DIMS, 4)
        values, masks = pad_round(updates, state)
        for i, u in enumerate(updates):
            alone_v, alone_m = pad_round([u], state)
            np.testing.assert_array_equal(values[i], alone_v[0])
            np.testing.assert_array_equal(masks[i], alone_m[0])

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([4, 16]), st.sampled_from([1, 5, 8, 12])),
                    min_size=1, max_size=12),
           st.integers(0, 2**32 - 1), st.integers(0, 11), st.booleans())
    @example(shapes=[(16, 8)], seed=0, bad=0, wide_input=False)
    @example(shapes=[(16, 8)] * 5, seed=1, bad=3, wide_input=True)
    def test_rows_equal_a_per_update_fill_for_any_mix_of_shapes(
        self, shapes, seed, bad, wide_input
    ):
        # (FF d_in, hidden width) per update, in any order
        rng = np.random.default_rng(seed)
        updates = [make_update(rng, ff=(d_in, h), cl=(h, 3)) for d_in, h in shapes]
        state = GlobalState.zeros(GLOBAL_DIMS, 4)
        values, masks = pad_round(updates, state)
        want_values, want_masks = filled_one_by_one(updates, state)
        assert values.tobytes() == want_values.tobytes()
        assert masks.tobytes() == want_masks.tobytes()
        # update i and the last one too large: the error names i, the first,
        # and the block it overflows
        i = bad % len(updates)
        d_in, h = (20, shapes[i][1]) if wide_input else (shapes[i][0], 13)
        for j in {i, len(updates) - 1}:
            updates[j] = make_update(rng, ff=(d_in, h), cl=(h, 3))
        block = "feature_first A" if wide_input else "classifier A"
        with pytest.raises(ConfigurationError, match=f"^update {i} layer {block} shape"):
            pad_round(updates, state)

    def test_state_flat_inverts_unflatten(self):
        rng = np.random.default_rng(15)
        state = GlobalState.zeros(GLOBAL_DIMS, 4)
        for lid in LayerId:
            state.layers[lid].a = rng.normal(size=state.layers[lid].a.shape)
            state.layers[lid].b = rng.normal(size=state.layers[lid].b.shape)
            state.layers[lid].v_a = rng.normal(size=GLOBAL_DIMS[lid].d_in)
        row = state.flat()
        rebuilt = state.with_flat(row)
        for lid in LayerId:
            np.testing.assert_array_equal(rebuilt.layers[lid].a, state.layers[lid].a)
            np.testing.assert_array_equal(rebuilt.layers[lid].b, state.layers[lid].b)
            # copies of the row's blocks, with the state's directions
            assert not np.shares_memory(rebuilt.layers[lid].a, row)
            assert rebuilt.layers[lid].v_a is state.layers[lid].v_a
            assert rebuilt.layers[lid].v_b is None
        with pytest.raises(ValueError, match="round layout"):
            state.with_flat(row[:-1])

    def test_layout_blocks_tile_the_row(self):
        state = GlobalState.zeros(GLOBAL_DIMS, 3)
        layout = round_layout(state)
        assert [(b.layer, b.factor) for b in layout] == [
            (FF, "a"), (CL, "a"), (FF, "b"), (CL, "b")]
        assert layout[0].cols.start == 0
        for block, nxt in zip(layout, layout[1:]):
            assert block.cols.stop == nxt.cols.start
        for block in layout:
            assert block.shape == getattr(state.layers[block.layer], block.factor).shape
            assert block.cols.stop - block.cols.start == block.shape[0] * block.shape[1]
        assert layout[-1].cols.stop == state.flat().size
