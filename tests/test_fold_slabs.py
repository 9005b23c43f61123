"""The column fold's slab rule (``target.fold_slabs``) and the oracle on many-slab folds."""

import itertools

import pytest

from sphere_dmrg import target as target_module
from sphere_dmrg.engine import TrainConfig
from sphere_dmrg.mps import bond_dims
from sphere_dmrg.target import fold_slabs
from sphere_dmrg.verify import oracle_check


def middle_shape(n, d, chi):
    """(rows, cols, block rows) of the column fold at the middle bond m = n // 2."""
    m = n // 2
    return d**m, d ** (n - m), bond_dims(n, d, chi)[m]


@pytest.mark.parametrize("n, d, chi", [(22, 2, 32), (24, 2, 32), (15, 3, 16), (20, 2, 64)])
def test_wide_or_thin_slabs_take_the_single_product(n, d, chi):
    assert fold_slabs(d, *middle_shape(n, d, chi)) == 1


@pytest.mark.parametrize("n, d, chi, slabs", [
    # the benchmark's (18, 8) counts and (20, 8) fold shapes, and the
    # ladder's (22, 16) and (24, 8): 256 KiB slabs, as before the rule
    (18, 2, 8, 8), (20, 2, 8, 32), (22, 2, 16, 128), (24, 2, 8, 512),
    (14, 3, 8, 243), (12, 2, 16, 1),
])
def test_narrow_blocks_keep_the_budget_slabs(n, d, chi, slabs):
    rows, cols, width = middle_shape(n, d, chi)
    assert rows * cols * 8 <= slabs * target_module.SLAB_BYTES
    assert fold_slabs(d, rows, cols, width) == slabs


@pytest.mark.parametrize("d", [2, 3])
def test_oracle_judges_one_row_slabs(monkeypatch, d):
    # an 8-byte budget makes every fold the rule slabs run one row per slab
    monkeypatch.setattr(target_module, "SLAB_BYTES", 8)
    counts = []

    def counted(d, rows, cols, chi):
        slabs = fold_slabs(d, rows, cols, chi)
        assert slabs in (1, rows)
        counts.append(slabs)
        return slabs

    monkeypatch.setattr(target_module, "fold_slabs", counted)
    for n, chi, seed in itertools.product(range(2, 7), (1, 2, 4), range(3)):
        config = TrainConfig(n=n, d=d, chi=chi, seed=seed, target=f"named:random:{seed + 9000}")
        assert not oracle_check(config), (n, d, chi, seed)
    assert max(counts) >= d**3
