import os

# One BLAS thread for the whole suite. The tests multiply small matrices, where
# a second thread costs more than it gains, and a timing is only comparable
# with others taken at the same thread count. This must run before NumPy is
# first imported, which pytest does not do before it loads this file.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from sortgen import model as sortmodel
from sortgen import simulator
from sortgen.core import EngineConfig, ObjectiveWeights


@pytest.fixture(scope="session")
def small_config():
    return EngineConfig(l_s=12, l_o=5, max_count=5, d_model=16, n_heads=2,
                        n_layers=2, seed=7)


@pytest.fixture(scope="session")
def small_params(small_config):
    return sortmodel.init_params(small_config, seed=7)


@pytest.fixture(scope="session")
def small_catalog(small_config):
    return simulator.sample_catalog(60, small_config.d_emb, 4, seed=3)


@pytest.fixture(scope="session")
def weights():
    return ObjectiveWeights(5.0, 1.0, 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def make_item(i, emb, price=10.0, ctr=0.2, cvr=0.1, cat=0):
    from sortgen.core import Item
    emb = np.asarray(emb, dtype=np.float64)
    return Item(id=i, embedding=emb / np.linalg.norm(emb), price=price,
                prior_ctr=ctr, prior_cvr=cvr, category=cat)
