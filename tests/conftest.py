"""Shared fixtures.  Ray is initialised ONCE per pytest session (the
reference initialises its app/model once per test process via conftest
env flags, tests/conftest.py:24; here the analog is one local Ray)."""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

# Each test's node id, appended (and flushed by the close) before the test
# runs: when a run stops without a summary, the last line names the test
# it stopped in.
STARTED_LOG = Path(tempfile.gettempdir()) / "langfilter_tests_started.log"


def pytest_sessionstart(session):
    STARTED_LOG.write_text("")


def pytest_runtest_logstart(nodeid, location):
    with open(STARTED_LOG, "a") as fh:
        fh.write(nodeid + "\n")


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def unit_corpus_dir(tmp_path_factory) -> str:
    """The deterministic 2000-row unit corpus (same rows as the committed
    golden labels)."""
    from langfilter_ray.corpus import write_corpus

    out = tmp_path_factory.mktemp("corpus") / "unit"
    write_corpus(out, 2000)
    return str(out)


@pytest.fixture(scope="session")
def golden_labels():
    import pyarrow.parquet as pq

    path = Path(__file__).parent / "data" / "golden_labels.parquet"
    return pq.read_table(path)
