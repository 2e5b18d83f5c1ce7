import csv
import io

import numpy as np
import pytest

from leveltime import warmup
from leveltime.lab import GeneratorSpec, generate


@pytest.fixture(scope="session", autouse=True)
def _compiled_kernels():
    # pay any jit compilation cost once, outside the timed tests
    warmup()


@pytest.fixture
def step_path():
    """Factory for seeded random step paths with exact jump marks."""

    def make(seed, n_samples=200, sigma=1.0, jump_rate=6.0, kind="jump_diffusion"):
        spec = GeneratorSpec(
            kind,
            T=1.0,
            steps_per_unit=n_samples - 1,
            seed=seed,
            sigma=sigma,
            jump_rate=jump_rate,
        )
        return generate(spec)

    return make


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _csv_writer_text(header, columns):
    """The text ``csv.writer`` writes for ``header`` and the rows of
    ``columns``: an ndarray column as the ``%.17g`` texts of its floats in
    row-major order, any other column as its cells."""
    cells = [
        ["%.17g" % v for v in np.ravel(c).tolist()]
        if isinstance(c, np.ndarray) else list(c)
        for c in columns
    ]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(zip(*cells, strict=True))
    return buf.getvalue()


@pytest.fixture(scope="session")
def csv_writer():
    """The oracle of ``paths._write_table``: ``csv.writer``'s text for a
    header and columns."""
    return _csv_writer_text
