"""Every test starts with wg4's process-wide caches empty: the operator
slot of ``assembly``, the sampling lattice of ``harness`` and the field
template of ``cli``.  No result then depends on which tests ran before."""

import pytest

from wg4 import assembly, cli, harness


@pytest.fixture(autouse=True)
def empty_caches():
    assembly.empty_slot()
    harness._lattice.cache_clear()
    cli._field_template = None
