"""Fixtures shared by the test modules."""

from __future__ import annotations

import dataclasses

import pytest

from relcommit.montecarlo import RunConfig, sample_branches
from relcommit.protocol import Transcript


def _sampled_transcripts(config: RunConfig) -> list[Transcript]:
    table, draws = sample_branches(config)
    return [table[branch] if k is None else dataclasses.replace(table[branch], pair_index=k)
            for branch, k in draws]


@pytest.fixture
def sampled_transcripts():
    """A campaign's draws, each looked up in its validated branch table.

    String transcripts carry ``pair_index=k``; one-pair schemes keep ``None``.
    """
    return _sampled_transcripts
