"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from ppir.harness import auto_field_size, grid_instances
from ppir.model import (
    InstanceParams,
    build_layout,
    held_messages,
    random_store,
    sample_side_info,
)


def make_world(class_sizes, side_counts, msg_len=1, q=None, seed=0):
    """Layout, store, side info and held values for one seeded instance."""
    q = q or auto_field_size(class_sizes, side_counts)
    params = InstanceParams(class_sizes, side_counts, msg_len=msg_len, q=q)
    layout = build_layout(params, seed)
    store = random_store(layout, seed + 1)
    side = sample_side_info(layout, seed + 2)
    values = held_messages(store, side)
    return params, layout, store, side, values


def flip_first_decoded_symbol(monkeypatch, q):
    """Make the harness's decoder return one wrong symbol, all else intact."""
    from ppir import harness
    from ppir.protocol import RetrievalResult

    real = harness.decode_answer

    def flipped(*args, **kwargs):
        result = real(*args, **kwargs)
        (lab, sym), *rest = result.decoded
        wrong = ((sym[0] + 1) % q,) + tuple(sym[1:])
        return RetrievalResult(((lab, wrong), *rest), result.new_from_class)

    monkeypatch.setattr(harness, "decode_answer", flipped)


def compositions(total, parts):
    """Ordered compositions of `total` into `parts` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


@pytest.fixture(scope="session")
def acceptance_grid():
    return grid_instances({"num_classes": [2, 3], "max_class_size": 5}, (1, 4), 1)


def run_script_into_closed_pipe(name, *args):
    """Run scripts/<name> with stdout a pipe whose reader has already gone."""
    import ppir

    repo = pathlib.Path(__file__).parents[1]
    src = str(pathlib.Path(ppir.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, str(repo / "scripts" / name), *args],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
