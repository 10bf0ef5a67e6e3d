"""Seeded fixture: one violation per lint rule, plus pragma interplay.

Linted by tests/test_lint_engine.py and tests/test_lint_reporters.py;
the golden reports in this directory pin the expected output.  Line
numbers matter — edit only together with the goldens.
"""

import random
import time
from random import randint


def sample(sim, metrics, values=[]):
    metrics.inc("samples_total")
    start = time.time()
    jitter = random.random()
    sim.schedule(-0.5, sample)
    try:
        values.append(start + jitter + randint(0, 2))
    except:
        pass
    print("sampled")
    return values


def quiet(sim):
    x = 1  # obs: caller-guarded
    try:
        sim.run()
    except Exception:
        pass
    print(time.time())  # lint: disable=RL101,RL203 — deliberate demo
    print(time.time())  # lint: disable=RL101 — only the clock suppressed
    return x


def persist(journal, checkpoint_file, record):
    import json

    journal.write(record)
    json.dump(record, checkpoint_file)
    return journal


def poke(sim):
    sim._heap.clear()
    return sim._wheel_cursor


def snoop(store_path, segment_dir):
    raw = open(store_path / "index.jsonl")
    head = segment_dir.read_text()
    return raw, head


def reach_in(sim, event):
    from repro.sim.events import _SEQ

    event.seq = next(_SEQ)
    sim._insert_entry(event)
    sim._insert_far((event.time, event.seq, event), 0)
