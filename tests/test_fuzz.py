"""Any JSON value in any field: a record or a typed error, never a crash."""

import os
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from teachcut.pipeline import PipelineConfig, diagnose_batch, process_batch
from teachcut.records import RolloutRecord, TeachcutError, parse_rollout_line

from helpers import to_line, valid_obj

TOPK_KEYS = ("ids", "student_logp", "teacher_logp")
PER_TOKEN_KEYS = ("tokens", "teacher_logp", "student_logp", "loss_mask")

# integers past 64 bits (orjson decodes them as floats, but refuses 2**1100,
# past float range, which only the stdlib retry decodes), NaN and infinities
# (written as literals that only the stdlib retry decodes), nested values
SCALARS = (st.none() | st.booleans() | st.floats() | st.text(max_size=4)
           | st.integers()
           | st.sampled_from([2**63, -2**63 - 1, 2**70, -2**70, 2**1100]))
JSON_VALUES = SCALARS | st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)

# (kind, key): a top-level field, a top-K field, row or entry, a segment or
# a segment index, or one entry of a per-token array
SITES = ([("field", key) for key in sorted(valid_obj())]
         + [(kind, key) for kind in ("topk_field", "topk_row", "topk_entry")
            for key in TOPK_KEYS]
         + [("segment", None), ("segment_index", None)]
         + [("token_entry", key) for key in PER_TOKEN_KEYS])


def mutated(site, value, t, j, short_row):
    """valid_obj() with one value replaced; row ``short_row`` cut to 2
    candidates first, unless it is None."""
    obj = valid_obj(num_tokens=4, num_candidates=4)
    obj["segments"] = [[0, 1], [2, 3]]
    if short_row is not None:
        for key in TOPK_KEYS:
            obj["topk"][key][short_row] = obj["topk"][key][short_row][:2]
    kind, key = site
    if kind == "field":
        obj[key] = value
    elif kind == "topk_field":
        obj["topk"][key] = value
    elif kind == "topk_row":
        obj["topk"][key][t] = value
    elif kind == "topk_entry":
        obj["topk"][key][t][j] = value
    elif kind == "segment":
        obj["segments"][j] = value
    elif kind == "segment_index":
        obj["segments"][j][t % 2] = value
    else:
        obj[key][t] = value
    return obj


ROW = st.integers(0, 3)
SHORT_ROW = st.none() | ROW


@pytest.mark.parametrize("site", SITES, ids=lambda site: "-".join(filter(None, site)))
@settings(max_examples=60, deadline=None)
@given(value=JSON_VALUES, t=ROW, j=st.integers(0, 1), short_row=SHORT_ROW,
       probs=st.booleans())
def test_any_field_value_parses_or_raises_typed(site, value, t, j, short_row,
                                                probs):
    line = to_line(mutated(site, value, t, j, short_row))
    try:
        record = parse_rollout_line(line, probs=probs)
    except TeachcutError:
        return
    assert isinstance(record, RolloutRecord)


@st.composite
def mutated_objs(draw):
    return mutated(draw(st.sampled_from(SITES)), draw(JSON_VALUES), draw(ROW),
                   draw(st.integers(0, 1)), draw(SHORT_ROW))


# records that orjson refuses and whose stdlib retry raises past CPython's
# own limits: an integer of 4,301 digits, which json.dumps cannot write,
# and an array nested 2,000 deep beside a NaN
RAW_LINES = tuple(
    to_line(valid_obj()).replace(b"{", b'{"extra": ' + value + b", ", 1)
    for value in (b"1" * 4301, b"[" * 2000 + b"0" + b"]" * 2000
                  + b', "nan": NaN'))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(objs=st.lists(mutated_objs(), min_size=1, max_size=5),
       raw=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(RAW_LINES)),
                    max_size=2))
def test_non_strict_batches_never_raise_on_data(objs, raw):
    lines = [to_line(obj) for obj in objs]
    for at, line in raw:
        lines.insert(at, line)
    config = PipelineConfig(jobs=1)
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        src = os.path.join(tmp, "in.jsonl")
        with open(src, "wb") as handle:
            handle.write(b"".join(line + b"\n" for line in lines))
        report = process_batch(src, os.path.join(tmp, "out.jsonl"), config)
        assert report.num_records + report.num_errors == len(lines)
        result = diagnose_batch(src, os.path.join(tmp, "diag"), config)
        assert result.report.num_records + result.report.num_errors == len(lines)
