"""The record types are NamedTuples: field names and order, construction, repr, equality, immutability."""

import pytest

from dca_lab.agents import Category
from dca_lab.analysis import ClassificationResult
from dca_lab.data_ingest import AntigenRecord

#: (type, field values by name in field order, the repr of that record)
RECORDS = {
    "antigen": (
        AntigenRecord,
        {"antigen_id": 3, "source_sample_id": 1000025, "attributes": (0.5, 0.0), "true_label": Category.NORMAL},
        "AntigenRecord(antigen_id=3, source_sample_id=1000025, attributes=(0.5, 0.0), "
        "true_label=<Category.NORMAL: 'normal'>)",
    ),
    "result": (
        ClassificationResult,
        {"antigen_id": 3, "mcav": 0.7, "predicted": Category.ANOMALOUS, "actual": Category.NORMAL},
        "ClassificationResult(antigen_id=3, mcav=0.7, predicted=<Category.ANOMALOUS: 'anomalous'>, "
        "actual=<Category.NORMAL: 'normal'>)",
    ),
}


@pytest.fixture(params=RECORDS.values(), ids=RECORDS)
def record_case(request):
    return request.param


def test_field_names_and_order(record_case):
    cls, values, _ = record_case
    assert cls._fields == tuple(values)


def test_keyword_and_positional_construction_agree(record_case):
    cls, values, _ = record_case
    record = cls(**values)
    assert record == cls(*values.values())
    assert tuple(record) == tuple(values.values())
    assert record._asdict() == values


def test_repr_text(record_case):
    cls, values, expected = record_case
    assert repr(cls(**values)) == expected


def test_equality_is_by_value(record_case):
    cls, values, _ = record_case
    record = cls(**values)
    assert record == cls(**values) and hash(record) == hash(cls(**values))
    first = next(iter(values))
    changed = record._replace(**{first: values[first] + 1})
    assert changed != record and getattr(changed, first) == values[first] + 1


def test_assigning_a_field_raises(record_case):
    cls, values, _ = record_case
    record = cls(**values)
    for name in values:
        with pytest.raises(AttributeError):
            setattr(record, name, values[name])
