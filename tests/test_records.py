"""The record and value types are NamedTuples: field names and order, construction, repr, equality, immutability.

``RECORDS`` holds the types whose fields are all hashable and whose first
field is a number. ``MCAVHistogram``, ``DatasetSummary`` and ``RunReport``
are checked only for immutability, by the last test.
"""

import pytest

from dca_lab.agents import Category
from dca_lab.analysis import ClassificationResult, ConfusionCounts, MCAVHistogram, Metrics
from dca_lab.data_ingest import AntigenRecord, DatasetSummary
from dca_lab.engine import RunReport
from dca_lab.signal_model import CumulativeSignals

#: (type, field values by name in field order, the repr of that record)
RECORDS = {
    "antigen": (
        AntigenRecord,
        {"antigen_id": 3, "source_sample_id": 1000025, "attributes": (0.5, 0.0), "true_label": Category.NORMAL},
        "AntigenRecord(antigen_id=3, source_sample_id=1000025, attributes=(0.5, 0.0), "
        "true_label='normal')",
    ),
    "result": (
        ClassificationResult,
        {"antigen_id": 3, "mcav": 0.7, "predicted": Category.ANOMALOUS, "actual": Category.NORMAL},
        "ClassificationResult(antigen_id=3, mcav=0.7, predicted='anomalous', "
        "actual='normal')",
    ),
    "confusion": (
        ConfusionCounts,
        {"tp": 4, "tn": 3, "fp": 2, "fn": 1},
        "ConfusionCounts(tp=4, tn=3, fp=2, fn=1)",
    ),
    "metrics": (
        Metrics,
        {"accuracy": 0.7, "true_positive_rate": 0.8, "false_positive_rate": None,
         "mean_mcav_normal": 0.25, "mean_mcav_anomalous": None},
        "Metrics(accuracy=0.7, true_positive_rate=0.8, false_positive_rate=None, "
        "mean_mcav_normal=0.25, mean_mcav_anomalous=None)",
    ),
    "signals": (
        CumulativeSignals,
        {"cum_csm": 150.5, "cum_semi": 20.0, "cum_mat": -3.5},
        "CumulativeSignals(cum_csm=150.5, cum_semi=20.0, cum_mat=-3.5)",
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


def test_fields_of_the_other_value_types_cannot_be_assigned():
    results = [ClassificationResult(0, 1.0, Category.ANOMALOUS, Category.ANOMALOUS)]
    confusion = ConfusionCounts(tp=1, tn=0, fp=0, fn=0)
    values = [
        MCAVHistogram(edges=(0.0, 0.5, 1.0), counts=(0, 1)),
        DatasetSummary(rows_read=2, rows_skipped=1, records_produced=1,
                       label_counts={Category.NORMAL: 0, Category.ANOMALOUS: 1}),
        RunReport(results, confusion, Metrics(1.0, 1.0, None, None, 1.0), MCAVHistogram((0.0, 1.0), (1,))),
    ]
    for value in values:
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
