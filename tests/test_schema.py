"""One check per config value: the schema rows decide, however a value arrives."""

import dataclasses
import json
import math

import pytest

from dca_lab.cli import EXIT_OK, config_from_dict, config_to_dict, main
from dca_lab.data_ingest import AttributePolicy, MissingValuePolicy
from dca_lab.engine import InvalidConfigError, SimConfig
from dca_lab.schema import Field, check, rows
from dca_lab.signal_model import SignalMapping, WeightMatrix

WEIGHTS = {"danger": (1, 0, 1), "safe": (2, 3, -3)}


@pytest.mark.parametrize(
    ("build", "fragment"),
    [
        # Once accepted: string bounds compare as strings, and load_dataset then hit a TypeError.
        pytest.param(lambda: AttributePolicy(lo="1", hi="10"), "lo must be a number, got '1'", id="string_bounds"),
        # Once accepted: every normalized attribute came out NaN.
        pytest.param(lambda: AttributePolicy(lo=-math.inf, hi=math.inf), "lo must be in", id="infinite_bounds"),
        # Once accepted: finite bounds whose span overflows, so every attribute normalized to 0.0.
        pytest.param(lambda: AttributePolicy(lo=-1e308, hi=1e308),
                     "lo must be below hi, with hi - lo finite, got [-1e+308, 1e+308]", id="overflowing_span"),
        # The policy is the only check of its bounds: normalize_attribute takes them as given.
        pytest.param(lambda: AttributePolicy(lo=10, hi=10), "lo must be below hi", id="equal_bounds"),
        pytest.param(lambda: AttributePolicy(lo=10, hi=1), "lo must be below hi", id="reversed_bounds"),
        # Once an OverflowError from float().
        pytest.param(lambda: WeightMatrix(pamp=(10**400, 0, 0), **WEIGHTS),
                     "pamp must be in [-1e+100, 1e+100], got 1000", id="huge_int_weight"),
        # Once accepted, though SimConfig's table caps |weight| at 1e100.
        pytest.param(lambda: WeightMatrix(pamp=(1e300, 0, 0), **WEIGHTS),
                     "pamp must be in [-1e+100, 1e+100], got 1e+300", id="weight_past_cap"),
        # Once accepted: any truthy value complemented the safe signal.
        pytest.param(lambda: SignalMapping((0,), (0,), (0,), safe_is_complement="no"),
                     "safe_is_complement must be true or false", id="string_flag"),
        # Once a bare TypeError from tuple().
        pytest.param(lambda: SignalMapping(5, (0,), (0,)),
                     "pamp_sources must be an array of values, each an integer, got 5", id="int_sources"),
    ],
)
def test_python_built_component_is_checked_against_its_rows(build, fragment):
    with pytest.raises(InvalidConfigError) as excinfo:
        build()
    assert str(excinfo.value).startswith(fragment)


def test_a_field_without_a_row_fails_loudly():
    """A field declared without its row is a fault of the class, not a value left unchecked."""

    @dataclasses.dataclass(frozen=True)
    class HalfDeclared:
        checked: int = dataclasses.field(default=1, metadata={"row": Field(int, 0, 9)})
        unchecked: int = 2

        def __post_init__(self):
            check(self)

    with pytest.raises(TypeError, match=r"^HalfDeclared\.unchecked has no schema row$"):
        HalfDeclared()
    with pytest.raises(TypeError, match="HalfDeclared.unchecked"):
        rows(HalfDeclared)


def test_every_field_is_written_and_noted(tmp_path):
    """The JSON document, each component's object and gen-config's notes have one key per field, in order."""
    config, document = SimConfig(), config_to_dict(SimConfig())
    names = [d.name for d in dataclasses.fields(SimConfig)]
    assert list(document) == names
    components = [name for name in names if dataclasses.is_dataclass(getattr(config, name))]
    assert len(components) == 3
    for name in components:
        assert list(document[name]) == [d.name for d in dataclasses.fields(getattr(config, name))]
    assert main(["gen-config", "--out", str(tmp_path / "config.json")]) == EXIT_OK
    assert list(json.loads((tmp_path / "config.json").read_text())["_notes"]) == names


def test_long_values_are_echoed_short():
    with pytest.raises(InvalidConfigError) as excinfo:
        WeightMatrix(pamp=(10**400, 0, 0), **WEIGHTS)
    assert len(str(excinfo.value)) < 100
    with pytest.raises(InvalidConfigError, match="too long to print"):
        SimConfig(seed=10**5000)  # past str()'s digit limit


def test_values_are_stored_converted_after_the_check():
    config = SimConfig(threshold_range=[100, 300], anomalous_threshold=1,
                       signal_mapping=SignalMapping([0], [1], [2]))
    assert config.threshold_range == (100.0, 300.0) and type(config.threshold_range[0]) is float
    assert type(config.anomalous_threshold) is float
    assert config.signal_mapping.pamp_sources == (0,)
    assert dataclasses.replace(config, seed=5).threshold_range == (100.0, 300.0)


#: Values of the wrong kind for a row of each kind; enum strings stay strings in JSON.
WRONG_KIND = {int: [1.5, True, "1", None], float: [True, "0.5", None], bool: [1, "true", None],
              MissingValuePolicy: ["skip", None, 0]}


def _past(value, f, side):
    """The value just past one bound: one integer, or the next float."""
    if f.kind is int:
        return value - 1 if side < 0 else value + 1
    return math.nextafter(value, side * math.inf)


def _bad_values(f, valid):
    """Each value the row must reject: wrong kind, wrong array length, just past each bound."""
    for wrong in WRONG_KIND[f.kind]:
        yield wrong if f.length is None else [wrong] * len(valid)
    if f.length is not None:
        yield 5
        if f.length is not ...:
            yield valid + valid[:1]
            yield valid[:-1]
    if f.lo is not None:
        for bound, side in ((f.lo, -1), (f.hi, 1)):
            bad = _past(bound, f, side)
            yield bad if f.length is None else [bad] + valid[1:]


def _leaf_cases():
    """(component row or None, field name, bad value) for every leaf row of the schema."""
    document = config_to_dict(SimConfig())
    for row, f in rows(SimConfig).items():
        if not dataclasses.is_dataclass(f.kind):
            cases = [(None, row, f, document[row])]
        else:
            cases = [(row, name, leaf, document[row][name]) for name, leaf in rows(f.kind).items()]
        for component, name, leaf, valid in cases:
            path = name if component is None else f"{component}.{name}"
            for i, bad in enumerate(_bad_values(leaf, valid)):
                yield pytest.param(component, name, bad, id=f"{path}-{i}")


@pytest.mark.parametrize(("component", "name", "bad"), list(_leaf_cases()))
def test_python_and_json_reject_with_one_message(component, name, bad):
    """A value is rejected by its row alone: the same message from a constructor and from JSON."""
    document = config_to_dict(SimConfig())
    if component is None:
        build, prefix = (lambda: SimConfig(**{name: bad})), ""
        document[name] = bad
    else:
        default = getattr(SimConfig(), component)
        kwargs = {n: getattr(default, n) for n in rows(default)}
        build, prefix = (lambda: type(default)(**dict(kwargs, **{name: bad}))), f"{component}."
        document[component][name] = bad
    with pytest.raises(InvalidConfigError) as python_error:
        build()
    with pytest.raises(InvalidConfigError) as json_error:
        config_from_dict(document)
    assert str(python_error.value).startswith(f"{name} must be")
    assert str(json_error.value) == prefix + str(python_error.value)
