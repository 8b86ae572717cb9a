"""The value types' contract: construction, equality, hashing, repr and immutability.

Every public record is built once positionally and once by keyword from
the same field values; the two must agree field by field.  Records compare
field-wise with instances of their own type, hash as the tuple of their
fields (a read-only mapping as its items), refuse assignment and deletion,
and copy and pickle to an equal instance.
"""

import copy
import inspect
import math
import pickle
from types import MappingProxyType

import pytest

import powerplan as pp

PROFILE_FIELDS = dict(
    model_id="rec",
    batch_sizes=(8, 32),
    frequencies=(307.0, 614.0),
    time_table=((4.0, 2.0), (3.0, 1.5)),
    power_table=((1.0, 2.0), (1.5, 3.0)),
    samples_per_unit=4096,
    avg_power_table=((0.5, 1.0), (1.0, 2.0)),
)
ROW = dict(
    p_max_w=4.5,
    policy_tag="baseline1",
    batch_size=32,
    frequency_mhz=307.0,
    estimated_tt_acc=3.0,
    realized_tt_acc=45.0,
    energy_j=45.0,
    speedup_vs_baseline1=1.0,
    status="ok",
)

# (type, field values in constructor order, fields left at their defaults)
RECORDS = {
    "PowerCap": (pp.PowerCap, dict(p_max=5.0), {}),
    "DeviceProfile": (pp.DeviceProfile, PROFILE_FIELDS, {"avg_power_table": None}),
    "RelationVector": (pp.RelationVector, dict(entries={8: 0.5, 32: 1.0}, source_id="proxy"), {"source_id": ""}),
    "SelectionResult": (
        pp.SelectionResult,
        dict(batch_size=8, frequency_mhz=614.0, estimated_tt_acc=12.5, feasible_count=2, policy_tag="ours",
             estimated_energy=3.0),
        {"estimated_energy": None},
    ),
    "PowerTrace": (pp.PowerTrace, dict(timestamps_s=(0.0, 1.0), power_mw=(1000.0, 2500.0)), {}),
    "TimingTrace": (
        pp.TimingTrace,
        dict(batch_size=16, frequency_mhz=307.0, minibatch_durations=(0.9, 0.5, 0.4), warmup_discarded=1),
        {"warmup_discarded": 0},
    ),
    "SafeFrequencyTable": (pp.SafeFrequencyTable, dict(entries={4.5: 307.0, math.inf: 614.0}), {}),
    "ComparisonRow": (pp.ComparisonRow, ROW, {"status": "ok"}),
    "ComparisonReport": (pp.ComparisonReport, dict(rows=(pp.ComparisonRow(**ROW),)), {}),
    "SensitivityMatrix": (
        pp.SensitivityMatrix,
        dict(p_max_w=4.5, proxy_ids=("a", "b"), target_ids=("t",), values=[[0.0], [12.5]]),
        {},
    ),
    "SynthDeviceParams": (
        pp.SynthDeviceParams,
        dict(p_static=1.0, power_coeff=0.01, voltage_curve=((300.0, 0.8), (900.0, 1.0)), parallel_cap=32,
             per_sample_cost=1.0, freq_efficiency=100.0, rng_seed=3, noise_level=0.1, avg_duty=0.8),
        {"rng_seed": 0, "noise_level": 0.0, "avg_duty": 0.9},
    ),
    "AggregatedPoint": (pp.AggregatedPoint, dict(t_s_seconds=25.6, peak_w=4.5, avg_w=4.2), {}),
}
# What each field reads back as, where the constructor normalises it.
STORED = {
    ("DeviceProfile", "time_table"): lambda p: p.time_rows,
    ("DeviceProfile", "power_table"): lambda p: p.power_rows,
    ("DeviceProfile", "avg_power_table"): lambda p: p.avg_power_rows,
}


def build(name, keyword=False, **changes):
    cls, fields, _ = RECORDS[name]
    fields = {**fields, **changes}
    return cls(**fields) if keyword else cls(*fields.values())


def field_values(name, obj):
    return {f: STORED.get((name, f), lambda o: getattr(o, f))(obj) for f in RECORDS[name][1]}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecordContract:
    def test_constructor_parameters(self, name):
        cls, fields, defaults = RECORDS[name]
        params = inspect.signature(cls).parameters.values()
        assert [p.name for p in params] == list(fields)
        assert {p.name: p.default for p in params if p.default is not p.empty} == defaults
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)

    def test_positional_and_keyword_construction_agree(self, name):
        a, b = build(name), build(name, keyword=True)
        assert type(a) is type(b) is RECORDS[name][0]
        assert field_values(name, a) == field_values(name, b)
        assert a == b and not a != b

    def test_defaults_fill_omitted_fields(self, name):
        cls, fields, defaults = RECORDS[name]
        obj = cls(**{f: v for f, v in fields.items() if f not in defaults})
        assert {f: getattr(obj, f) for f in defaults} == defaults

    def test_equality_is_field_wise_and_typed(self, name):
        a = build(name)
        assert a != tuple(RECORDS[name][1].values())
        assert a != object()
        assert build(name, keyword=True) == a

    def test_hash(self, name):
        a, b = build(name), build(name, keyword=True)
        fields = (tuple(v.items()) if isinstance(v, MappingProxyType) else v for v in field_values(name, a).values())
        assert hash(a) == hash(b) == hash(tuple(fields))
        assert len({a, b}) == 1

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        obj = build(name)
        before = repr(obj)
        for field in list(RECORDS[name][1]) + ["not_a_field"]:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(obj, field, 1)
        for field in RECORDS[name][1]:
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(obj, field)
        assert repr(obj) == before

    def test_copy_is_equal(self, name):
        obj = build(name)
        twin = copy.copy(obj)
        assert type(twin) is type(obj)
        assert field_values(name, twin) == field_values(name, obj)
        assert twin == obj

    def test_pickle_round_trip(self, name):
        obj = build(name)
        twin = pickle.loads(pickle.dumps(obj))
        assert type(twin) is type(obj)
        assert field_values(name, twin) == field_values(name, obj)
        assert twin == obj and hash(twin) == hash(obj)
        assert repr(twin) == repr(obj)  # a mapping field is read-only again


def test_reprs():
    assert repr(pp.PowerCap(5)) == "PowerCap(p_max=5.0)"
    assert repr(pp.PowerCap.unlimited()) == "PowerCap(p_max=inf)"
    assert repr(build("SelectionResult")) == (
        "SelectionResult(batch_size=8, frequency_mhz=614.0, estimated_tt_acc=12.5, feasible_count=2, "
        "policy_tag='ours', estimated_energy=3.0)"
    )
    assert repr(build("ComparisonRow")) == (
        "ComparisonRow(p_max_w=4.5, policy_tag='baseline1', batch_size=32, frequency_mhz=307.0, "
        "estimated_tt_acc=3.0, realized_tt_acc=45.0, energy_j=45.0, speedup_vs_baseline1=1.0, status='ok')"
    )
    assert repr(build("RelationVector")) == "RelationVector(entries=mappingproxy({8: 0.5, 32: 1.0}), source_id='proxy')"


def test_normalised_fields_compare_equal():
    # Fields the constructor converts compare after conversion, as stored.
    assert pp.PowerCap(5) == pp.PowerCap(5.0)
    assert build("RelationVector", entries={32: 1, 8: 0.5}) == build("RelationVector")
    assert build("SensitivityMatrix", values=((0,), (12.5,))) == build("SensitivityMatrix")
    assert build("SensitivityMatrix").values == ((0.0,), (12.5,))
    assert build("SelectionResult") != build("SelectionResult", estimated_energy=None)
    # Trace columns are stored as tuples, so a list-built trace hashes like a tuple-built one.
    for name, columns in (("PowerTrace", ("timestamps_s", "power_mw")), ("TimingTrace", ("minibatch_durations",))):
        from_lists = build(name, **{c: list(RECORDS[name][1][c]) for c in columns})
        assert from_lists == build(name) and hash(from_lists) == hash(build(name))
