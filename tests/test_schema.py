"""Each field bound and set of choices is declared once, on its model type,
and the constructor and the document checker read that one declaration."""

import dataclasses
import importlib
import math
import pkgutil
from typing import Callable, NamedTuple, Optional

import pytest

from conftest import scenario_errors
import r2xsim
from r2xsim.linkadapt import PolicySpec
from r2xsim.orchestrator import LoopBudget, fallback_message, validate
from r2xsim.planner import PlanConfig
from r2xsim.radio import McsEntry, McsTable, PathGainMap, RadioConfig
from r2xsim.sensing import PayloadParams, SenseConfig
from r2xsim.world import GridWorld, HumanTrack
from test_scenarios import tiny_followme, tiny_mcs, tiny_warehouse


def declared_bounds():
    """``(model, field)`` for every field of a package dataclass that
    declares a bound or choices, read from the declarations themselves."""
    found = {}
    for info in pkgutil.iter_modules(r2xsim.__path__):
        module = importlib.import_module(f"r2xsim.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                for f in dataclasses.fields(obj):
                    if f.metadata:
                        found[f"{obj.__name__}.{f.name}"] = (obj, f)
    return [found[key] for key in sorted(found)]


BOUNDS = declared_bounds()

# A valid instance of each model with a declared bound, with ``kw`` set.
VALID = {
    GridWorld: lambda **kw: GridWorld(**{"width": 4, "height": 1, **kw}),
    HumanTrack: lambda **kw: HumanTrack([(0, 0)], **kw),
    McsEntry: lambda **kw: McsEntry(**{"index": 0, "rate_bps_per_hz": 1.0, "snr_threshold_db": 0.0, **kw}),
    McsTable: lambda **kw: McsTable((McsEntry(0, 1.0, 0.0),), **kw),
    RadioConfig: RadioConfig,
    PathGainMap: lambda **kw: PathGainMap([[0.0]], **kw),
    PolicySpec: lambda **kw: PolicySpec(**{"kind": "delayed", **kw}),
    PayloadParams: PayloadParams,
    PlanConfig: PlanConfig,
    LoopBudget: lambda **kw: LoopBudget(
        **{"detection_s": 0.1, "encode_s": 0.1, "link_context_s": 0.1, "orchestration_s": 0.1, **kw}
    ),
    # Every mode's own fields set, so that each mode constructs.
    SenseConfig: lambda **kw: SenseConfig(**{"jpeg_quality": 80, "feature_dim": 64, "feature_bits": 8, **kw}),
}

# Models no document sets.
NO_DOCUMENT = (McsEntry, PolicySpec, PayloadParams, SenseConfig)


def warehouse_with_human():
    doc = tiny_warehouse()
    doc["warehouse"]["humans"] = [{"waypoints": [[1, 0]]}]
    return doc


RADIO = [(tiny_warehouse, ("warehouse", "radio")), (tiny_mcs, ("mcs", "radio"))]

def message():
    return fallback_message([1])


class At(NamedTuple):
    """Where a document sets a field."""

    make: Callable  # a valid document
    holder: tuple  # the path of the object holding the field
    key: Optional[str] = None  # the document's key, when it is not the field name
    form: Optional[Callable] = None  # the holder's keys for a value, when not {key: value}


# Where a document sets each field, as the arguments of At.
DOCUMENT = {
    **{(GridWorld, key): [(tiny_warehouse, ("warehouse", "world"))]
       for key in ("width", "height", "frame_period_s", "cell_traverse_s")},
    (HumanTrack, "horizon_frames"): [(warehouse_with_human, ("warehouse", "humans", 0))],
    **{(McsTable, key): RADIO for key in ("bandwidth_hz", "slot_s")},
    # The mcs radio has no target_snr_db: its traces transmit at max_power_dbm.
    (RadioConfig, "target_snr_db"): RADIO[:1],
    **{(RadioConfig, key): RADIO for key in ("max_power_dbm", "max_retx", "noise_dbm")},
    (PathGainMap, "shadowing_rho"): [
        (tiny_warehouse, ("warehouse", "gain")), (tiny_mcs, ("mcs",)), (tiny_followme, ("followme", "noise"), "rho"),
    ],
    (PathGainMap, "shadowing_sigma_db"): [
        (tiny_warehouse, ("warehouse", "gain")), (tiny_mcs, ("mcs",)),
        (tiny_followme, ("followme", "noise"), "sigma_db"),
    ],
    (PlanConfig, "min_time_gap_at_conflict"): [(message, ("pp_config",))],
    (PlanConfig, "objective"): [(message, ("pp_config",))],
    (PlanConfig, "priority_robot"): [
        (message, ("pp_config",), None, lambda v: {"priority_robot": f"robot_{v}"}),
    ],
    (RadioConfig, "fairness"): [(message, ("ra_config",))],
    **{(LoopBudget, key): [(tiny_warehouse, ("warehouse", "budget"))] for key in LoopBudget.__dataclass_fields__},
}


def limit_points(limits):
    """``(value, inside)`` on each side of each limit, each choice and a value
    outside them, and NaN."""
    integer = limits.get("integer", False)

    def step(x, direction):
        return x + direction if integer else math.nextafter(x, direction * math.inf)

    if "lo" in limits:
        yield limits["lo"], True
        yield step(limits["lo"], -1), False
    if "gt" in limits:
        yield limits["gt"], False
        yield step(limits["gt"], 1), True
    if "hi" in limits:
        yield limits["hi"], True
        yield step(limits["hi"], 1), False
    if "lt" in limits:
        yield limits["lt"], False
        yield step(limits["lt"], -1), True
    if "choices" in limits:
        choices = limits["choices"]
        yield from ((choice, True) for choice in choices)
        yield "other", False
        if all(type(choice) is int for choice in choices):
            yield max(choices) + 1, False
        # An equal value of another type is not the choice: 80.0 is not 80,
        # nor (1.0, 2.0) the pair (1, 2).
        for choice in choices:
            if type(choice) is int:
                yield float(choice), False
            elif type(choice) is tuple:
                yield tuple(float(c) for c in choice), False
    yield math.nan, False


def constructor_refuses(model, name, value) -> bool:
    try:
        VALID[model](**{name: value})
    except ValueError as exc:
        assert str(exc).startswith(f"{name} "), exc
        assert " must be " in str(exc) or " is not one of " in str(exc), exc
        return True
    return False


def document_refuses(where: At, key, value) -> bool:
    """Whether the document refuses ``value`` at ``holder.key``; a refusal
    is a line at that field path."""
    doc = where.make()
    obj = doc
    for part in where.holder:
        obj = obj.setdefault(part, {}) if isinstance(part, str) else obj[part]
    obj.update(where.form(value) if where.form else {key: value})
    holder = where.holder
    path = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in (*holder, key))[1:]
    if "schema_version" in doc:
        errors, path = scenario_errors(doc), f"scenario.{path}"
    else:
        errors = validate(doc)[1]
    return any(e.startswith(f"{path}: ") for e in errors)


def documents(model, field):
    """``(At, key)`` for each document place that sets ``model.field``."""
    for entry in DOCUMENT.get((model, field.name), ()):
        where = At(*entry)
        yield where, where.key or field.name


def test_every_bounded_model_is_covered():
    models = {model for model, _ in BOUNDS}
    assert models == set(VALID)
    documented = {(model, f.name) for model, f in BOUNDS if model not in NO_DOCUMENT}
    assert documented == set(DOCUMENT)


@pytest.mark.parametrize("model,field", BOUNDS, ids=[f"{m.__name__}.{f.name}" for m, f in BOUNDS])
def test_constructor_and_document_agree_at_each_limit(model, field):
    """On each side of each declared limit, at each choice and outside them,
    and at NaN, the constructor and every document field that sets it both
    accept or both refuse."""
    for value, inside in limit_points(field.metadata):
        refused = constructor_refuses(model, field.name, value)
        assert refused is not inside, (field.name, value)
        for where, key in documents(model, field):
            assert document_refuses(where, key, value) is refused, (where, key, value)


@pytest.mark.parametrize("model,field", BOUNDS, ids=[f"{m.__name__}.{f.name}" for m, f in BOUNDS])
def test_none_only_where_the_default_is_none(model, field):
    """A constructor takes None exactly for a field whose default is None; a
    document never takes null, as null is not absence."""
    if field.default is None:
        assert not constructor_refuses(model, field.name, None)
    else:
        with pytest.raises((ValueError, TypeError)):
            VALID[model](**{field.name: None})
    for where, key in documents(model, field):
        assert document_refuses(where, key, None), (where, key)


@pytest.mark.parametrize("value", [-1, "x", 2.5, 10**18])
def test_priority_robot_bound(value):
    assert constructor_refuses(PlanConfig, "priority_robot", value)


def test_bound_messages():
    """The declared bound is named in the document's words, with the
    declared limit as written."""
    doc = tiny_mcs()
    doc["mcs"].update(shadowing_rho=1.0, bler_target=1.5, radio={"slot_s": 0, "bandwidth_hz": 0.5, "max_retx": 65})
    assert scenario_errors(doc) == [
        "scenario.mcs.shadowing_rho: 1.0 must be in [0, 1)",
        "scenario.mcs.bler_target: 1.5 must be in (0, 1)",
        "scenario.mcs.radio.max_retx: 65 must be <= 64",
        "scenario.mcs.radio.bandwidth_hz: 0.5 must be >= 1.0",
        "scenario.mcs.radio.slot_s: 0 must be > 0.0",
    ]
    with pytest.raises(ValueError, match=r"^max_retx 100 must be <= 64$"):
        RadioConfig(max_retx=100)
    with pytest.raises(ValueError, match=r"^min_time_gap_at_conflict 1\.5 must be an integer$"):
        PlanConfig(min_time_gap_at_conflict=1.5)
    with pytest.raises(ValueError, match=r"^shadowing_rho 1\.0 must be in \[0, 1\)$"):
        PathGainMap([[0.0]], shadowing_rho=1.0)
    with pytest.raises(ValueError, match=r"^bler_target 1\.5 must be in \(0, 1\)$"):
        McsTable((McsEntry(0, 1.0, 0.0),)).cutoffs(1.5)


def test_choice_messages():
    """A choice field names its choices in their declared order, in the
    constructor and at the document path."""
    with pytest.raises(ValueError, match=r"^mode 'video' is not one of \('raw', 'jpeg', 'semantic_feature', 'vq'\)$"):
        SenseConfig(mode="video")
    with pytest.raises(ValueError, match=r"^jpeg_quality None is not one of \(95, 80, 60\)$"):
        SenseConfig(mode="jpeg")
    msg = message()
    msg["ra_config"]["fairness"] = "equal"
    assert validate(msg)[1] == ["ra_config.fairness: 'equal' is not one of ('max_min', 'proportional')"]


def test_priority_weight_messages():
    """The priority-weight rule is one rule: the constructor names the first
    of the document's reasons."""
    with pytest.raises(ValueError, match=r"^priority_weights \(\): must be a nonempty list of finite numbers$"):
        RadioConfig(priority_weights=())
    with pytest.raises(ValueError, match=r"^priority_weights \(0\.5, True\): must be a nonempty list"):
        RadioConfig(priority_weights=(0.5, True))
    with pytest.raises(ValueError, match=r"^priority_weights \(0\.6, 0\.6\): sum 1\.2 != 1 \(tolerance 1e-06\)$"):
        RadioConfig(priority_weights=(0.6, 0.6))
