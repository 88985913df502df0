"""Registry round-trip: every registered scheme survives
``config() -> scheduler_from_config -> config()`` byte-identically.

The policy kernel assembles each scheme's config mapping from its
policies' ``config_fragment()`` dicts in axis order (queue, reservation,
backfill, preemption), and the grid executor, result cache and worker
dispatch all key on the JSON rendering of that mapping.  A scheme whose
rebuilt config differs -- even only in key order -- would silently miss
its own cache entries and break trace provenance, so the contract here
is *byte* equality of the sorted-less JSON dump, not just dict equality.

Two layers:

* every registered scheme id builds from a bare ``{"scheme": id}``
  config (builder defaults) and round-trips;
* a Hypothesis sweep draws constructor parameters per scheme family
  (integers as well as floats for the float parameters, which each
  table entry coerces once) and round-trips the parameterised configs,
  with an exhaustiveness guard that fails when a scheme or a parameter
  joins the table without a strategy.

Unknown config keys are rejected, never dropped: a config the cache
hashes must describe the run that produced the cached result.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.parallel import GridCell
from repro.schedulers.policy import PolicyKernel
from repro.schedulers.registry import (
    known_schemes,
    make_scheduler,
    scheduler_from_config,
    scheme_params,
)
from repro.workload.categories import SIXTEEN_WAY_CATEGORIES


def _json(config: dict[str, object]) -> str:
    # insertion order preserved: this is the byte stream cache keys see
    return json.dumps(config)


@pytest.mark.parametrize("scheme", known_schemes())
def test_default_config_round_trips(scheme: str) -> None:
    first = scheduler_from_config({"scheme": scheme})
    config = dict(first.config())
    rebuilt = scheduler_from_config(config)
    assert _json(dict(rebuilt.config())) == _json(config), (
        f"{scheme}: rebuilt config differs from the original"
    )


@pytest.mark.parametrize("scheme", known_schemes())
def test_kernel_schemes_compose_config_from_spec(scheme: str) -> None:
    """PolicyKernel schemes must get their config from the spec -- the
    one place that fixes fragment merge order."""
    scheduler = scheduler_from_config({"scheme": scheme})
    if not isinstance(scheduler, PolicyKernel):
        pytest.skip(f"{scheme} is not kernel-composed (legacy scheduler)")
    assert dict(scheduler.config()) == dict(scheduler.spec.config())
    assert scheduler.scheme_id == scheme


def _number(lo: float, hi: float) -> st.SearchStrategy:
    """Floats in [lo, hi], or integers there: entries coerce either."""
    return st.one_of(
        st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False),
        st.integers(min_value=int(lo), max_value=int(hi)),
    )


_LIMITS = st.one_of(
    st.builds(lambda m: {"mode": "online", "margin": m}, _number(1.0, 3.0)),
    st.builds(
        lambda m, table: {"mode": "calibrated", "margin": m, "table": table},
        _number(1.0, 3.0),
        st.dictionaries(
            st.sampled_from([f"{run}|{width}" for run, width in SIXTEEN_WAY_CATEGORIES]),
            _number(1.0, 100.0),
        ),
    ),
)

#: the parameters that are integers, not floats, in every table entry
_INT_PARAMS = {"max_kills"}

_SWEEP_PARAMS = {
    "suspension_factor": _number(1.0, 10.0),
    "preemption_interval": _number(1.0, 3600.0),
    "width_rule": st.booleans(),
}

#: scheme id -> config-key strategies; must cover known_schemes() exactly
SCHEME_PARAMS: dict[str, dict[str, st.SearchStrategy]] = {
    "fcfs": {},
    "easy": {},
    "conservative": {},
    "relaxed": {"relaxation": _number(0.0, 1.0)},
    "speculative": {
        "speculation_window": _number(1.0, 7200.0),
        "max_kills": st.integers(min_value=0, max_value=10),
    },
    "gang": {"quantum": _number(1.0, 7200.0)},
    "is": {
        "timeslice": _number(1.0, 7200.0),
        "sweep_interval": _number(1.0, 3600.0),
    },
    "ss": dict(_SWEEP_PARAMS),
    "tss": {**_SWEEP_PARAMS, "limits": _LIMITS},
    "ss-easy": dict(_SWEEP_PARAMS),
    "tss-conservative": {**_SWEEP_PARAMS, "limits": _LIMITS},
}


def test_strategy_table_covers_every_registered_scheme() -> None:
    assert set(SCHEME_PARAMS) == set(known_schemes()), (
        "a scheme registered without round-trip strategies (or one was "
        "removed without pruning SCHEME_PARAMS)"
    )
    for scheme, strategies in SCHEME_PARAMS.items():
        assert set(strategies) == set(scheme_params(scheme)), (
            f"{scheme}: strategy keys differ from the table entry's parameters"
        )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parameterised_config_round_trips(data: st.DataObject) -> None:
    scheme = data.draw(st.sampled_from(sorted(SCHEME_PARAMS)), label="scheme")
    config: dict[str, object] = {"scheme": scheme}
    for key, strategy in SCHEME_PARAMS[scheme].items():
        config[key] = data.draw(strategy, label=key)
    first = scheduler_from_config(config)
    emitted = dict(first.config())
    for key, value in config.items():
        assert emitted[key] == value, f"{scheme}: constructor dropped {key}"
    rebuilt = scheduler_from_config(emitted)
    assert _json(dict(rebuilt.config())) == _json(emitted)
    # an integer drawn for a float parameter builds the bytes of its float
    as_floats = {
        k: float(v) if type(v) is int and k not in _INT_PARAMS else v
        for k, v in config.items()
    }
    assert _json(dict(scheduler_from_config(as_floats).config())) == _json(emitted)


def test_integer_params_dump_like_floats() -> None:
    assert _json(make_scheduler("ss", suspension_factor=2).config()) == _json(
        make_scheduler("ss", suspension_factor=2.0).config()
    )
    rebuilt = scheduler_from_config(make_scheduler("ss", suspension_factor=2).config())
    assert _json(rebuilt.config()) == _json(make_scheduler("ss").config())


@pytest.mark.parametrize(
    "config",
    [
        {"scheme": "ss", "suspension_factr": 5.0},
        {"scheme": "easy", "suspension_factor": 5.0},
    ],
)
def test_unknown_config_keys_are_rejected(config: dict[str, object]) -> None:
    scheme = str(config["scheme"])
    with pytest.raises(ValueError, match=f"scheme {scheme!r} has no parameter") as err:
        scheduler_from_config(config)
    for param in scheme_params(scheme):
        assert param in str(err.value)
    # a grid cell fails the same check before it is ever fingerprinted
    with pytest.raises(ValueError, match="has no parameter"):
        GridCell(key="bad", jobs=[], n_procs=8, scheduler_config=config)


def test_aliases_build_but_never_enter_configs() -> None:
    assert make_scheduler("ns").config() == {"scheme": "easy"}
    with pytest.raises(ValueError, match="unknown scheme 'ns'"):
        scheduler_from_config({"scheme": "ns"})
