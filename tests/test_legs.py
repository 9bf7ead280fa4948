"""tools/legs.py: per-leg round times of a workload, checked on a small pool."""

import importlib.util
import json
import os

from rootmean import evaluator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("legs", os.path.join(ROOT, "tools", "legs.py"))
legs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(legs)


def test_sweep_legs_on_a_two_query_pool():
    import rootmean

    calls = legs.bench_module(ROOT, "worker")._calls(rootmean)
    names = [*legs.LEGS["sweep"], "evaluator._no_such_leg"]
    before = {name: getattr(evaluator, name.split(".")[1], None) for name in names}
    result = legs.time_legs(rootmean, calls, [["sweep", 3000], ["sweep", 70000]], names, 2)
    assert result["rounds"] == 2 and result["queries"] == 2
    assert result["absent"] == ["evaluator._no_such_leg"] and result["uncalled"] == []
    times = result["legs"]
    assert sorted(times) == sorted(legs.LEGS["sweep"])
    # each leg ran once per query and round: no block reads another floor,
    # so each sweep makes one oracle pass
    assert all(ms > 0 for ms in times.values()) and result["round_ms"] > 0
    assert result["calls"] == dict.fromkeys(legs.LEGS["sweep"], 2)
    # every wrapper is taken off again
    assert {name: getattr(evaluator, name.split(".")[1], None) for name in names} == before


def test_closed_form_legs_on_a_three_query_pool():
    import rootmean

    calls = legs.bench_module(ROOT, "worker")._calls(rootmean)
    pool = [["enc", 1, 100, 2.0], ["enc", 10 ** 6, 10 ** 15, 2.0], ["enc", 1, 1000, 3.0]]
    result = legs.time_legs(rootmean, calls, pool, legs.LEGS["closed_form"], 2)
    assert result["queries"] == 3 and result["absent"] == []
    times = result["legs"]
    # every leg ran
    assert sorted(times) == sorted(legs.LEGS["closed_form"])
    assert all(ms > 0 for ms in times.values()) and result["round_ms"] > 0
    # per round: two square-root enclosures, each S(n) - S(nu - 1) (S(0),
    # the empty sum, read too), and two libm powers for the one r = 3 query
    assert result["calls"] == {
        "asymptotic.partial_sum_sqrt_enclosure": 2,
        "_scaled.partial_sum_enc": 4,
        "asymptotic._pow_value": 2,
    }


def test_a_leg_reached_only_through_another_binding_is_uncalled():
    # evaluator binds asymptotic's _round_up by name, so fast_mean's
    # readout reaches it through evaluator only: named where it is defined,
    # the leg reads no call and is listed as uncalled
    import rootmean

    calls = legs.bench_module(ROOT, "worker")._calls(rootmean)
    names = ["asymptotic._round_up", "evaluator._round_up"]
    pool = [["mean", 100, 1e-9], ["mean", 10 ** 6, 1e-12]]
    result = legs.time_legs(rootmean, calls, pool, names, 2)
    assert result["absent"] == [] and result["uncalled"] == ["asymptotic._round_up"]
    # _certify rounds up the bound and the budget's three shares
    assert result["calls"] == {"asymptotic._round_up": 0, "evaluator._round_up": 8}
    assert result["legs"]["asymptotic._round_up"] == 0 < result["legs"]["evaluator._round_up"]


def test_no_leg_pays_for_another_legs_wrapper(monkeypatch):
    # each leg is replaced by a spy that, when reached through its own
    # wrapper, records which legs are wrapped at that moment
    import rootmean

    calls = legs.bench_module(ROOT, "worker")._calls(rootmean)
    attrs = [name.split(".")[1] for name in legs.LEGS["sweep"]]
    spies, seen = {}, set()

    def wrapped() -> tuple:
        return tuple(a for a in attrs if getattr(evaluator, a) is not spies[a])

    for attr in attrs:
        def spy(*args, _attr=attr, _fn=getattr(evaluator, attr), **kwargs):
            if getattr(evaluator, _attr) is not spies[_attr]:
                seen.add((_attr, wrapped()))
            return _fn(*args, **kwargs)

        spies[attr] = spy
        monkeypatch.setattr(evaluator, attr, spy)
    legs.time_legs(rootmean, calls, [["sweep", 3000]], legs.LEGS["sweep"], 2)
    # every leg ran under its wrapper, and no other wrapper was installed
    assert seen == {(attr, (attr,)) for attr in attrs}
    assert all(getattr(evaluator, attr) is spies[attr] for attr in attrs)


def test_cli_prints_one_json_line(capsys):
    assert legs.main(["--workload", "mean_loose", "--seed", "3", "--rounds", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["workload"], out["seed"], out["rounds"]) == ("mean_loose", 3, 1)
    assert sorted(out["legs"]) == sorted(legs.MEAN_LEGS) and out["absent"] == []
    # the worker reads no decimal_value, so the lazy rendering never runs
    assert out["uncalled"] == ["evaluator._shortest_roundtrip"]
    assert sorted(out["calls"]) == sorted(legs.MEAN_LEGS)
    assert all(isinstance(n, int) and n >= 0 for n in out["calls"].values())
    assert out["round_ms"] > 0
