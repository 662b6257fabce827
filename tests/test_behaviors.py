"""Behavior rules: binding, threshold/signal triggers, same-tick chains,
and effect application."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artjoint as aj
from artjoint import behaviors as bh
from artjoint.assets import raise_on_issues

from conftest import load_assembly, make_joint


def mini_assembly(aid, joints=(), behaviors=(), module_ids=("base", "rod")):
    modules = tuple(
        aj.RigidModule(id=m, mass=1.0, rest_pose=aj.Pose(), markers=(), affordance_label="")
        for m in module_ids
    )
    return aj.Assembly(
        id=aid,
        root_module=module_ids[0],
        modules=modules,
        joints=tuple(joints),
        behaviors=tuple(behaviors),
        category="",
        base_frame=aj.Pose(),
    )


def press_rule(effects):
    return aj.BehaviorRule(
        id="press",
        trigger=aj.ThresholdCrossed(joint="j", value=0.005, direction="rising"),
        effects=tuple(effects),
    )


# ---------------------------------------------------------------------------
# binding


def test_bind_qualifies_references(microwave):
    rules = aj.bind({"microwave": microwave})
    assert len(rules) == 1
    rule = rules[0]
    assert rule.id == "microwave/release-latch-on-press"
    assert rule.trigger.joint == "microwave/button"
    assert rule.effects == (
        aj.SetOpenState(joint="microwave/door", value=True),
        aj.SetFixedTarget(joint="microwave/door", q_target=1.5),
    )


def test_bind_rejects_unknown_trigger_joint():
    rule = aj.BehaviorRule(
        id="r",
        trigger=aj.ThresholdCrossed(joint="ghost", value=0.0, direction="rising"),
        effects=(aj.EmitSignal(name="s"),),
    )
    with pytest.raises(aj.UnresolvedReferenceError, match="ghost"):
        aj.bind({"a": mini_assembly("a", behaviors=[rule])})


def test_bind_rejects_unknown_effect_joint():
    rule = aj.BehaviorRule(
        id="r",
        trigger=aj.SignalReceived(name="s"),
        effects=(aj.SetOpenState(joint="ghost", value=True),),
    )
    with pytest.raises(aj.UnresolvedReferenceError, match="ghost"):
        aj.bind({"a": mini_assembly("a", behaviors=[rule])})


def test_bind_rejects_empty_effects():
    rule = aj.BehaviorRule(id="r", trigger=aj.SignalReceived(name="s"), effects=())
    with pytest.raises(aj.UnresolvedReferenceError, match="no effects"):
        aj.bind({"a": mini_assembly("a", behaviors=[rule])})


# the field of each rule part that names a joint or module of its assembly,
# declared apart from bh.REFERENCE_FIELDS so that a field the table misses fails
REFERENCE_FIELD = {
    aj.ThresholdCrossed: "joint",
    aj.SetOpenState: "joint",
    aj.SetFixedTarget: "joint",
    aj.SetProperty: "target",
}


def test_validate_and_bind_agree_on_rule_references():
    checked = 0
    for name in ("drawer", "microwave", "oven", "trashcan"):
        assembly = load_assembly(name)
        # one more effect per rule so that a module reference is covered too
        flag = aj.SetProperty(target=assembly.root_module, key="seen", value=True)
        rules = tuple(replace(r, effects=r.effects + (flag,)) for r in assembly.behaviors)
        assembly = replace(assembly, behaviors=rules)
        assert aj.validate(assembly).ok
        aj.bind({name: assembly})
        for i, rule in enumerate(rules):
            variants = [(f"behaviors[{i}]", "empty-effects", "no effects", replace(rule, effects=()))]
            trigger = rule.trigger
            ghost = replace(trigger, **{REFERENCE_FIELD[type(trigger)]: "ghost"})
            variants.append((f"behaviors[{i}].trigger", "unresolved-reference", "ghost", replace(rule, trigger=ghost)))
            for k, effect in enumerate(rule.effects):
                effects = list(rule.effects)
                effects[k] = replace(effect, **{REFERENCE_FIELD[type(effect)]: "ghost"})
                variants.append(
                    (f"behaviors[{i}].effects[{k}]", "unresolved-reference", "ghost", replace(rule, effects=tuple(effects)))
                )
            for path, code, text, bad_rule in variants:
                bad = replace(assembly, behaviors=rules[:i] + (bad_rule,) + rules[i + 1 :])
                assert [(issue.code, issue.path) for issue in aj.validate(bad)] == [(code, path)]
                with pytest.raises(aj.UnresolvedReferenceError, match=text):
                    raise_on_issues(aj.validate(bad))
                with pytest.raises(aj.UnresolvedReferenceError, match=text):
                    aj.bind({name: bad})
                checked += 1
    assert checked == 10  # two fixture rules, each with a trigger and three effects


# ---------------------------------------------------------------------------
# threshold crossing semantics


def crossing_fires(direction, prev, new, value=0.005):
    return bh.first_crossing(aj.ThresholdCrossed(joint="j", value=value, direction=direction), [prev, new]) == 1


def test_rising_crossing():
    assert crossing_fires("rising", 0.004, 0.006)
    assert crossing_fires("rising", 0.004, 0.005)  # lands exactly on the value
    assert not crossing_fires("rising", 0.005, 0.006)  # started on the value
    assert not crossing_fires("rising", 0.004, 0.0045)
    assert not crossing_fires("rising", 0.006, 0.004)  # wrong direction


def test_falling_crossing():
    assert crossing_fires("falling", 0.006, 0.004)
    assert crossing_fires("falling", 0.006, 0.005)
    assert not crossing_fires("falling", 0.005, 0.004)
    assert not crossing_fires("falling", 0.004, 0.006)


def test_holding_past_threshold_fires_exactly_once():
    trigger = press_rule([]).trigger
    qs = [0.0, 0.004, 0.006, 0.007, 0.008, 0.003, 0.009]  # one dip, re-cross
    fired = [k for k in range(1, len(qs)) if bh.first_crossing(trigger, qs[k - 1 : k + 1])]
    assert fired == [2, 6]  # once on the way up, once after dipping back below
    assert bh.first_crossing(trigger, np.array(qs)) == 2
    assert bh.first_crossing(trigger, np.array(qs[2:])) == 4  # held past it: only the re-cross


# a float that may sit on either side of the threshold, on it, or be no number
crossing_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 0.005, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(prev=crossing_floats, new=crossing_floats, value=crossing_floats, direction=st.sampled_from(bh.DIRECTIONS))
def test_the_two_forms_of_first_crossing_agree(prev, new, value, direction):
    trigger = aj.ThresholdCrossed(joint="j", value=value, direction=direction)
    for a, b in ((prev, new), (prev, value), (value, new), (value, value)):
        assert bh.first_crossing(trigger, [a, b]) == bh.first_crossing(trigger, np.array([a, b]))


def crossed(rules, prev, new):
    """The threshold rules of ``rules`` whose trigger crosses from ``prev``
    to ``new``, in rule order, as the scenario runtime picks them."""
    thresholds = (r for r in rules if isinstance(r.trigger, aj.ThresholdCrossed))
    return [r for r in thresholds if bh.first_crossing(r.trigger, [prev, new])]


# ---------------------------------------------------------------------------
# signal chains


def relay_assembly():
    """a: threshold -> s1;  b: s1 -> s2;  c: s2 -> property write."""
    a = mini_assembly(
        "a",
        joints=[make_joint(id="j")],
        behaviors=[press_rule([aj.EmitSignal(name="s1")])],
    )
    b = mini_assembly(
        "b",
        behaviors=[
            aj.BehaviorRule(id="relay", trigger=aj.SignalReceived(name="s1"), effects=(aj.EmitSignal(name="s2"),))
        ],
        module_ids=("hub",),
    )
    c = mini_assembly(
        "c",
        behaviors=[
            aj.BehaviorRule(
                id="lamp-on",
                trigger=aj.SignalReceived(name="s2"),
                effects=(aj.SetProperty(target="lamp", key="on", value=True),),
            )
        ],
        module_ids=("lamp",),
    )
    return aj.bind({"a": a, "b": b, "c": c})


def test_signal_chain_resolves_within_one_tick():
    rules = relay_assembly()
    effects, records = bh.evaluate(rules, crossed(rules, 0.004, 0.006), t=0.002)
    assert effects == [aj.SetProperty(target="c/lamp", key="on", value=True)]
    triggers = [r.rule_id for r in records if r.kind == "trigger"]
    assert triggers == ["a/press", "b/relay", "c/lamp-on"]
    assert all(r.t == 0.002 for r in records)

    properties = {}
    bh.apply(effects, {}, properties)
    assert properties == {"c/lamp.on": True}


def test_no_crossing_means_no_records():
    rules = relay_assembly()
    effects, records = bh.evaluate(rules, crossed(rules, 0.001, 0.002), t=0.001)
    assert effects == []
    assert records == []


def test_signal_loop_raises():
    assembly = mini_assembly(
        "a",
        joints=[make_joint(id="j")],
        behaviors=[
            press_rule([aj.EmitSignal(name="ping")]),
            aj.BehaviorRule(id="echo", trigger=aj.SignalReceived(name="ping"), effects=(aj.EmitSignal(name="ping"),)),
        ],
    )
    rules = aj.bind({"a": assembly})
    with pytest.raises(aj.SignalLoopError, match="depth cap 16"):
        bh.evaluate(rules, crossed(rules, 0.004, 0.006), t=0.0)


def test_deep_but_finite_chain_is_fine():
    rules = [press_rule([aj.EmitSignal(name="s0")])]
    rules.extend(
        aj.BehaviorRule(id=f"hop{i}", trigger=aj.SignalReceived(name=f"s{i}"), effects=(aj.EmitSignal(name=f"s{i+1}"),))
        for i in range(14)
    )
    rules.append(
        aj.BehaviorRule(id="end", trigger=aj.SignalReceived(name="s14"), effects=(aj.SetOpenState(joint="j", value=True),))
    )
    bound = aj.bind({"a": mini_assembly("a", joints=[make_joint(id="j")], behaviors=rules)})
    effects, _ = bh.evaluate(bound, crossed(bound, 0.0, 0.01), t=0.0)
    assert effects == [aj.SetOpenState(joint="a/j", value=True)]


# ---------------------------------------------------------------------------
# applying effects


def test_apply_writes_joint_state_and_is_idempotent():
    state = aj.JointState(q=0.1, held_target=0.0)
    states, props = {"a/j": state}, {}
    effects = [aj.SetOpenState(joint="a/j", value=True), aj.SetFixedTarget(joint="a/j", q_target=1.5)]
    assert bh.apply(effects, states, props) is None
    assert states["a/j"] is state  # written in place
    assert state.s_open is True
    assert state.held_target == 1.5
    assert state.q == 0.1
    once = replace(state)
    bh.apply(effects, states, props)
    assert state == once


def test_apply_ignores_emit_signal():
    states, props = {"a/j": aj.JointState(q=0.0)}, {}
    bh.apply([aj.EmitSignal(name="s")], states, props)
    assert states == {"a/j": aj.JointState(q=0.0)}
    assert props == {}


def test_evaluate_is_pure_and_deterministic():
    rules = relay_assembly()
    fired = crossed(rules, 0.004, 0.006)
    assert [r.id for r in fired] == ["a/press"]
    first = bh.evaluate(rules, fired, t=0.5)
    second = bh.evaluate(rules, fired, t=0.5)
    assert first == second
    assert [r.id for r in fired] == ["a/press"]
    assert rules == relay_assembly()


def test_event_log_counting():
    log = bh.EventLog()
    rules = relay_assembly()
    _, records = bh.evaluate(rules, crossed(rules, 0.004, 0.006), t=0.0)
    log.extend(records)
    assert log.count_effects("set_property") == 1
    assert log.count_effects("emit_signal") == 2
    assert log.count_effects("set_open_state") == 0
    assert len(log) == 6  # three triggers + three effects
