"""Edge-triggered behavior rules: triggers, effects, binding, and same-tick
evaluation.

Rules live inside an assembly (they serialize with it) and reference that
assembly's joints/modules by bare id. The table ``REFERENCE_FIELDS`` and the
checker ``rule_issues`` (section "references and binding" below) are the one
rule for those references: ``assets.validate`` reports every issue and
``bind`` raises on the first, then qualifies every reference with the
assembly's scenario name (``"microwave/door_hinge"``), which is what lets one
assembly's rule listen to a signal another assembly emits.

Trigger/effect evaluation is deliberately simple and deterministic:

* ``ThresholdCrossed`` fires on the sign of the crossing between the previous
  and the new sample of a joint's position — rising when
  ``prev < value <= new``, falling when ``prev > value >= new``. Holding a
  joint past the threshold therefore fires exactly once until it re-crosses
  in the opposite direction. :func:`first_crossing` is that test, which the
  scenario runtime runs; :func:`evaluate` is handed the rules that fire.
* ``SignalReceived`` fires within the same tick as the emit, resolved in
  waves; a chain deeper than 16 waves raises :class:`SignalLoopError`.
* Effects are collected during evaluation and applied after the physics step
  of the tick in which they fired; every effect is an idempotent in-place
  assignment, and :func:`apply` is the rules' only contact with joint state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Container, Iterable, Iterator, Mapping, Union

import numpy as np

from .errors import SignalLoopError, UnresolvedReferenceError

SIGNAL_CHAIN_DEPTH_CAP = 16

# --------------------------------------------------------------------------
# rule datatypes (these serialize inside asset files under behaviors[])


@dataclass(frozen=True)
class ThresholdCrossed:
    """Fires when a joint's position crosses ``value`` in ``direction``."""

    joint: str
    value: float
    direction: str  # one of DIRECTIONS


@dataclass(frozen=True)
class SignalReceived:
    """Fires when a named signal was emitted earlier in the same tick."""

    name: str


Trigger = Union[ThresholdCrossed, SignalReceived]
DIRECTIONS = ("rising", "falling")


@dataclass(frozen=True)
class SetOpenState:
    """Set a joint's open flag (the latch-policy discriminator)."""

    joint: str
    value: bool


@dataclass(frozen=True)
class SetFixedTarget:
    """Replace a joint's held drive target (the latch hysteresis memory)."""

    joint: str
    q_target: float


@dataclass(frozen=True)
class EmitSignal:
    name: str


@dataclass(frozen=True)
class SetProperty:
    """Write a scalar/flag into a module's property bag (no physics effect)."""

    target: str  # module id (bare in a rule, "assembly/module" once bound)
    key: str
    value: Union[float, bool]


Effect = Union[SetOpenState, SetFixedTarget, EmitSignal, SetProperty]

# the "type" tag of each trigger and effect in asset files and event records
TRIGGER_TYPES = {"threshold_crossed": ThresholdCrossed, "signal_received": SignalReceived}
EFFECT_TYPES = {
    "set_open_state": SetOpenState,
    "set_fixed_target": SetFixedTarget,
    "emit_signal": EmitSignal,
    "set_property": SetProperty,
}
_TYPE_NAME = {cls: tag for types in (TRIGGER_TYPES, EFFECT_TYPES) for tag, cls in types.items()}


@dataclass(frozen=True)
class BehaviorRule:
    id: str
    trigger: Trigger
    effects: tuple[Effect, ...]


# --------------------------------------------------------------------------
# event log


@dataclass(frozen=True)
class EventRecord:
    """One fired trigger or one applied effect, timestamped with the end of
    the tick in which it happened."""

    t: float
    kind: str  # "trigger" | "effect"
    rule_id: str  # qualified "assembly/rule"
    detail: str
    effect_type: str = ""  # a key of EFFECT_TYPES; empty for triggers


@dataclass
class EventLog:
    records: list[EventRecord] = field(default_factory=list)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def count_effects(self, effect_type: str) -> int:
        return sum(1 for r in self.records if r.kind == "effect" and r.effect_type == effect_type)

    def extend(self, records: Iterable[EventRecord]) -> None:
        self.records.extend(records)


# --------------------------------------------------------------------------
# references and binding


# the field of each trigger and effect type that names a joint or a module of
# the rule's own assembly, and which of the two it names
REFERENCE_FIELDS = {
    ThresholdCrossed: ("joint", "joint"),
    SetOpenState: ("joint", "joint"),
    SetFixedTarget: ("joint", "joint"),
    SetProperty: ("target", "module"),
}


def rule_issues(rule: BehaviorRule, joints: Container[str], modules: Container[str]) -> Iterator[tuple[str, str, str]]:
    """Yield ``(code, path suffix, message)`` for an empty effect list and for
    each reference to an id not in ``joints``/``modules``, the ids of the
    rule's own assembly. A suffix is ``""``, ``".trigger"`` or ``".effects[k]"``."""
    if not rule.effects:
        yield "empty-effects", "", f"rule '{rule.id}' has no effects"
    known = {"joint": joints, "module": modules}
    parts = {".trigger": rule.trigger, **{f".effects[{k}]": e for k, e in enumerate(rule.effects)}}
    for suffix, part in parts.items():
        name, kind = REFERENCE_FIELDS.get(type(part), ("", ""))
        if name and getattr(part, name) not in known[kind]:
            yield "unresolved-reference", suffix, f"rule '{rule.id}' references unknown {kind} '{getattr(part, name)}'"


def _qualify(part: Union[Trigger, Effect], name: str) -> Union[Trigger, Effect]:
    """``part`` with its reference, if it has one, qualified as ``name/...``."""
    field_name, _ = REFERENCE_FIELDS.get(type(part), ("", ""))
    if not field_name:
        return part
    return replace(part, **{field_name: f"{name}/{getattr(part, field_name)}"})


def bind(assemblies: Mapping[str, "object"]) -> tuple[BehaviorRule, ...]:
    """Compile the rules of all placed assemblies into one rule set.

    ``assemblies`` maps scenario-level name -> Assembly; each returned rule's
    id and references are qualified as ``assembly/...``. Raises
    :class:`UnresolvedReferenceError` when a rule references a joint/module
    its own assembly does not define, or when an effect list is empty.
    """
    rules: list[BehaviorRule] = []
    for name, assembly in assemblies.items():
        joints = {j.id for j in assembly.joints}
        modules = {m.id for m in assembly.modules}
        for i, rule in enumerate(assembly.behaviors):
            for _code, suffix, message in rule_issues(rule, joints, modules):
                raise UnresolvedReferenceError(f"assembly '{name}' behaviors[{i}]{suffix}: {message}")
            effects = tuple(_qualify(e, name) for e in rule.effects)
            rules.append(BehaviorRule(id=f"{name}/{rule.id}", trigger=_qualify(rule.trigger, name), effects=effects))
    return tuple(rules)


# --------------------------------------------------------------------------
# evaluation and application


def first_crossing(trigger: ThresholdCrossed, q: "list[float] | np.ndarray") -> "int | None":
    """The first ``i >= 1`` where the step from ``q[i - 1]`` to ``q[i]`` crosses
    ``trigger.value`` in its direction (see the module doc), or None.

    ``q`` is a runtime segment's float64 series or, for a one-tick segment,
    the list ``[prev, new]``, tested in plain floats."""
    value, rising = trigger.value, trigger.direction == "rising"
    if isinstance(q, list):
        prev, new = q
        return 1 if (prev < value <= new if rising else prev > value >= new) else None
    prev, new = q[:-1], q[1:]
    hit = (prev < value) & (value <= new) if rising else (prev > value) & (value >= new)
    return int(hit.argmax()) + 1 if hit.any() else None


def _describe(effect: Effect) -> tuple[str, str]:
    """The effect's type name and its event-log detail."""
    if isinstance(effect, SetOpenState):
        what = f"{effect.joint} <- {effect.value}"
    elif isinstance(effect, SetFixedTarget):
        what = f"{effect.joint} <- {effect.q_target}"
    elif isinstance(effect, EmitSignal):
        what = effect.name
    else:
        what = f"{effect.target}.{effect.key} <- {effect.value}"
    effect_type = _TYPE_NAME[type(effect)]
    return effect_type, f"{effect_type} {what}"


def evaluate(rules: tuple[BehaviorRule, ...], fired: Iterable[BehaviorRule], t: float) -> tuple[list[Effect], list[EventRecord]]:
    """Fire ``fired``, the threshold rules whose trigger crosses in the step
    ending at ``t`` (the caller's :func:`first_crossing` test), in rule
    order, then the ``SignalReceived`` rules of the bound ``rules`` (from
    :func:`bind`) that their emits reach, wave by wave.

    Returns the effects to apply (EmitSignal is consumed here, not returned)
    and the log records, ordered rule-by-rule in firing order. Pure: it reads
    no joint state and touches nothing.
    """
    effects: list[Effect] = []
    records: list[EventRecord] = []
    wave: list[str] = []

    def fire(rule: BehaviorRule, why: str) -> None:
        records.append(EventRecord(t=t, kind="trigger", rule_id=rule.id, detail=why))
        for effect in rule.effects:
            effect_type, detail = _describe(effect)
            records.append(
                EventRecord(t=t, kind="effect", rule_id=rule.id, detail=detail, effect_type=effect_type)
            )
            if isinstance(effect, EmitSignal):
                if effect.name not in wave:
                    wave.append(effect.name)
            else:
                effects.append(effect)

    for rule in fired:
        trig = rule.trigger
        fire(rule, f"{_TYPE_NAME[ThresholdCrossed]} {trig.joint} {trig.direction} {trig.value}")

    depth = 0
    while wave:
        depth += 1
        if depth > SIGNAL_CHAIN_DEPTH_CAP:
            raise SignalLoopError(
                f"signal chain exceeded depth cap {SIGNAL_CHAIN_DEPTH_CAP} at t={t}: {wave}"
            )
        current, wave = wave, []
        for rule in rules:
            trig = rule.trigger
            if isinstance(trig, SignalReceived) and trig.name in current:
                fire(rule, f"{_TYPE_NAME[SignalReceived]} {trig.name}")
    return effects, records


def apply(
    effects: Iterable[Effect],
    states: Mapping[str, "object"],
    properties: dict[str, Union[float, bool]],
) -> None:
    """Apply effects in place to the joint states and the property bag.

    ``states`` maps qualified joint ref -> JointState; ``properties`` maps
    ``"assembly/module.key"`` -> scalar. Idempotent: every effect is an
    assignment.
    """
    for effect in effects:
        if isinstance(effect, SetOpenState):
            states[effect.joint].s_open = effect.value
        elif isinstance(effect, SetFixedTarget):
            states[effect.joint].held_target = effect.q_target
        elif isinstance(effect, SetProperty):
            properties[f"{effect.target}.{effect.key}"] = effect.value
        # EmitSignal is consumed during evaluation; applying it is a no-op.
