"""Synthetic fleet generator: parameterized ArchiMate-style models.

Every bench and test model so far is hand-built at the paper's
case-study scale.  This module generates *fleets* — seeded, layered
CPS models from toy size to ~10^6-scenario scale — so the streaming
enumeration spine (:meth:`repro.epa.engine.EpaEngine.aggregate`,
``docs/streaming.md``) has workloads big enough to stress it.

A :class:`FleetSpec` fixes the shape: ``tiers`` layers of
``components_per_tier`` components each, instantiated from
:func:`~repro.modeling.library.standard_cps_library` roles (an exposed
IT entry tier — gateways, workstations, historians — control tiers in
the middle, a physical tier at the bottom), each component carrying
exactly ``fault_modes_per_component`` synthetic fault modes, and each
component feeding ``connectivity`` successors in the next tier.  The
scenario space of the resulting EPA sweep is a pure counting function
of the spec (:meth:`FleetSpec.scenario_count`), which is what lets
benches dial in "at least N scenarios" exactly.

Catalog sizes ride the same spec: :func:`fleet_catalog` draws a
:func:`~repro.security.data.synthetic_catalog` of the requested size
and grafts an initial-access layer onto it (the synthetic catalog has
no initial-access tactic, which would leave every
:class:`~repro.security.scenario_space.AttackScenarioSpace` over it
empty — fleet entry tiers are public-facing, so the attack-space
differential tests get non-trivial spaces).

Everything is deterministic given ``seed``: two calls with equal specs
produce byte-identical models, catalogs and requirement sets.
:func:`fleet_models` varies the seed to yield a whole fleet of distinct
architectures with one shape.

Exports: :class:`FleetSpec`, :func:`build_fleet_model`,
:func:`fleet_requirements`, :func:`fleet_fault_mitigations`,
:func:`fleet_catalog`, :func:`fleet_engine`, :func:`fleet_models`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Sequence, Tuple

from ..modeling.elements import RelationshipType
from ..modeling.library import standard_cps_library
from ..modeling.model import SystemModel
from ..observability import Tracer
from .catalogs import SecurityCatalog, Tactic, Technique
from .data import synthetic_catalog
from .mapping import INITIAL_ACCESS_TACTICS

#: component-type roles per tier position: the entry tier is the exposed
#: IT perimeter, middle tiers are control layers, the last tier is the
#: physical process
ENTRY_ROLES = ("gateway", "workstation", "historian")
CONTROL_ROLES = ("controller", "network", "hmi", "safety_plc")
PROCESS_ROLES = ("sensor", "actuator", "plant", "robot", "conveyor")

#: behaviours cycled over the synthetic fault modes (all EPA-mappable)
FLEET_BEHAVIOURS = (
    "omission",
    "value_error",
    "stuck_at_x",
    "compromised",
    "timing_error",
)

_SEVERITIES = ("major", "critical", "minor")
_MAGNITUDES = ("VH", "H", "M")


@dataclass(frozen=True)
class FleetSpec:
    """Shape parameters of one synthetic fleet model.

    ``max_faults`` is carried along as the sweep bound the spec is sized
    for (0 = unbounded); ``requirements`` counts the generated safety
    requirements; ``techniques``/``mitigations``/``vulnerabilities``
    size the companion catalog.
    """

    name: str = "fleet"
    seed: int = 0
    tiers: int = 3
    components_per_tier: int = 4
    connectivity: int = 2
    fault_modes_per_component: int = 2
    max_faults: int = 2
    requirements: int = 2
    techniques: int = 30
    mitigations: int = 10
    vulnerabilities: int = 40

    @property
    def fault_pairs(self) -> int:
        """Declared (component, fault-mode) pairs of the model."""
        return (
            self.tiers
            * self.components_per_tier
            * self.fault_modes_per_component
        )

    def scenario_count(self, max_faults: int = -1) -> int:
        """Exact EPA scenario count of the sweep this spec describes.

        The fault choice is free (a choice rule under a cardinality
        bound), so the space is every fault subset of size at most
        ``max_faults`` (default: the spec's own bound; 0 = unbounded =
        every subset).  Benches size specs by inverting this.
        """
        bound = self.max_faults if max_faults < 0 else max_faults
        pairs = self.fault_pairs
        if bound <= 0 or bound >= pairs:
            return 2 ** pairs
        return sum(math.comb(pairs, k) for k in range(bound + 1))

    def component_ids(self) -> List[str]:
        return [
            _component_id(tier, position)
            for tier in range(self.tiers)
            for position in range(self.components_per_tier)
        ]


def _component_id(tier: int, position: int) -> str:
    return "t%d_c%d" % (tier, position)


def _tier_roles(tier: int, tiers: int) -> Tuple[str, ...]:
    if tier == 0:
        return ENTRY_ROLES
    if tier == tiers - 1:
        return PROCESS_ROLES
    return CONTROL_ROLES


def build_fleet_model(
    spec: FleetSpec, trace: object = None
) -> SystemModel:
    """Deterministically generate the layered model of one spec.

    Components come from the standard CPS library (role cycled within
    each tier), but their ``fault_modes`` are *overridden* with exactly
    ``spec.fault_modes_per_component`` synthetic modes per component —
    the scenario count must be a function of the spec, not of which
    library role a position happened to draw.  Entry-tier components
    are marked ``exposure="public"`` (the attack surface); FLOW edges
    connect each component to ``spec.connectivity`` components of the
    next tier, wrapping around, so the propagation graph is connected
    tier to tier.

    ``trace`` (an event sink) wraps the generation in a
    ``fleet.generate`` span — fleet construction shows up in sweep
    traces next to the solves it feeds.
    """
    if spec.tiers < 1 or spec.components_per_tier < 1:
        raise ValueError("fleet needs at least one tier and one component")
    with Tracer(trace).span(
        "fleet.generate",
        fleet=spec.name,
        seed=spec.seed,
        tiers=spec.tiers,
        components=spec.tiers * spec.components_per_tier,
    ):
        return _build_fleet_model(spec)


def _build_fleet_model(spec: FleetSpec) -> SystemModel:
    library = standard_cps_library()
    model = SystemModel("%s-%d" % (spec.name, spec.seed))
    rng = random.Random(spec.seed)
    component_index = 0
    for tier in range(spec.tiers):
        roles = _tier_roles(tier, spec.tiers)
        offset = rng.randrange(len(roles))
        for position in range(spec.components_per_tier):
            role = roles[(offset + position) % len(roles)]
            identifier = _component_id(tier, position)
            properties = {"exposure": "public"} if tier == 0 else None
            element = library.instantiate(
                model, role, identifier, properties=properties
            )
            element.properties["fault_modes"] = [
                {
                    "name": "fm%d" % mode,
                    "behaviour": FLEET_BEHAVIOURS[
                        (component_index + mode) % len(FLEET_BEHAVIOURS)
                    ],
                    "severity": _SEVERITIES[
                        (component_index + mode) % len(_SEVERITIES)
                    ],
                    "local_effect": "synthetic fault %d" % mode,
                }
                for mode in range(spec.fault_modes_per_component)
            ]
            component_index += 1
    fanout = min(spec.connectivity, spec.components_per_tier)
    for tier in range(spec.tiers - 1):
        for position in range(spec.components_per_tier):
            for step in range(fanout):
                target = (position + step) % spec.components_per_tier
                model.add_relationship(
                    _component_id(tier, position),
                    _component_id(tier + 1, target),
                    RelationshipType.FLOW,
                    check=False,
                )
    return model


def fleet_requirements(spec: FleetSpec, model: SystemModel) -> List[object]:
    """Safety requirements protecting the physical (last) tier.

    One requirement per spec slot, cycled over the last-tier
    components: "component X must not receive a hazardous error kind",
    with magnitudes cycled VH/H/M.  Returns
    :class:`~repro.epa.engine.StaticRequirement` instances (imported
    lazily: :mod:`repro.epa` imports :mod:`repro.security`, so the
    import must not run at module load).
    """
    from ..epa.engine import StaticRequirement

    last_tier = spec.tiers - 1
    requirements = []
    for index in range(max(1, spec.requirements)):
        position = index % spec.components_per_tier
        focus = _component_id(last_tier, position)
        requirements.append(
            StaticRequirement(
                "req%d" % index,
                "err(%s, K), hazardous_kind(K)" % focus,
                focus=focus,
                magnitude=_MAGNITUDES[index % len(_MAGNITUDES)],
            )
        )
    return requirements


def fleet_catalog(spec: FleetSpec) -> SecurityCatalog:
    """The spec-sized synthetic catalog plus an initial-access layer.

    :func:`~repro.security.data.synthetic_catalog` generates only
    ``TA9xxx`` tactics — none of them initial-access — so attack
    scenario spaces over it have no entry points.  Fleets are built to
    be attacked: this grafts the ICS initial-access tactic and a few
    low-difficulty entry techniques targeting the exposed entry-tier
    roles onto the synthetic base, reusing its mitigation ids.
    """
    catalog = synthetic_catalog(
        techniques=spec.techniques,
        mitigations=spec.mitigations,
        vulnerabilities=spec.vulnerabilities,
        seed=spec.seed,
    )
    access_tactic = INITIAL_ACCESS_TACTICS[0]
    catalog.add_tactic(Tactic(access_tactic, "Initial Access"))
    mitigation_ids = sorted(m.identifier for m in catalog.mitigations)
    for index, platform in enumerate(ENTRY_ROLES):
        catalog.add_technique(
            Technique(
                "T9A%02d" % index,
                "Fleet Initial Access via %s" % platform,
                (access_tactic,),
                platforms=(platform,),
                mitigation_ids=(mitigation_ids[index % len(mitigation_ids)],),
                induced_behaviour="compromised",
                difficulty="L",
            )
        )
    return catalog


def fleet_fault_mitigations(spec: FleetSpec) -> Dict[str, Sequence[str]]:
    """Fault-mode name -> mitigation ids, drawn from the fleet catalog.

    The synthetic fault modes are named ``fm0..fmN`` across the whole
    fleet; each maps to one synthetic mitigation (cycled), giving
    mitigation-aware sweeps a deployment lever of the right shape.
    """
    catalog = fleet_catalog(spec)
    mitigation_ids = sorted(m.identifier for m in catalog.mitigations)
    return {
        "fm%d" % mode: (mitigation_ids[mode % len(mitigation_ids)],)
        for mode in range(spec.fault_modes_per_component)
    }


def fleet_engine(spec: FleetSpec, **kwargs: object) -> object:
    """One call from spec to ready :class:`~repro.epa.EpaEngine`.

    Builds the model and requirements and wires the fleet fault
    mitigations; keyword arguments (``workers``, ``trace``,
    ``progress``, ...) pass through to the engine constructor.
    """
    from ..epa.engine import EpaEngine

    model = build_fleet_model(spec, trace=kwargs.get("trace"))
    return EpaEngine(
        model,
        fleet_requirements(spec, model),
        fault_mitigations=fleet_fault_mitigations(spec),
        **kwargs,
    )


def fleet_models(
    spec: FleetSpec, count: int
) -> Iterator[Tuple[FleetSpec, SystemModel]]:
    """``count`` seed-varied (spec, model) pairs of one shape.

    The fleet proper: architecture ``i`` uses ``seed + i``, so the
    pairs are distinct but individually reproducible.
    """
    for index in range(count):
        variant = replace(spec, seed=spec.seed + index)
        yield variant, build_fleet_model(variant)


__all__ = [
    "CONTROL_ROLES",
    "ENTRY_ROLES",
    "FLEET_BEHAVIOURS",
    "FleetSpec",
    "PROCESS_ROLES",
    "build_fleet_model",
    "fleet_catalog",
    "fleet_engine",
    "fleet_fault_mitigations",
    "fleet_models",
    "fleet_requirements",
]
