"""Declarative scenario descriptions.

A :class:`ScenarioSpec` is the single front door to the repository's
workloads: one JSON-serialisable dataclass naming the topology/metric
family, the overlay size, the k-grid, the policy set, the churn schedule,
the cheating model, the preference skew, the epoch count, and the seed.
:class:`~repro.scenario.session.SimulationSession` plans its execution —
build-only sweeps through :class:`~repro.core.deployment_batch.DeploymentBatch`,
epoch-loop scenarios through :class:`~repro.core.engine_batch.EngineBatch`
— and every experiment in :mod:`repro.experiments` registers a default
spec that ``default_spec(name).override(...)`` starts from.

The spec is *descriptive*, not executional: knobs that only change how a
scenario is computed (the ``batched`` kernel switch) live on the session,
so a spec's JSON form identifies the scenario regardless of which code
path realises it.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Tuple


from repro.core.failures import FailureSpec
from repro.core.hybrid import HybridBRPolicy
from repro.core.policies import (
    BestResponsePolicy,
    FullMeshPolicy,
    KClosestPolicy,
    KRandomPolicy,
    KRegularPolicy,
    NeighborSelectionPolicy,
)
from repro.util.validation import ValidationError

#: Metric/topology families a scenario can name.
METRIC_FAMILIES = (
    "delay-ping",
    "delay-pyxida",
    "delay-true",
    "load",
    "bandwidth",
)

_POLICY_PATTERN = re.compile(r"^(?P<name>[a-z-]+)(?:\((?P<args>[^)]*)\))?$")

_POLICY_BUILDERS = {
    "k-random": KRandomPolicy,
    "k-regular": KRegularPolicy,
    "k-closest": KClosestPolicy,
    "full-mesh": FullMeshPolicy,
    "best-response": BestResponsePolicy,
    "hybrid-br": HybridBRPolicy,
}

_POLICY_KWARGS = {
    "k-random": (),
    "k-regular": (),
    "k-closest": (),
    "full-mesh": (),
    "best-response": ("eps",),
    "hybrid-br": ("k2", "eps"),
}


def parse_policy(descriptor: str) -> NeighborSelectionPolicy:
    """Build a policy object from its descriptor string.

    Descriptors are the figure labels, optionally parameterised:
    ``"k-random"``, ``"best-response"``, ``"best-response(eps=0.1)"``,
    ``"hybrid-br(k2=2)"``.
    """
    match = _POLICY_PATTERN.match(descriptor.strip())
    if not match:
        raise ValidationError(f"malformed policy descriptor {descriptor!r}")
    name = match.group("name")
    builder = _POLICY_BUILDERS.get(name)
    if builder is None:
        raise ValidationError(
            f"unknown policy {name!r}; expected one of {sorted(_POLICY_BUILDERS)}"
        )
    kwargs = {}
    args_text = match.group("args")
    if args_text:
        allowed = _POLICY_KWARGS[name]
        for part in args_text.split(","):
            if "=" not in part:
                raise ValidationError(
                    f"policy argument {part!r} in {descriptor!r} must be key=value"
                )
            key, value = (piece.strip() for piece in part.split("=", 1))
            if key not in allowed:
                raise ValidationError(
                    f"policy {name!r} does not accept argument {key!r}"
                )
            kwargs[key] = float(value)
    if name == "best-response":
        return builder(epsilon=kwargs.get("eps", 0.0))
    if name == "hybrid-br":
        return builder(k2=int(kwargs.get("k2", 2)), epsilon=kwargs.get("eps", 0.0))
    return builder()


def policy_label(descriptor: str) -> str:
    """Series label of a policy descriptor (the part before ``(``)."""
    return descriptor.split("(", 1)[0].strip()


@dataclass(frozen=True)
class ChurnSpec:
    """Declarative churn schedule.

    ``kind`` selects the generator: ``"trace"`` for the PlanetLab-like
    heavy-tailed sessions (:func:`repro.churn.models.trace_driven_churn`)
    or ``"parametrized"`` for schedules calibrated to ``rate``
    (:func:`repro.churn.models.parametrized_churn`).  ``horizon`` defaults
    to the scenario's ``epochs * epoch_length`` when omitted.
    """

    kind: str = "trace"
    rate: Optional[float] = None
    horizon: Optional[float] = None
    mean_on: float = 1500.0
    mean_off: float = 300.0
    duty_cycle: float = 0.8

    def validate(self) -> None:
        if self.kind not in ("trace", "parametrized"):
            raise ValidationError(f"unknown churn kind {self.kind!r}")
        # rate may stay None for parametrized schedules whose experiment
        # sweeps the rate (fig2-churn-rate passes it per point).
        if self.kind == "parametrized" and self.rate is not None and self.rate <= 0:
            raise ValidationError("parametrized churn needs a positive rate")


@dataclass(frozen=True)
class CheatingSpec:
    """Declarative free-rider model (see :class:`repro.core.cheating.CheatingModel`)."""

    free_riders: Tuple[int, ...] = ()
    inflation: float = 2.0

    def validate(self) -> None:
        if self.inflation <= 0:
            raise ValidationError("inflation must be positive")


@dataclass
class ScenarioSpec:
    """One declarative scenario: everything a run needs except code paths.

    Parameters
    ----------
    experiment:
        Registry key of the experiment shape (``"fig1-delay-ping"``,
        ``"fig2-churn-rate"``, ...) — see :mod:`repro.scenario.registry`.
    n, k_grid, policies, metric:
        Overlay size, neighbour budgets swept, policy descriptors (see
        :func:`parse_policy`), and metric family.
    epochs:
        Engine epochs for epoch-loop scenarios; 0 means build-only.
    br_rounds, epsilon, drift_relative_std, preference_skew:
        Best-response dynamics rounds, engine-level BR(ε) threshold,
        per-epoch substrate drift, and Zipf preference exponent
        (0 = the paper's uniform preferences).
    churn, cheating:
        Optional churn schedule and free-rider model.
    failures:
        Optional failure-injection schedule (link/node outages, delayed
        re-announce, announcement loss) — see
        :class:`repro.core.failures.FailureSpec`.
    seed:
        Master seed (must be an integer, or None, so the spec serialises).
    params:
        Experiment-specific extras (sample sizes, trials, churn-rate
        sweeps, ...), restricted to JSON-representable values.
    """

    experiment: str
    n: int = 50
    k_grid: Tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    policies: Tuple[str, ...] = (
        "k-random",
        "k-regular",
        "k-closest",
        "best-response",
    )
    metric: str = "delay-ping"
    epochs: int = 0
    br_rounds: int = 3
    epsilon: float = 0.0
    drift_relative_std: float = 0.0
    preference_skew: float = 0.0
    churn: Optional[ChurnSpec] = None
    cheating: Optional[CheatingSpec] = None
    failures: Optional[FailureSpec] = None
    epoch_length: float = 60.0
    announce_interval: float = 20.0
    compute_efficiency: bool = False
    seed: Optional[int] = 0
    params: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _field_errors(self) -> list:
        """``(field, message)`` pairs for every invalid field of the spec.

        Checks never abort each other: a wrong *type* (which would make
        the comparison itself raise) is reported as that field's error,
        and all failing fields are collected so one round-trip through
        the error message fixes the whole file.
        """
        errors = []

        def require(name: str, predicate, message: str) -> None:
            try:
                ok = bool(predicate())
            except (TypeError, ValueError):
                value = getattr(self, name)
                ok = False
                message = f"has the wrong type ({type(value).__name__}: {value!r})"
            if not ok:
                errors.append((name, message))

        require("experiment", lambda: self.experiment, "a scenario needs an experiment name")
        require("n", lambda: self.n >= 2, "must be >= 2")
        require(
            "k_grid",
            lambda: self.k_grid and all(int(k) >= 0 for k in self.k_grid),
            "must be a non-empty tuple of k >= 0",
        )
        require(
            "metric",
            lambda: self.metric in METRIC_FAMILIES,
            f"unknown metric family {self.metric!r}; expected one of {METRIC_FAMILIES}",
        )
        require("epochs", lambda: self.epochs >= 0, "must be >= 0")
        require("br_rounds", lambda: self.br_rounds >= 0, "must be >= 0")
        require("epsilon", lambda: self.epsilon >= 0, "must be non-negative")
        require(
            "preference_skew", lambda: self.preference_skew >= 0, "must be non-negative"
        )
        require(
            "seed",
            lambda: self.seed is None or isinstance(self.seed, int),
            "must be a plain integer (or None) so specs serialise",
        )
        for descriptor in self.policies:
            try:
                parse_policy(descriptor)
            except ValidationError as error:
                errors.append(("policies", str(error)))
        if self.churn is not None:
            try:
                self.churn.validate()
            except ValidationError as error:
                errors.append(("churn", str(error)))
        if self.cheating is not None:
            try:
                self.cheating.validate()
                for rider in self.cheating.free_riders:
                    if not 0 <= int(rider) < self.n:
                        errors.append(("cheating", f"free rider {rider} out of range"))
            except ValidationError as error:
                errors.append(("cheating", str(error)))
            except (TypeError, ValueError):
                errors.append(
                    ("cheating", f"free riders must be integers, got {self.cheating.free_riders!r}")
                )
        if self.failures is not None:
            try:
                self.failures.validate()
                for event in self.failures.events:
                    event.check_range(self.n)
            except ValidationError as error:
                errors.append(("failures", str(error)))
            except (TypeError, ValueError):
                errors.append(
                    ("failures", f"malformed failure events: {self.failures.events!r}")
                )
        try:
            json.dumps(self.params)
        except TypeError as error:
            errors.append(("params", f"must be JSON-representable: {error}"))
        return errors

    def validate(self) -> "ScenarioSpec":
        """Check the spec is well-formed; returns self for chaining.

        Every invalid field is reported, each tagged with its field name
        — ``invalid scenario field 'n': must be >= 2`` — so a rejected
        ``--spec`` file says exactly what to fix.
        """
        errors = self._field_errors()
        if errors:
            if len(errors) == 1:
                name, message = errors[0]
                raise ValidationError(f"invalid scenario field {name!r}: {message}")
            joined = "; ".join(f"{name!r}: {message}" for name, message in errors)
            raise ValidationError(f"invalid scenario fields: {joined}")
        return self

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Canonical (JSON-ready) dictionary form: tuples become lists."""
        self.validate()
        data = asdict(self)
        data["k_grid"] = [int(k) for k in self.k_grid]
        data["policies"] = list(self.policies)
        if self.churn is not None:
            data["churn"] = asdict(self.churn)
        if self.cheating is not None:
            data["cheating"] = asdict(self.cheating)
            data["cheating"]["free_riders"] = [int(v) for v in self.cheating.free_riders]
        if self.failures is not None:
            data["failures"] = self.failures.to_dict()
        data["params"] = json.loads(json.dumps(self.params))
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (lists back to tuples)."""
        data = dict(data)
        unknown = set(data) - {f.name for f in cls.__dataclass_fields__.values()}
        if unknown:
            raise ValidationError(f"unknown scenario fields {sorted(unknown)}")
        if "experiment" not in data:
            raise ValidationError("invalid scenario field 'experiment': missing")
        if "k_grid" in data:
            try:
                data["k_grid"] = tuple(int(k) for k in data["k_grid"])
            except (TypeError, ValueError) as error:
                raise ValidationError(f"invalid scenario field 'k_grid': {error}")
        if "policies" in data:
            try:
                data["policies"] = tuple(str(p) for p in data["policies"])
            except TypeError as error:
                raise ValidationError(f"invalid scenario field 'policies': {error}")
        if data.get("churn") is not None:
            try:
                data["churn"] = ChurnSpec(**data["churn"])
            except TypeError as error:
                raise ValidationError(f"invalid scenario field 'churn': {error}")
        if data.get("cheating") is not None:
            try:
                cheating = dict(data["cheating"])
                cheating["free_riders"] = tuple(
                    int(v) for v in cheating.get("free_riders", ())
                )
                data["cheating"] = CheatingSpec(**cheating)
            except (TypeError, ValueError) as error:
                raise ValidationError(f"invalid scenario field 'cheating': {error}")
        if data.get("failures") is not None:
            try:
                data["failures"] = FailureSpec.from_dict(data["failures"])
            except ValidationError as error:
                raise ValidationError(f"invalid scenario field 'failures': {error}")
        spec = cls(**data)
        spec.validate()
        return spec

    def to_json(self, *, indent: int = 2) -> str:
        """JSON text of the spec (round-trips via :meth:`from_json`)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from JSON text."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        """Write the spec as JSON to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        """Read a spec from a JSON file.

        Every failure is a :class:`ValidationError` naming the file (and,
        for an invalid spec, the field), so the CLI's exit-2 line says
        what to fix where.
        """
        try:
            with open(path) as handle:
                return cls.from_json(handle.read())
        except OSError as error:
            raise ValidationError(f"cannot read spec file {path!r}: {error}")
        except json.JSONDecodeError as error:
            raise ValidationError(f"spec file {path!r} is not valid JSON: {error}")
        except ValidationError as error:
            raise ValidationError(f"spec file {path!r}: {error}")

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def override(self, **changes) -> "ScenarioSpec":
        """A copy with the given fields replaced (``params`` is merged)."""
        params = changes.pop("params", None)
        spec = replace(self, **changes)
        if params:
            spec.params = {**self.params, **params}
        return spec

    def param(self, key: str, default=None):
        """Experiment-specific parameter lookup."""
        return self.params.get(key, default)
