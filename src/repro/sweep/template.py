"""Sweep templates: a base scenario spec fanned over named axes.

A template is JSON of the form::

    {
      "name": "fig1-four-panel",
      "description": "Fig. 1: all four policy-comparison panels",
      "base": { ...ScenarioSpec dict (partial; defaults apply)... },
      "axes": {
        "panel": [
          {"label": "delay-ping", "experiment": "fig1-delay-ping",
           "metric": "delay-ping", "params.include_full_mesh": true},
          {"label": "bandwidth", "experiment": "fig1-bandwidth",
           "metric": "bandwidth"}
        ],
        "n": [25, 50]
      },
      "spawn_seeds": true
    }

Axis points come in two shapes:

* a **scalar** — assigned to the field named by the axis itself
  (``"n": [25, 50]``); dotted names reach into dict-valued fields
  (``"params.k"``, ``"churn.rate"``);
* an **object** — several field assignments applied together (one axis
  point that moves ``experiment`` *and* ``metric``), with an optional
  ``"label"`` key used for display only.

Expansion takes the Cartesian product of the axes in declaration order,
applies each combination onto the base spec's dictionary form, and
validates the result through :meth:`ScenarioSpec.from_dict` — so a
malformed template fails before anything runs.  Unless an axis assigns
``seed`` (or ``spawn_seeds`` is false), every cell receives its own
integer seed spawned from the base seed via
:func:`repro.util.rng.spawn_seeds` — the same per-cell stream discipline
``SimulationSession.engine_grid``/``deployment_grid`` apply inside a
single run, lifted to the sweep grid.  Cell identity is the content hash
of the final spec (:func:`spec_key`), which is what the
:class:`~repro.sweep.store.SweepStore` addresses results by.

A corpus file may instead hold ``{"name": ..., "include": ["a.json",
"b.json"]}``; included paths are resolved relative to the file and may
nest (cycles are rejected), which is how ``scenarios/fig_all.json``
composes the whole evaluation out of the per-figure templates.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.scenario.spec import ScenarioSpec
from repro.util.rng import spawn_seeds
from repro.util.validation import ValidationError


def spec_key(spec: ScenarioSpec) -> str:
    """Content address of a scenario spec: hash of its canonical JSON.

    blake2b with the same digest size as
    :func:`repro.core.route_cache.metric_fingerprint`, so one digest
    convention covers all content addressing in the repo.
    """
    payload = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def _assign(data: Dict[str, object], path: str, value) -> None:
    """Set ``path`` (possibly dotted into a dict-valued field) on ``data``."""
    parts = path.split(".")
    head = parts[0]
    if head not in ScenarioSpec.__dataclass_fields__:
        raise ValidationError(
            f"axis field {path!r} does not name a ScenarioSpec field"
        )
    if len(parts) == 1:
        data[head] = value
        return
    if len(parts) != 2 or head not in ("params", "churn", "cheating"):
        raise ValidationError(
            f"axis field {path!r}: dotted paths must be one level into "
            "'params', 'churn', or 'cheating'"
        )
    nested = data.get(head)
    if nested is None:
        nested = {}
        data[head] = nested
    nested[parts[1]] = value


def _display(value) -> str:
    """Compact display form of an axis point value."""
    return json.dumps(value, separators=(",", ":"))


@dataclass(frozen=True)
class SweepCell:
    """One expanded grid cell: a concrete spec plus its sweep coordinates."""

    template: str
    index: int
    spec: ScenarioSpec
    #: ``(axis name, display value)`` pairs, in axis declaration order.
    assignment: Tuple[Tuple[str, str], ...]
    key: str

    def describe(self) -> str:
        """Human-readable coordinates, e.g. ``panel=delay-ping, n=50``."""
        return ", ".join(f"{axis}={value}" for axis, value in self.assignment) or "-"


@dataclass
class SweepTemplate:
    """A base spec plus axes; :meth:`expand` yields the cell grid."""

    name: str
    base: Dict[str, object]
    axes: Dict[str, List[object]] = field(default_factory=dict)
    description: str = ""
    spawn_seeds: bool = True

    def validate(self) -> "SweepTemplate":
        """Check the template is well-formed (axes usable, cells parse).

        The base may be partial — an axis can supply ``experiment`` or any
        other required field — so the probe validated here is the base
        with the *first* point of every axis applied (expansion then
        validates every cell with its own coordinates in the error).
        """
        if not self.name:
            raise ValidationError("a sweep template needs a name")
        for axis, points in self.axes.items():
            if not isinstance(points, list) or not points:
                raise ValidationError(
                    f"axis {axis!r} of template {self.name!r} must be a non-empty list"
                )
            for point in points:
                if isinstance(point, dict):
                    fields = [key for key in point if key != "label"]
                    if not fields:
                        raise ValidationError(
                            f"axis {axis!r} of template {self.name!r} has a point "
                            "with no field assignments"
                        )
        probe = copy.deepcopy(self.base)
        for axis, points in self.axes.items():
            point = points[0]
            if isinstance(point, dict):
                for path, value in point.items():
                    if path != "label":
                        _assign(probe, path, value)
            else:
                _assign(probe, axis, point)
        try:
            ScenarioSpec.from_dict(probe)
        except ValidationError as error:
            raise ValidationError(f"template {self.name!r}: {error}")
        if self.spawn_seeds and not self._seed_swept() and self.base.get("seed", 0) is None:
            raise ValidationError(
                f"template {self.name!r} spawns per-cell seeds but its base "
                "spec has seed=None; set a base seed or spawn_seeds=false"
            )
        return self

    def _seed_swept(self) -> bool:
        """True when some axis assigns the seed itself."""
        for axis, points in self.axes.items():
            if axis == "seed":
                return True
            for point in points:
                if isinstance(point, dict) and "seed" in point:
                    return True
        return False

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepTemplate":
        """Parse (and validate) a template from its JSON dictionary."""
        data = dict(data)
        unknown = set(data) - {"name", "base", "axes", "description", "spawn_seeds"}
        if unknown:
            raise ValidationError(
                f"unknown sweep template fields {sorted(unknown)}"
            )
        if "base" not in data or not isinstance(data["base"], dict):
            raise ValidationError("a sweep template needs a 'base' spec dictionary")
        template = cls(
            name=str(data.get("name", "")),
            base=dict(data["base"]),
            axes={str(k): list(v) for k, v in dict(data.get("axes", {})).items()},
            description=str(data.get("description", "")),
            spawn_seeds=bool(data.get("spawn_seeds", True)),
        )
        return template.validate()

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def expand(self) -> List[SweepCell]:
        """The full cell grid, in deterministic Cartesian-product order."""
        self.validate()
        axis_names = list(self.axes)
        combos = list(itertools.product(*(self.axes[a] for a in axis_names)))
        spawn = self.spawn_seeds and not self._seed_swept()
        seeds = spawn_seeds(self.base.get("seed", 0), len(combos)) if spawn else None
        cells: List[SweepCell] = []
        for index, combo in enumerate(combos):
            data = copy.deepcopy(self.base)
            assignment: List[Tuple[str, str]] = []
            try:
                for axis, point in zip(axis_names, combo):
                    if isinstance(point, dict):
                        for path, value in point.items():
                            if path == "label":
                                continue
                            _assign(data, path, value)
                        label = point.get("label")
                        if label is None:
                            label = _display(
                                next(v for k, v in point.items() if k != "label")
                            )
                        assignment.append((axis, str(label)))
                    else:
                        _assign(data, axis, point)
                        assignment.append((axis, _display(point)))
                if seeds is not None:
                    data["seed"] = seeds[index]
                spec = ScenarioSpec.from_dict(data)
            except ValidationError as error:
                coords = ", ".join(f"{a}={v}" for a, v in assignment) or "-"
                raise ValidationError(
                    f"template {self.name!r}, cell {index} ({coords}): {error}"
                )
            cells.append(
                SweepCell(
                    template=self.name,
                    index=index,
                    spec=spec,
                    assignment=tuple(assignment),
                    key=spec_key(spec),
                )
            )
        return cells


def load_templates(path: str, _seen: frozenset = frozenset()) -> List[SweepTemplate]:
    """Load a template (or an ``include`` corpus) file into templates.

    Included paths resolve relative to the including file; include cycles
    raise instead of recursing forever.
    """
    resolved = os.path.abspath(path)
    if resolved in _seen:
        raise ValidationError(f"sweep corpus include cycle through {path!r}")
    try:
        with open(resolved) as handle:
            data = json.load(handle)
    except OSError as error:
        raise ValidationError(f"cannot read sweep template {path!r}: {error}")
    except json.JSONDecodeError as error:
        raise ValidationError(f"sweep template {path!r} is not valid JSON: {error}")
    if not isinstance(data, dict):
        raise ValidationError(f"sweep template {path!r} must be a JSON object")
    if "include" in data:
        unknown = set(data) - {"name", "description", "include"}
        if unknown:
            raise ValidationError(
                f"corpus file {path!r} mixes 'include' with template fields "
                f"{sorted(unknown)}"
            )
        includes = data["include"]
        if not isinstance(includes, list) or not includes:
            raise ValidationError(f"corpus file {path!r} has an empty 'include' list")
        templates: List[SweepTemplate] = []
        for entry in includes:
            child = os.path.join(os.path.dirname(resolved), str(entry))
            templates.extend(load_templates(child, _seen | {resolved}))
        return templates
    return [SweepTemplate.from_dict(data)]


def expand_corpus(templates: Sequence[SweepTemplate]) -> List[SweepCell]:
    """Expand every template and deduplicate content-identical cells.

    Two templates naming the same concrete spec would execute (and store)
    the same cell; the first occurrence wins, keeping the plan order
    deterministic.
    """
    cells: List[SweepCell] = []
    seen: set = set()
    for template in templates:
        for cell in template.expand():
            if cell.key in seen:
                continue
            seen.add(cell.key)
            cells.append(cell)
    return cells
