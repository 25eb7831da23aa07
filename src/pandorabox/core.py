"""Domain types, validation, exact distribution arithmetic and the instance
file format shared by every solver.

All quantities that enter a solver (costs, rewards, probabilities, thresholds)
are exact rationals (`fractions.Fraction`).  Floating point appears only in
Monte-Carlo sampling paths.  Rationals are serialized as ``"p/q"`` or decimal
strings; both forms parse back exactly (``"0.25"`` -> ``1/4``).

Instance documents are JSON with the following shape::

    {
      "boxes": [
        {"id": "a", "cost": "1", "reward": [{"value": "3", "prob": "1/2"},
                                            {"value": "0", "prob": "1/2"}]}
      ],
      "constraint": {"kind": "line", "edges": [["a", "b"]], "roots": ["a"]},
      "side": {"kind": "knapsack", "weights": {"a": [1]}, "capacity": [2]}
    }

``constraint.kind`` is one of ``unconstrained | line | tree | forest | dag``;
``side`` is optional and is either a generalized knapsack (integer weight
vectors plus a capacity vector) or a partition constraint (``"parts"``, a part
index per box, plus ``"capacities"``, one per part), held as the knapsack of
each part's unit vector.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property

RESERVED_ID_PREFIX = "__"

# Capacities of side constraints must stay polynomially bounded in n.
CAPACITY_FACTOR = 10
# Most weight entries a partition's unit vectors may take (boxes times parts).
MAX_SIDE_ENTRIES = 10**6

# Largest decimal exponent parse_rational accepts (Python's default limit on
# the digits of an int parsed from a string), so "1e999999999" cannot make
# Fraction compute 10**999999999.
MAX_DECIMAL_EXPONENT = 4300
# The exponent as Fraction reads it: E or e, a sign, digits with underscores.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")

# Largest instance or thresholds document accepted, in UTF-8 bytes (8 MiB).
MAX_DOCUMENT_BYTES = 8 << 20


class PandoraError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PandoraError):
    """The instance document is not well-formed."""


class ValidationError(PandoraError):
    """A structurally well-formed instance violates a model invariant."""


class UnsupportedConstraintError(PandoraError):
    """The requested operation does not support this constraint kind."""


class CapExceededError(PandoraError):
    """An exponential-size computation would exceed its configured cap."""


class InvariantError(PandoraError):
    """An internal consistency check failed (indicates a bug)."""


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse ``"p/q"``, decimal strings and integers into an exact rational."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise ParseError(f"expected a rational, got boolean {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise ParseError(
            f"refusing to parse float {text!r}: write it as a string "
            f"(decimals convert exactly)"
        )
    stripped = str(text).strip()
    exponent = _EXPONENT.search(stripped)
    try:
        if exponent and abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT:
            raise ParseError(f"exponent of {text!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude")
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse rational from {text!r}: {exc}") from None


def format_rational(q: Fraction) -> str:
    """Inverse of :func:`parse_rational`; integers print without denominator."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def describe_rational(q: Fraction) -> str:
    """:func:`format_rational` for messages: a value with more digits than
    Python converts to a string shows as its size, about 2^k."""
    try:
        return format_rational(q)
    except ValueError:
        size = abs(q.numerator).bit_length() - q.denominator.bit_length()
        return f"about {'-' if q < 0 else ''}2^{size}"


setfield = object.__setattr__  # sets a field past Record.__setattr__ (in __init__ only)


class Record:
    """Base of the immutable records.  The fields (``_fields``) are the names
    in ``__slots__``, else the names annotated in the class body, in order.
    A record equals one of its class with equal fields, hashes and shows
    field by field (``hash`` raises ``TypeError`` when a field is unhashable,
    such as a dict, as a frozen dataclass does), and refuses attribute
    assignment.  This ``__init__`` takes the fields by position or keyword,
    an omitted one from the class attribute of its name (records with
    ``__slots__`` have no defaults); the hot ``AnnotatedEntry`` and
    ``ThresholdPolicy`` write their own with :data:`setfield`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        slots = cls.__dict__.get("__slots__")
        cls._fields = tuple(slots or cls.__dict__.get("__annotations__", ()))
        cls._defaults = {} if slots else {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        names, defaults = self._fields, self._defaults
        if kwargs or len(args) != len(names):  # bind keywords and defaults
            values = dict(zip(names, args))
            unknown = len(args) > len(names) or any(k in values or k not in names for k in kwargs)
            values.update(kwargs)
            if unknown or not all(name in values or name in defaults for name in names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}, each once or by default")
            args = [values[name] if name in values else defaults[name] for name in names]
        for name, value in zip(names, args):
            setfield(self, name, value)

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._field_values() == other._field_values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self._fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class DiscreteDistribution(Record):
    """Finite-support reward distribution with exact atom probabilities.

    Atoms are ``(value, probability)`` pairs, strictly increasing by value,
    probabilities positive and summing to exactly 1, values nonnegative.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, atoms: tuple[tuple[Fraction, Fraction], ...]) -> None:
        if not atoms:
            raise ValidationError("distribution needs at least one atom")
        total = Fraction(0)
        prev = None
        for value, prob in atoms:
            if value < 0:
                raise ValidationError(f"reward value {describe_rational(value)} is negative")
            if prob <= 0:
                raise ValidationError(f"atom probability {describe_rational(prob)} is not positive")
            if prev is not None and value <= prev:
                raise ValidationError("atom values must be strictly increasing")
            prev = value
            total += prob
        if total != 1:
            raise ValidationError(f"atom probabilities sum to {describe_rational(total)}, not 1")
        setfield(self, "atoms", atoms)

    @staticmethod
    def of(pairs: Iterable[tuple[Fraction | int | str, Fraction | int | str]]) -> "DiscreteDistribution":
        """Build from unsorted pairs, merging duplicate values."""
        merged: dict[Fraction, Fraction] = {}
        for value, prob in pairs:
            v = parse_rational(value)
            p = parse_rational(prob)
            merged[v] = merged.get(v, Fraction(0)) + p
        atoms = tuple(sorted((v, p) for v, p in merged.items() if p != 0))
        return DiscreteDistribution(atoms)

    @staticmethod
    def point(value: Fraction | int | str) -> "DiscreteDistribution":
        return DiscreteDistribution(((parse_rational(value), Fraction(1)),))

    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for v, _ in self.atoms)

    def probs(self) -> tuple[Fraction, ...]:
        return tuple(p for _, p in self.atoms)

    def expectation(self) -> Fraction:
        return sum((v * p for v, p in self.atoms), Fraction(0))

    @cached_property
    def integer(self) -> "IntDistribution":
        """The atoms on ints: values and probabilities each over the lcm of their denominators."""
        scale, den = (math.lcm(*[q.denominator for q in column]) for column in zip(*self.atoms))
        return IntDistribution([v.numerator * (scale // v.denominator) for v, _ in self.atoms], scale,
                               [p.numerator * (den // p.denominator) for _, p in self.atoms], den)

    @cached_property
    def cut_points(self) -> tuple[int, ...]:
        """ceil(P(X <= v_k)·2^64) per atom k; the last one is 2^64.  A 64-bit
        point u falls on atom ``bisect_right(cut_points, u)``, the first with
        u/2^64 < P(X <= v_k)."""
        den = self.integer.den
        return tuple([-((-cum << 64) // den) for cum in itertools.accumulate(self.integer.probs)])


class IntDistribution:
    """Atoms on ints: value ``keys[k] / scale`` with probability ``probs[k] / den``, keys strictly
    increasing from 0 or above, numerators positive summing to ``den``.  Stored unchecked: a
    reward's int form comes from atoms :class:`DiscreteDistribution` has checked, and a max, a
    capped value or the evaluation's running best is built sorted with positive CDF increments
    (the tests' ``int_distribution_violation`` guard checks every such build).

    ``carrier`` is an int at most ``den`` that every prime of ``den`` divides (``den`` itself
    when not given or larger).  A common factor of the numerators divides ``den``, so gcds
    against the carrier, repeated while the numerators stay divisible, find all of it; the
    carrier is a small int when ``den`` is a product of small ones."""

    __slots__ = ("keys", "scale", "probs", "den", "carrier")

    def __init__(self, keys: list[int], scale: int, probs: list[int], den: int, carrier: int | None = None) -> None:
        self.keys, self.scale, self.probs, self.den = keys, scale, probs, den
        self.carrier = den if carrier is None or carrier > den else carrier

    def expectation(self) -> Fraction:
        return Fraction(sum(map(operator.mul, self.keys, self.probs)), self.den * self.scale)


class BoxSpec(Record):
    """One box: an opening cost and a reward distribution."""

    id: str
    cost: Fraction
    reward: DiscreteDistribution


class ConstraintKind:
    UNCONSTRAINED = "unconstrained"
    LINE = "line"
    TREE = "tree"
    FOREST = "forest"
    DAG = "dag"

    ALL = (UNCONSTRAINED, LINE, TREE, FOREST, DAG)


class ConstraintGraph(Record):
    """Order constraint over the boxes.

    For ``line``/``tree``/``forest`` a box is openable once its parent is
    open; for ``dag`` a box is openable once at least one in-neighbour is
    open, and in-degree-0 boxes are openable from the start.
    """

    kind: str
    edges: tuple[tuple[str, str], ...] = ()
    roots: tuple[str, ...] = ()

    @staticmethod
    def unconstrained() -> "ConstraintGraph":
        return ConstraintGraph(ConstraintKind.UNCONSTRAINED)


class MatroidSideConstraint(Record):
    """Optional downwards-closed side constraint on the opened set: every box
    has an integer weight vector (``weights``, box id to vector) of the
    dimension d of ``capacity``, and the opened set's weight sum must stay
    within ``capacity`` componentwise.  ``kind`` names the document form:
    ``knapsack`` lists the vectors; ``partition`` puts each box in a part and
    caps the opened boxes per part, stored as the part's unit vector and the
    per-part capacities.
    """

    kind: str
    weights: Mapping[str, tuple[int, ...]]
    capacity: tuple[int, ...]

    NONE = "none"
    KNAPSACK = "knapsack"
    PARTITION = "partition"

    def __init__(self, kind: str = NONE, weights: Mapping[str, tuple[int, ...]] | None = None,
                 capacity: tuple[int, ...] = ()) -> None:  # a new empty dict when omitted
        super().__init__(kind, {} if weights is None else weights, capacity)

    @staticmethod
    def none() -> "MatroidSideConstraint":
        return MatroidSideConstraint()

    @staticmethod
    def knapsack(weights: Mapping[str, Sequence[int]], capacity: Sequence[int]) -> "MatroidSideConstraint":
        return MatroidSideConstraint(MatroidSideConstraint.KNAPSACK, {k: tuple(v) for k, v in weights.items()},
                                     tuple(capacity))

    @staticmethod
    def partition(parts: Mapping[str, int], capacities: Sequence[int]) -> "MatroidSideConstraint":
        """Box id to part index, an index of ``capacities``; the part becomes a unit vector."""
        k = len(capacities)
        if len(parts) * k > MAX_SIDE_ENTRIES:
            raise CapExceededError(f"partition of {len(parts)} boxes into {k} parts takes more than "
                                   f"{MAX_SIDE_ENTRIES} weight entries")
        weights = {}
        for box_id, part in parts.items():
            if not _is_count(part) or part >= k:
                raise ValidationError(f"box {box_id!r} has invalid part index {part!r}")
            weights[box_id] = (0,) * part + (1,) + (0,) * (k - 1 - part)
        return MatroidSideConstraint(MatroidSideConstraint.PARTITION, weights, tuple(capacities))


# Per side kind: its constructor, the document keys of the box entries and of
# the capacity vector, what that vector must hold and the name of one entry.
_SIDE_FORMS = {
    MatroidSideConstraint.KNAPSACK: (MatroidSideConstraint.knapsack, "weights", "capacity",
                                     "a nonempty capacity vector", "capacity entry"),
    MatroidSideConstraint.PARTITION: (MatroidSideConstraint.partition, "parts", "capacities",
                                      "at least one part", "part capacity"),
}


class Instance(Record):
    """A full problem instance: boxes plus order and side constraints."""

    boxes: tuple[BoxSpec, ...]
    constraint: ConstraintGraph = ConstraintGraph.unconstrained()
    side: MatroidSideConstraint = MatroidSideConstraint.none()

    @property
    def n(self) -> int:
        return len(self.boxes)

    @cached_property
    def box_map(self) -> dict[str, BoxSpec]:
        return {b.id: b for b in self.boxes}

    @cached_property
    def order_model(self) -> "OrderModel":
        return OrderModel.of(self)

    def support_union(self) -> tuple[Fraction, ...]:
        """Sorted union of {0} and every reward support value."""
        values = {Fraction(0)}
        for b in self.boxes:
            values.update(b.reward.values())
        return tuple(sorted(values))


def _validate_constraint(instance: Instance) -> None:
    graph = instance.constraint
    kind = graph.kind
    ids = set(instance.box_map)
    if kind not in ConstraintKind.ALL:
        raise ValidationError(f"unknown constraint kind {kind!r}")
    for parent, child in graph.edges:
        for endpoint in (parent, child):
            if endpoint not in ids:
                raise ValidationError(
                    f"edge ({parent!r}, {child!r}) references unknown box {endpoint!r}"
                )
    for root in graph.roots:
        if root not in ids:
            raise ValidationError(f"declared root {root!r} is not a box")
    if kind == ConstraintKind.UNCONSTRAINED:
        if graph.edges:
            raise ValidationError("unconstrained instances must not declare edges")
        return

    edges = set()
    for parent, child in graph.edges:  # parent masks below merge duplicates
        if (parent, child) in edges:
            raise ValidationError(f"duplicate edge into box {child!r}")
        edges.add((parent, child))
    model = instance.order_model
    if kind != ConstraintKind.DAG:  # line / tree / forest: at most one parent each
        for _, child in graph.edges:
            mask = model.parent_masks[model.index[child]]
            if mask & (mask - 1):
                parents = sorted(p for j, p in enumerate(model.ids) if mask >> j & 1)
                raise ValidationError(f"box {child!r} has multiple parents {parents}")
    _check_acyclic(model)
    roots = [box_id for box_id, mask in zip(model.ids, model.parent_masks) if not mask]
    if graph.roots and set(graph.roots) != set(roots):
        what = "in-degree-0 boxes" if kind == ConstraintKind.DAG else "parentless boxes"
        raise ValidationError(f"declared roots {sorted(graph.roots)} differ from {what} {sorted(roots)}")
    if kind in (ConstraintKind.LINE, ConstraintKind.TREE) and len(roots) != 1:
        raise ValidationError(f"{kind} constraint needs exactly one root, found {sorted(roots)}")
    if kind == ConstraintKind.LINE:
        for box_id, children in zip(model.ids, model.children):
            if len(children) > 1:
                raise ValidationError(f"line constraint branches at box {box_id!r}")


def _check_acyclic(model: "OrderModel") -> None:
    """Kahn's algorithm over the compiled parent masks and child lists."""
    indegree = [mask.bit_count() for mask in model.parent_masks]
    queue = [i for i, deg in enumerate(indegree) if deg == 0]
    seen = 0
    while queue:
        i = queue.pop()
        seen += 1
        for child in model.children[i]:
            indegree[child] -= 1
            if indegree[child] == 0:
                queue.append(child)
    if seen != len(indegree):
        stuck = sorted(box_id for box_id, deg in zip(model.ids, indegree) if deg > 0)
        raise ValidationError(f"constraint contains a cycle through {stuck}")


def _is_count(x: object) -> bool:
    """A nonnegative int; JSON ``true``/``false`` are not counts."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _validate_side(instance: Instance) -> None:
    side = instance.side
    if side.kind == MatroidSideConstraint.NONE:
        if side.weights or side.capacity:
            raise ValidationError("side constraint 'none' takes no weights and no capacity")
        return
    if side.kind not in tuple(_SIDE_FORMS):  # a tuple: a hand-built kind may be unhashable
        raise ValidationError(f"unknown side constraint kind {side.kind!r}")
    _, entries, _, needs, entry = _SIDE_FORMS[side.kind]
    d, bound = len(side.capacity), CAPACITY_FACTOR * instance.n
    if d < 1:
        raise ValidationError(f"{side.kind} constraint needs {needs}")
    for cap in side.capacity:
        if not _is_count(cap):
            raise ValidationError(f"{entry} {cap!r} is not a nonnegative integer")
        if cap > bound:
            raise ValidationError(f"{entry} {cap} exceeds the {bound} (= {CAPACITY_FACTOR}n) bound")
    for box in instance.boxes:
        w = side.weights.get(box.id)
        if w is None:
            raise ValidationError(f"{side.kind} {entries} missing for box {box.id!r}")
        if len(w) != d:
            raise ValidationError(f"weight vector for box {box.id!r} has dimension {len(w)}, expected {d}")
        if not all(_is_count(x) for x in w):
            raise ValidationError(f"weight vector for box {box.id!r} has a negative or non-integer entry")
        if side.kind == MatroidSideConstraint.PARTITION and sum(w) != 1:
            raise ValidationError(f"weight vector for box {box.id!r} is not a unit vector")
    for extra in set(side.weights) - set(instance.box_map):
        raise ValidationError(f"{side.kind} {entries} reference unknown box {extra!r}")


def validate_instance(instance: Instance) -> Instance:
    """Check every model invariant; raises :class:`ValidationError` naming the
    offending box or edge.  Returns the instance for chaining."""
    if instance.n < 1:
        raise ValidationError("instance needs at least one box")
    seen: set[str] = set()
    for box in instance.boxes:
        if not box.id:
            raise ValidationError("box ids must be nonempty")
        if box.id in seen:
            raise ValidationError(f"duplicate box id {box.id!r}")
        seen.add(box.id)
        if box.id.startswith(RESERVED_ID_PREFIX):
            raise ValidationError(f"box id {box.id!r} uses the reserved prefix {RESERVED_ID_PREFIX!r}")
        if box.cost < 0:
            raise ValidationError(f"box {box.id!r} has negative cost {describe_rational(box.cost)}")
    _validate_constraint(instance)
    _validate_side(instance)
    return instance


# ---------------------------------------------------------------------------
# Instance document I/O
# ---------------------------------------------------------------------------

def _instance_from_obj(obj: object) -> Instance:
    if not isinstance(obj, dict):
        raise ParseError("instance document must be a JSON object")
    raw_boxes = obj.get("boxes")
    if not isinstance(raw_boxes, list) or not raw_boxes:
        raise ParseError("document needs a nonempty 'boxes' array")
    boxes = []
    for raw in raw_boxes:
        if not isinstance(raw, dict):
            raise ParseError("each box must be an object")
        try:
            box_id = raw["id"]
            cost = parse_rational(raw["cost"])
            reward_raw = raw["reward"]
        except KeyError as exc:
            raise ParseError(f"box is missing field {exc}") from None
        if not isinstance(box_id, str):
            raise ParseError(f"box id {box_id!r} must be a string")
        if not isinstance(reward_raw, list) or not reward_raw:
            raise ParseError(f"box {box_id!r} needs a nonempty 'reward' array")
        try:
            atoms = [
                (parse_rational(a["value"]), parse_rational(a["prob"]))
                for a in reward_raw
            ]
        except (KeyError, TypeError):
            raise ParseError(f"box {box_id!r} has a malformed reward atom") from None
        try:
            reward = DiscreteDistribution.of(atoms)
        except ValidationError as exc:
            raise ValidationError(f"box {box_id!r}: {exc}") from None
        boxes.append(BoxSpec(id=box_id, cost=cost, reward=reward))

    raw_constraint = obj.get("constraint", {"kind": ConstraintKind.UNCONSTRAINED})
    if not isinstance(raw_constraint, dict) or "kind" not in raw_constraint:
        raise ParseError("'constraint' must be an object with a 'kind'")
    edges_raw = raw_constraint.get("edges", [])
    if not isinstance(edges_raw, list):
        raise ParseError("'constraint.edges' must be an array")
    edges = []
    for e in edges_raw:
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and all(isinstance(x, str) for x in e)):
            raise ParseError(f"edge {e!r} must be a [parent, child] pair of box ids")
        edges.append((e[0], e[1]))
    roots = raw_constraint.get("roots", [])
    if not isinstance(roots, list) or not all(isinstance(r, str) for r in roots):
        raise ParseError("'constraint.roots' must be an array of box ids")
    constraint = ConstraintGraph(
        kind=raw_constraint["kind"], edges=tuple(edges), roots=tuple(roots)
    )

    raw_side = obj.get("side")
    if raw_side is None:
        side = MatroidSideConstraint.none()
    elif not isinstance(raw_side, dict) or "kind" not in raw_side:
        raise ParseError("'side' must be an object with a 'kind'")
    elif raw_side["kind"] == MatroidSideConstraint.NONE:
        side = MatroidSideConstraint.none()
    elif raw_side["kind"] in tuple(_SIDE_FORMS):  # a tuple: a kind may be unhashable JSON
        make, entries, capacity = _SIDE_FORMS[raw_side["kind"]][:3]
        try:
            side = make(raw_side[entries], tuple(raw_side[capacity]))
        except (KeyError, TypeError, AttributeError):
            raise ParseError(f"malformed {raw_side['kind']} side constraint") from None
    else:
        raise ParseError(f"unknown side constraint kind {raw_side['kind']!r}")

    return Instance(boxes=tuple(boxes), constraint=constraint, side=side)


def load_instance(text: str) -> Instance:
    """Parse and validate an instance document of at most MAX_DOCUMENT_BYTES."""
    if len(text) > MAX_DOCUMENT_BYTES or len(text.encode("utf-8", "surrogatepass")) > MAX_DOCUMENT_BYTES:
        raise CapExceededError(f"instance document is larger than {MAX_DOCUMENT_BYTES} bytes")
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    return validate_instance(_instance_from_obj(obj))


def dump_instance(instance: Instance) -> str:
    """Serialize an instance back into the document format."""
    obj: dict[str, object] = {
        "boxes": [
            {
                "id": b.id,
                "cost": format_rational(b.cost),
                "reward": [
                    {"value": format_rational(v), "prob": format_rational(p)}
                    for v, p in b.reward.atoms
                ],
            }
            for b in instance.boxes
        ],
        "constraint": {
            "kind": instance.constraint.kind,
            "edges": [list(e) for e in instance.constraint.edges],
            "roots": list(instance.constraint.roots),
        },
    }
    side = instance.side
    if side.kind == MatroidSideConstraint.KNAPSACK:
        obj["side"] = {"kind": side.kind, "weights": {k: list(v) for k, v in side.weights.items()},
                       "capacity": list(side.capacity)}
    elif side.kind == MatroidSideConstraint.PARTITION:
        obj["side"] = {"kind": side.kind, "parts": {k: v.index(1) for k, v in side.weights.items()},
                       "capacities": list(side.capacity)}
    return json.dumps(obj, indent=2)


# ---------------------------------------------------------------------------
# Exact distribution arithmetic
# ---------------------------------------------------------------------------

def weitzman_reservation(box: BoxSpec) -> Fraction:
    """Smallest z with E[(X - z)_+] = cost (:func:`reservation_scan` of the reward)."""
    return reservation_scan(box.reward.integer, box.cost, box.id)


def reservation_scan(w: IntDistribution, cost: Fraction, box_id: str) -> Fraction:
    """Smallest z with E[(W - z)_+] = cost.

    The excess is convex and nonincreasing in z, and linear between
    consecutive support values.  One scan from the top keeps the tail
    mass M = mass/den and tail sum S = tail/(den·scale) of the atoms at or
    above the current segment, on which the excess is S - z·M: int tests find
    the crossing segment, inverted into the one ``Fraction``.  Negative when
    cost > E[W]; the top of the support when cost = 0."""
    c_num, c_den = cost.numerator, cost.denominator
    if c_num < 0:
        raise ValidationError(f"box {box_id!r} has negative cost {describe_rational(cost)}")
    keys, probs = w.keys, w.probs
    if not c_num:
        return Fraction(keys[-1], w.scale)
    bound = c_num * w.den * w.scale  # cost·den·scale·c_den
    mass = tail = 0
    for j in range(len(keys) - 1, -1, -1):
        mass += probs[j]
        tail += probs[j] * keys[j]
        # below the support (j = 0) the excess is E[W] - z
        if j == 0 or (tail - keys[j - 1] * mass) * c_den > bound:
            return Fraction(tail * c_den - bound, mass * w.scale * c_den)
    raise InvariantError("a distribution without atoms")  # pragma: no cover (j = 0 returns)


class IntegerBoxes(Record):
    """Boxes and a sorted grid y_0 < y_1 < ... as Python ints (in lists: CPython
    keeps tuples built from generators in its free list) for the backward DPs.
    L = ``scale`` is the lcm of the grid's and costs' denominators, D_i =
    ``dens[i]`` that of box i's probabilities.  A value with the boxes R unopened
    is the int N of N / (L * prod_{i in R} D_i).  At that scale r, stopping at
    grid index k is ``grid[k] * r`` (``grid[k]`` = y_k * L); opening box i is
    ``-costs[i] * r`` (``costs[i]`` = c_i * L) plus a * N(child) over
    ``atoms[i]`` (grid index, a = p * D_i), children at r // D_i."""

    __slots__ = ("scale", "dens", "costs", "atoms", "grid")

    def step(self, i: int, after: list[int], r: int, at: Iterable[int]) -> list[int]:
        """The values in front of box i at scale r, given ``after`` behind it (at
        r // D_i), at the grid indices ``at`` and 0 elsewhere: the larger of stopping
        and opening box i."""
        cost, atoms, grid = self.costs[i] * r, self.atoms[i], self.grid
        out = [0] * len(grid)
        for yk in at:
            val = -cost
            for vk, a in atoms:
                val += a * after[vk if vk > yk else yk]
            stop = grid[yk] * r
            out[yk] = val if val > stop else stop
        return out


def integer_boxes(boxes: Sequence[BoxSpec], grid: Sequence[Fraction]) -> IntegerBoxes:
    """:class:`IntegerBoxes` of ``boxes`` on ``grid`` (every support value in it).
    D_i and the atom numerators are those of the box's cached ``reward.integer``."""
    scale = math.lcm(*[q.denominator for q in (*grid, *[b.cost for b in boxes])])
    index = {(y.numerator, y.denominator): k for k, y in enumerate(grid)}
    rewards = [b.reward.integer for b in boxes]
    atoms = [[(index[v.numerator, v.denominator], a) for (v, _), a in zip(b.reward.atoms, r.probs)]
             for b, r in zip(boxes, rewards)]
    costs, ys = ([q.numerator * (scale // q.denominator) for q in qs] for qs in ([b.cost for b in boxes], grid))
    return IntegerBoxes(scale, [r.den for r in rewards], costs, atoms, ys)


# ---------------------------------------------------------------------------
# Openability semantics shared by the executors and the exact oracle
# ---------------------------------------------------------------------------

class OrderModel(Record):
    """Openability of one instance, compiled once (``Instance.order_model``).

    Boxes are addressed by their position in ``Instance.boxes``: an opened
    set is a bitmask over positions, and its side load is the sum of the
    opened boxes' weight vectors.  One rule covers every constraint kind: a
    box may be opened when it has no in-edge or some in-neighbour is open
    (validation leaves line/tree/forest boxes at most one parent), and the
    load after adding it stays within ``capacity``.  Weights are
    nonnegative, so a load only grows as boxes open.
    """

    ids: tuple[str, ...]
    index: Mapping[str, int]
    parent_masks: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[int, ...], ...]
    capacity: tuple[int, ...]

    @staticmethod
    def of(instance: Instance) -> "OrderModel":
        ids = tuple(b.id for b in instance.boxes)
        index = {box_id: i for i, box_id in enumerate(ids)}
        parent_masks = [0] * len(ids)
        children: list[list[int]] = [[] for _ in ids]
        for parent, child in instance.constraint.edges:
            parent_masks[index[child]] |= 1 << index[parent]
            children[index[parent]].append(index[child])
        side = instance.side
        zero = (0,) * len(side.capacity)  # the weight of a box the side leaves out (validation refuses it)
        return OrderModel(ids, index, tuple(parent_masks), tuple(map(tuple, children)),
                          tuple([tuple(side.weights.get(i, zero)) for i in ids]), tuple(side.capacity))

    @property
    def empty_load(self) -> tuple[int, ...]:
        return (0,) * len(self.capacity)

    def order_allows(self, mask: int, i: int) -> bool:
        parents = self.parent_masks[i]
        return not parents or bool(mask & parents)

    def try_open(self, mask: int, load: tuple[int, ...], i: int) -> tuple[int, ...] | None:
        """The load after opening box ``i`` next, or None when the box is open
        already, its order rule fails or the load overflows."""
        if mask >> i & 1 or not self.order_allows(mask, i):
            return None
        return self.add(load, i)

    def add(self, load: tuple[int, ...], i: int) -> tuple[int, ...] | None:
        """The load after opening box ``i``, or None when it overflows."""
        if not self.capacity:
            return load
        out = tuple(map(operator.add, load, self.weights[i]))
        return out if all(map(operator.le, out, self.capacity)) else None

    def mask_of(self, ids: Iterable[str]) -> int:
        mask = 0
        for box_id in ids:
            mask |= 1 << self.index[box_id]
        return mask

    def load_of(self, mask: int) -> tuple[int, ...] | None:
        """The load of an opened set, or None when the set overflows."""
        load: tuple[int, ...] | None = self.empty_load
        for i in range(len(self.ids)):
            if load is not None and mask >> i & 1:
                load = self.add(load, i)
        return load


class PreOrderIndex(Record):
    """Pre-order positions (1-based) and the first-position-outside-the-
    subtree jump table; ``next_position[i-1]`` is n+1 past the last tree.

    The children of position i are i+1, next(i+1), ... before next(i), and
    the roots are the same chain from position 1 to n+1.
    """

    __slots__ = ("order", "next_position")

    @property
    def n(self) -> int:
        return len(self.order)


def build_preorder(instance: Instance) -> PreOrderIndex:
    """Pre-order over a line/tree/forest, roots and children in ascending id
    order, walked with an explicit stack so depth costs no recursion."""
    kind = instance.constraint.kind
    if kind == ConstraintKind.DAG or kind not in ConstraintKind.ALL:
        raise UnsupportedConstraintError(f"pre-order needs a tree-like constraint, not {kind!r}")
    model = instance.order_model
    if any(mask & (mask - 1) for mask in model.parent_masks):
        raise ValidationError("pre-order needs at most one parent per box")
    by_id = model.ids.__getitem__
    stack = sorted((i for i, mask in enumerate(model.parent_masks) if not mask), key=by_id, reverse=True)
    order: list[int] = []
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(sorted(model.children[i], key=by_id, reverse=True))
    if len(order) != len(model.ids):
        raise ValidationError("constraint contains a cycle")
    size = [1] * len(order)
    for i in reversed(order):  # children follow their parent in pre-order
        if model.parent_masks[i]:
            size[model.parent_masks[i].bit_length() - 1] += size[i]
    return PreOrderIndex(tuple(model.ids[i] for i in order), tuple(p + 1 + size[i] for p, i in enumerate(order)))


def constraint_allows(instance: Instance, opened: Iterable[str], box_id: str) -> bool:
    """May ``box_id`` be opened next, given the opened set (order rule only)?"""
    model = instance.order_model
    return model.order_allows(model.mask_of(opened), model.index[box_id])


def feasible_next(instance: Instance, opened: Iterable[str]) -> list[str]:
    """Boxes openable next, in instance order."""
    model = instance.order_model
    mask = model.mask_of(opened)
    load = model.load_of(mask)
    if load is None:
        return []
    return [box_id for i, box_id in enumerate(model.ids) if model.try_open(mask, load, i) is not None]


def set_feasibility_violation(instance: Instance, ids: Iterable[str]) -> str | None:
    """None when ``ids`` is a feasible set to open (in some order), else a
    message naming the violated constraint.

    The order graph is acyclic, so a set can be opened one box at a time
    exactly when each of its boxes has no in-edge or a parent in the set.
    """
    chosen = set(ids)
    for box_id in sorted(chosen - instance.box_map.keys()):
        return f"unknown box {box_id!r}"
    model = instance.order_model
    mask = model.mask_of(chosen)
    stuck = sorted(b for b in chosen if not model.order_allows(mask, model.index[b]))
    if stuck:
        return f"order constraint: boxes {stuck} have no parent in the set"
    if model.load_of(mask) is None:
        return f"side constraint {instance.side.kind!r} violated"
    return None


def max_sweep(dists: Sequence[IntDistribution]) -> IntDistribution:
    """Exact distribution of max(X_1, ..., X_k) for independent X_i (one input: itself, not a copy).

    Values go over the lcm of the input scales, probabilities over prod d_j,
    and the CDF of the max is the product of the inputs' CDF numerators c_j.
    Two inputs are merged in one pass over their sorted keys
    (:func:`_max_of_two`), with the product formed as c_1·c_2.  Three or more
    take one sweep over all atoms sorted together, which keeps the number of
    inputs still at 0 and the int product of the others, updated by
    ``// old * new``, so after the sort each atom costs O(1) int operations
    however many inputs.  The carrier is the lcm of the inputs' carriers."""
    if not dists:
        raise ValidationError("max_sweep needs at least one distribution")
    if len(dists) == 1:
        return dists[0]
    if len(dists) == 2:
        a, b = dists
        scale = math.lcm(a.scale, b.scale)
        keys, probs = _max_of_two(a, b, scale)
        return IntDistribution(keys, scale, probs, a.den * b.den, math.lcm(a.carrier, b.carrier))
    scale = math.lcm(*[d.scale for d in dists])
    events = []
    for j, d in enumerate(dists):
        f = scale // d.scale
        events += zip(d.keys if f == 1 else [k * f for k in d.keys], itertools.repeat(j), d.probs)
    events.sort()
    cdfs = [0] * len(dists)
    at_zero, product = len(dists), 1
    keys, probs, prev_cdf = [], [], 0
    for key, group in itertools.groupby(events, key=operator.itemgetter(0)):
        for _, j, p in group:
            old, cdfs[j] = cdfs[j], cdfs[j] + p
            if old:
                product = product // old * cdfs[j]
            else:
                at_zero -= 1
                product *= cdfs[j]
        if not at_zero:
            keys.append(key)
            probs.append(product - prev_cdf)
            prev_cdf = product
    return IntDistribution(keys, scale, probs, math.prod([d.den for d in dists]),
                           math.lcm(*[d.carrier for d in dists]))


def _max_of_two(a: IntDistribution, b: IntDistribution, scale: int) -> tuple[list[int], list[int]]:
    """Keys over ``scale`` and numerators over a.den·b.den of max(A, B), by one merge
    pass: each key of the input with fewer atoms is found among the other's keys by
    bisection, and the other's atoms below it, where the first CDF stays c, each add
    c times their numerator.  Neither input's lists change."""
    if len(a.keys) > len(b.keys):
        a, b = b, a
    fa, fb = scale // a.scale, scale // b.scale
    a_keys = a.keys if fa == 1 else [k * fa for k in a.keys]
    b_keys = b.keys if fb == 1 else [k * fb for k in b.keys]
    b_probs, n = b.probs, len(b_keys)
    keys, probs = [], []
    ca = cb = j = 0  # CDF numerators: A's below the current key, B's over its atoms before j
    for key, p in zip(a_keys, a.probs):
        stop = bisect_left(b_keys, key, j)
        if ca:
            keys += b_keys[j:stop]
            probs += [ca * q for q in b_probs[j:stop]]
        cb += sum(b_probs[j:stop])
        below = ca * cb
        if stop < n and b_keys[stop] == key:
            cb += b_probs[stop]
            stop += 1
        j, ca = stop, ca + p
        if cb:
            keys.append(key)
            probs.append(ca * cb - below)
    keys += b_keys[j:]
    probs += [ca * q for q in b_probs[j:]]
    return keys, probs
