"""Core value types of the action-trajectory DSL and the closed action vocabulary."""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import re
import reprlib
from dataclasses import _HAS_DEFAULT_FACTORY, MISSING, FrozenInstanceError, dataclass, field
from operator import is_
from typing import TYPE_CHECKING, Callable, Union, get_args

from .errors import BindingError

if TYPE_CHECKING:
    from .sqlast import SelectCore

DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
BINDING_RE = re.compile(r"df[0-9]+|res|df")
# `df0` .. `df63`: the numbered binding names, one string each, shared by
# every trajectory that `binding_name` numbers
_BINDING_NAMES = tuple(f"df{n}" for n in range(64))

AGGREGATE_KINDS = ("count", "sum", "average", "min", "max")
SQL_AGGREGATES = {"count": "count", "sum": "sum", "average": "avg", "min": "min", "max": "max"}
ARITHMETIC_OPS = ("+", "-", "*", "/")
COMPARATORS = ("=", "!=", "<", "<=", ">", ">=", "like", "in", "not in",
               "between", "is null", "is not null")
COMPOUND = "compound"

# Deepest nesting a query or a trajectory may reach (see `sqlast.BoundedParser`
# and `check_bindings`); deeper text is a syntax error rather than a recursion
# fault in a later walk of its tree.
MAX_DEPTH = 32


def valid_identifier(name: str) -> bool:  # [A-Za-z_][A-Za-z0-9_ ]*, no space at either end
    return name.isascii() and name.replace(" ", "_").isidentifier() and name == name.strip()


def binding_name(n: int) -> str:
    """The binding name `df{n}`, for n below 64 one shared string."""
    return _BINDING_NAMES[n] if n < len(_BINDING_NAMES) else f"df{n}"


def frozen(cls: type) -> type:
    """`@dataclass(frozen=True, slots=True)` that compiles only its hot
    methods. The dataclass supplies the fields, the slots and
    `__match_args__`; one generated source per class holds `__init__`, which
    sets each init field through its slot's member descriptor (`__set__`),
    not through `object.__setattr__` as a frozen dataclass sets it, and
    `__eq__` and `__hash__`, which compare and hash the fields as the
    dataclass's do. The cold methods are closures over code compiled once, in
    this module: `__repr__`, the `FrozenInstanceError` guards of
    `__setattr__` and `__delattr__`, and `__getstate__`/`__setstate__` for
    copy and pickle. The signature, defaults, default factories,
    `__post_init__` call, `__doc__`, repr, `==`, hash and error messages are
    the frozen dataclass's. Two things differ: setting an attribute that is
    no field raises `FrozenInstanceError`, where the slotted frozen
    dataclass of Python 3.11 raises a `TypeError` from its `super()` call,
    and `__dataclass_params__.frozen` reads False. Every
    immutable value type is built this way: the node types of the
    trajectory and the SQL tree, and the frozen records of every module."""
    return _dataclass(cls, _node_methods, slots=True, init=False, eq=False)


def record(slots: bool = True) -> Callable[[type], type]:
    """`@dataclass(slots=...)`, a mutable record, with the `__repr__` that
    `frozen` shares in place of a compiled one (a `field(repr=False)` is left
    out as before), and its `__doc__` rendered without `inspect`. The mutable
    records of every module are slotted; the stage backends, whose `invoke`
    a caller may replace on an instance, are not."""
    return lambda cls: _dataclass(cls, None, slots=slots)


def _dataclass(cls: type, methods: Callable | None, **params: bool) -> type:
    """`dataclass(repr=False, **params)` of `cls`, given the shared `__repr__`
    and `methods(cls, fields)`, and for want of a docstring the one the
    dataclass would render."""
    doc = cls.__doc__
    cls.__doc__ = doc or "-"  # else the dataclass renders one through `inspect`
    cls = dataclass(repr=False, **params)(cls)
    fields = dataclasses.fields(cls)
    for name, fn in {"__repr__": _repr_method(fields),
                     **(methods(cls, fields) if methods else {})}.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        fn.__module__ = cls.__module__
        setattr(cls, name, fn)
    cls.__doc__ = doc or _signature_doc(cls, fields)
    return cls


def _node_methods(cls: type, fields: tuple[dataclasses.Field, ...]) -> dict[str, Callable]:
    """A frozen type's methods: `__init__`, `__eq__` and `__hash__` compiled
    from one source, and the shared frozen ones. `__init__` takes the init
    fields; a `field(init=False)`, which takes no default, is left for
    `__post_init__` to set, and is kept in the pickle state like any other."""
    if len(fields) != len(cls.__dataclass_fields__) or any(f.kw_only for f in fields):
        raise TypeError(f"{cls.__name__}: only positional fields are supported")
    params = [f for f in fields if f.init]
    if any(f.default is not MISSING or f.default_factory is not MISSING
           for f in fields if not f.init):
        raise TypeError(f"{cls.__name__}: a non-init field takes no default")
    closure: dict[str, object] = {}
    defaults: list[object] = []
    body = []
    for f in params:
        if f.default_factory is not MISSING:
            closure["__factory"] = _HAS_DEFAULT_FACTORY
            closure[f"__make_{f.name}"] = f.default_factory
            body.append(f"if {f.name} is __factory: {f.name} = __make_{f.name}()")
            defaults.append(_HAS_DEFAULT_FACTORY)
        elif f.default is not MISSING:
            defaults.append(f.default)
        elif defaults:
            raise TypeError(f"non-default argument {f.name!r} follows default argument")
        closure[f"__set_{f.name}"] = cls.__dict__[f.name].__set__
        body.append(f"__set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    compared = [f.name for f in fields if f.compare]
    hashed = [f.name for f in fields if (f.compare if f.hash is None else f.hash)]
    source = (f"def make({', '.join(closure)}):\n"
              f" def __init__({', '.join(['self', *(f.name for f in params)])}):\n"
              + "".join(f"  {line}\n" for line in body or ["pass"])
              + " def __eq__(self, other):\n"
              "  if other.__class__ is self.__class__:\n"
              f"   return {_tuple('self', compared)} == {_tuple('other', compared)}\n"
              "  return NotImplemented\n"
              " def __hash__(self):\n"
              f"  return hash({_tuple('self', hashed)})\n"
              " return __init__, __eq__, __hash__\n")
    namespace: dict[str, Callable] = {}
    exec(source, {}, namespace)
    init, eq, hash_ = namespace["make"](**closure)
    init.__defaults__ = tuple(defaults) or None
    init.__annotations__ = {**{f.name: f.type for f in params}, "return": None}
    return {"__init__": init, "__eq__": eq, "__hash__": hash_,
            **_frozen_methods(cls, tuple(f.name for f in fields))}


def _tuple(obj: str, names: list[str]) -> str:
    return f"({''.join(f'{obj}.{name},' for name in names)})"


def _repr_method(fields: tuple[dataclasses.Field, ...]) -> Callable[[object], str]:
    """The dataclass `__repr__` of `fields`, without compiling one."""
    names = tuple(f.name for f in fields if f.repr)

    @reprlib.recursive_repr()
    def __repr__(self: object) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({values})"
    return __repr__


def _frozen_methods(cls: type, names: tuple[str, ...]) -> dict[str, Callable]:
    """The frozen dataclass's assignment guards and pickle state, without
    compiling them."""
    def __setattr__(self: object, name: str, value: object) -> None:
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self: object, name: str) -> None:
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    def __getstate__(self: object) -> list:
        return [getattr(self, name) for name in names]

    def __setstate__(self: object, state: list) -> None:
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    return {"__setattr__": __setattr__, "__delattr__": __delattr__,
            "__getstate__": __getstate__, "__setstate__": __setstate__}


def _signature_doc(cls: type, fields: tuple[dataclasses.Field, ...]) -> str:
    """The `__doc__` a dataclass gives a class that has none: its name and
    the text of its `__init__` signature."""
    params = [f for f in fields if f.init and not f.kw_only]
    keywords = [f for f in fields if f.init and f.kw_only]
    parts = [*map(_param_text, params), *(["*"] if keywords else []), *map(_param_text, keywords)]
    return f"{cls.__name__}({', '.join(parts)})"


def _param_text(f: dataclasses.Field) -> str:
    text = f"{f.name}: {inspect.formatannotation(f.type)}"
    if f.default_factory is not MISSING:
        return f"{text} = {_HAS_DEFAULT_FACTORY!r}"
    return text if f.default is MISSING else f"{text} = {f.default!r}"


@frozen
class QualifiedColumn:
    """A `table.column` reference; both parts are nonempty identifiers."""

    table: str
    column: str

    def __post_init__(self) -> None:
        if not (valid_identifier(self.table) and valid_identifier(self.column)):
            raise ValueError(f"invalid qualified column {self.table!r}.{self.column!r}")

    def render(self) -> str:
        return f"{_part(self.table)}.{_part(self.column)}"


def _part(name: str) -> str:
    return f"`{name}`" if " " in name else name


@frozen
class Scalar:
    """A typed literal: int, real, string, or date-string."""

    value: int | float | str
    kind: str  # "int" | "real" | "string" | "date"

    @staticmethod
    def of(value: int | float | str) -> "Scalar":
        if isinstance(value, bool):
            raise ValueError("boolean literals are not part of the DSL")
        if isinstance(value, int):
            return Scalar(value, "int")
        if isinstance(value, float):
            return Scalar(value, "real")
        if DATE_RE.fullmatch(value):
            return Scalar(value, "date")
        return Scalar(value, "string")

    @staticmethod
    def number(text: str) -> "Scalar":
        """The literal a number token spells: real with a point or an exponent.
        Raises ValueError for a real no float holds (`1e999`) and for an integer
        longer than Python converts."""
        try:
            if "." in text or "e" in text.lower():
                value = float(text)
                if math.isfinite(value):
                    return Scalar(value, "real")
            else:
                return Scalar(int(text), "int")
        except ValueError:
            pass
        raise ValueError("number out of range")


@frozen
class Star:
    """`*`; legal only as a COUNT argument or a SELECT element (checked by
    `TrajectoryStep`)."""


@frozen
class BindingRef:
    """Reference to a step binding (`df1`, ..., `res`); never the implicit
    `df`, which no step binds."""

    name: str

    def __post_init__(self) -> None:
        if not BINDING_RE.fullmatch(self.name) or self.name == "df":
            raise ValueError(f"invalid binding name {self.name!r}")


@frozen
class Aggregate:
    kind: str  # one of AGGREGATE_KINDS
    arg: "Expr"


@frozen
class Cast:
    arg: "Expr"
    target_type: str


@frozen
class Arithmetic:
    op: str  # one of ARITHMETIC_OPS
    left: "Expr"
    right: "Expr"


@frozen
class Substr:
    arg: "Expr"
    start: int  # 1-based
    length: int | None = None


@frozen
class Func:
    """A SQL function call; SQL trees only (a trajectory spells the calls it
    supports as `Aggregate` and `Substr`)."""

    name: str  # lowercase
    args: tuple["Expr", ...]
    distinct: bool = False


@frozen
class Subquery:
    """A scalar subquery; SQL trees only, where it holds a `sqlast.SelectCore`."""

    core: "SelectCore"


# A trajectory expression. A SQL expression (`sqlast.SqlExpr`) shares Scalar,
# Star, Cast and Arithmetic with it, and has Column, Func and Subquery of its own.
Expr = Union[QualifiedColumn, Scalar, Star, Aggregate, Cast, Arithmetic, Substr]
_TRAJECTORY_NODES = get_args(Expr)


# --- predicates ----------------------------------------------------------------

# The boolean conditions of a SQL tree, and of a compound filter condition. A
# SQL tree's operands are SQL expressions (`sqlast.SqlExpr`), a compound's are
# trajectory expressions. `expr_children` and `map_expr` walk them too.

@frozen
class Comparison:
    op: str  # = != < <= > >=
    left: Expr
    right: Expr


@frozen
class Between:
    expr: Expr
    lo: Expr
    hi: Expr
    negated: bool = False


@frozen
class InList:
    expr: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@frozen
class LikePred:
    expr: Expr
    pattern: Expr
    negated: bool = False


@frozen
class IsNull:
    expr: Expr
    negated: bool = False


@frozen
class And:
    items: tuple["Predicate", ...]


@frozen
class Or:
    items: tuple["Predicate", ...]


@frozen
class Not:
    item: "Predicate"


Predicate = Union[Comparison, Between, InList, LikePred, IsNull, And, Or, Not]
_PREDICATES = get_args(Predicate)


# node type -> (its operands left to right, the node rebuilt over new operands);
# a type not listed is a leaf, a `Subquery` included (its core is a scope
# of its own)
_OPERANDS: dict[type, tuple[Callable, Callable]] = {
    Aggregate: (lambda e: (e.arg,), lambda e, ops: Aggregate(e.kind, *ops)),
    Cast: (lambda e: (e.arg,), lambda e, ops: Cast(*ops, e.target_type)),
    Substr: (lambda e: (e.arg,), lambda e, ops: Substr(*ops, e.start, e.length)),
    Arithmetic: (lambda e: (e.left, e.right), lambda e, ops: Arithmetic(e.op, *ops)),
    Func: (lambda e: e.args, lambda e, ops: Func(e.name, ops, e.distinct)),
    Comparison: (lambda p: (p.left, p.right), lambda p, ops: Comparison(p.op, *ops)),
    Between: (lambda p: (p.expr, p.lo, p.hi), lambda p, ops: Between(*ops, p.negated)),
    InList: (lambda p: (p.expr, *p.items), lambda p, ops: InList(ops[0], ops[1:], p.negated)),
    LikePred: (lambda p: (p.expr, p.pattern), lambda p, ops: LikePred(*ops, p.negated)),
    IsNull: (lambda p: (p.expr,), lambda p, ops: IsNull(*ops, p.negated)),
    And: (lambda p: p.items, lambda p, ops: And(ops)),
    Or: (lambda p: p.items, lambda p, ops: Or(ops)),
    Not: (lambda p: (p.item,), lambda p, ops: Not(*ops)),
}


def expr_children(expr: Expr) -> tuple[Expr, ...]:
    """A node's operands, left to right, in a trajectory or a SQL tree, a
    predicate's among them."""
    spec = _OPERANDS.get(type(expr))
    return spec[0](expr) if spec is not None else ()


def map_expr(expr: Expr, fn: Callable[[Expr], Expr | None]) -> Expr:
    """Top-down copy-on-write rebuild of a trajectory or a SQL tree: `fn(node)`
    is the node's replacement, or None to keep the node and map its operands.
    A node none of whose operands changed is returned itself. A subquery's
    core is never entered."""
    out = fn(expr)
    if out is not None:
        return out
    spec = _OPERANDS.get(type(expr))
    if spec is None:
        return expr
    operands, rebuild = spec
    old = operands(expr)
    new = [map_expr(child, fn) for child in old]
    return expr if all(map(is_, new, old)) else rebuild(expr, tuple(new))


def map_tuple(items: tuple, fn: Callable, *args: object) -> tuple:
    """`fn(item, *args)` of each item; `items` itself if every call returned its item."""
    new = [fn(item, *args) for item in items]
    return items if all(map(is_, new, items)) else tuple(new)


def walk_columns(expr: Expr | Predicate, out: list[QualifiedColumn]) -> None:
    """Appends each qualified-column occurrence of `expr` to `out`, in order."""
    if isinstance(expr, QualifiedColumn):
        out.append(expr)
    for child in expr_children(expr):
        walk_columns(child, out)


def pred_exprs(pred: Predicate) -> list[Expr]:
    """The operands of a predicate's comparisons, left to right."""
    if isinstance(pred, Comparison):  # the most common predicate, with no walk
        return [pred.left, pred.right]
    if isinstance(pred, (And, Or, Not)):
        return [expr for item in expr_children(pred) for expr in pred_exprs(item)]
    if not isinstance(pred, _PREDICATES):
        raise TypeError(f"not a predicate: {pred!r}")
    return list(expr_children(pred))


FilterOperand = Union[Scalar, BindingRef]


@frozen
class FilterCondition:
    """A single comparison against the filtered element. A `compound`
    condition (an OR, or a comparison of one column with another) holds its
    predicate in canonical form (`sqlast.canonical_predicate`), over
    trajectory expressions and no subquery; it reverts to SQL but is skipped
    by parameter-level perturbation."""

    comparator: str  # member of COMPARATORS or COMPOUND
    operands: tuple[FilterOperand, ...] = ()
    predicate: Predicate | None = None

    def __post_init__(self) -> None:
        if self.comparator == COMPOUND:
            if not isinstance(self.predicate, _PREDICATES):
                raise ValueError("compound filter requires a predicate")
            _reject_subqueries(self.predicate)
            return
        if self.comparator not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.comparator!r}")
        expected = {"between": 2, "is null": 0, "is not null": 0}.get(self.comparator)
        if expected is not None and len(self.operands) != expected:
            raise ValueError(f"{self.comparator} takes {expected} operands")
        if self.comparator == "between":
            a, b = self.operands
            if isinstance(a, Scalar) and isinstance(b, Scalar) and a.kind != b.kind:
                raise ValueError("between bounds must share a scalar kind")


def _reject_subqueries(node: Predicate | Expr) -> None:
    if isinstance(node, Subquery):
        raise ValueError("subqueries inside compound predicates")
    for child in expr_children(node):
        _reject_subqueries(child)


# --- actions ---------------------------------------------------------------

@frozen
class Select:
    elements: tuple[Expr, ...]

    name = "select"


@frozen
class Where:
    element: Expr
    condition: FilterCondition

    name = "where"


@frozen
class GroupBy:
    elements: tuple[Expr, ...]

    name = "groupby"


@frozen
class Having:
    element: Expr
    condition: FilterCondition

    name = "having"


@frozen
class OrderBy:
    by: Expr
    order: str  # "asc" | "desc"

    name = "orderby"

    def __post_init__(self) -> None:
        if self.order not in ("asc", "desc"):
            raise ValueError(f"order must be asc or desc, got {self.order!r}")


@frozen
class Limit:
    count: int
    offset: int = 0

    name = "limit"

    def __post_init__(self) -> None:
        if self.count < 1 or self.offset < 0:
            raise ValueError("limit requires count >= 1 and offset >= 0")


@frozen
class Distinct:
    element: Expr

    name = "distinct"


@frozen
class Combine:
    """A dataframe set operation against another binding."""

    op: str  # "union" | "intersect" | "except"
    other: BindingRef

    @property
    def name(self) -> str:
        return self.op


@frozen
class AggStep:
    """An aggregation chained after groupby, e.g. `.count(t.c)`."""

    agg: Aggregate

    @property
    def name(self) -> str:
        return self.agg.kind


Action = Union[Select, Where, GroupBy, Having, OrderBy, Limit, Distinct, Combine, AggStep]


@frozen
class TrajectoryStep:
    """One `binding = receiver.action(...)...` line. Its expressions hold only
    trajectory nodes (no binding reference, and none of a SQL tree's own),
    `*` only as a top-level select element or as the argument of count, and
    no aggregate inside an aggregate."""

    binding: str
    receiver: str
    chain: tuple[Action, ...]

    def __post_init__(self) -> None:
        if not BINDING_RE.fullmatch(self.binding) or self.binding == "df":
            raise ValueError(f"invalid step binding {self.binding!r}")
        if not BINDING_RE.fullmatch(self.receiver) or self.receiver == "res":
            raise ValueError(f"invalid receiver {self.receiver!r}")
        if not self.chain:
            raise ValueError("step requires at least one action")
        for action in self.chain:
            for expr in action_exprs(action):
                _check_expr(expr, star_ok=isinstance(action, Select), in_aggregate=False)


def _check_expr(expr: Expr, star_ok: bool, in_aggregate: bool) -> None:
    if isinstance(expr, (QualifiedColumn, Scalar)):  # a leaf that may stand anywhere
        return
    if not isinstance(expr, _TRAJECTORY_NODES):
        if isinstance(expr, BindingRef):
            raise ValueError("a binding reference cannot appear inside an expression")
        raise ValueError(f"{type(expr).__name__} is no trajectory expression")
    if isinstance(expr, Star) and not star_ok:
        raise ValueError("`*` only allowed in count() or select()")
    if isinstance(expr, Aggregate):
        if in_aggregate:
            raise ValueError("aggregate argument contains an aggregate")
        in_aggregate = True
    star_ok = isinstance(expr, Aggregate) and expr.kind == "count"
    for child in expr_children(expr):
        _check_expr(child, star_ok, in_aggregate)


@frozen
class Trajectory:
    steps: tuple[TrajectoryStep, ...]

    def __post_init__(self) -> None:
        check_bindings(self.steps)

    def columns(self) -> list[QualifiedColumn]:
        """Every qualified-column occurrence, in step/render order."""
        out: list[QualifiedColumn] = []
        for step in self.steps:
            for action in step.chain:
                for expr in action_exprs(action):
                    walk_columns(expr, out)
        return out

    def action_count(self) -> int:
        return sum(len(step.chain) for step in self.steps)


def action_exprs(action: Action) -> list[Expr]:
    """Expressions carried by an action, in rendered order: a compound
    filter's own after its element."""
    if isinstance(action, (Select, GroupBy)):
        return list(action.elements)
    if isinstance(action, (Where, Having)):
        predicate = action.condition.predicate
        return [action.element] if predicate is None else [action.element, *pred_exprs(predicate)]
    if isinstance(action, Distinct):
        return [action.element]
    if isinstance(action, OrderBy):
        return [action.by]
    if isinstance(action, AggStep):
        return [action.agg]
    return []


# A frame's flags: the actions it may hold once, and the mark of a set operation.
_SELECTED, _GROUPED, _SETOP = 1, 2, 16
_ONCE = {Select: _SELECTED, GroupBy: _GROUPED, Limit: 4, Distinct: 8}


def check_bindings(steps: tuple[TrajectoryStep, ...]) -> None:
    """Every rule on how steps form one SQL query that needs no schema, in one
    pass: `revert` can build every trajectory, and checks only its tables,
    columns and join path. Bindings are assigned once, read only after, and
    `res` last. A step chains actions onto its receiver's frame (a SELECT
    core), which holds at most one select, groupby, limit and distinct, and
    a having or an aggregate step only after its groupby; or it is a set
    operation alone, of a frame or a set operation (not `df`) with a frame,
    and nothing chains onto it. A frame that is combined, filtered against
    or bound to `res` is select()ed, and a filter operand selects one
    element. No query is higher than MAX_DEPTH levels, counted as
    `sqlast.BoundedParser` counts the SQL that `revert` renders."""
    if not steps:
        raise BindingError("trajectory has no steps")
    frames: dict[str, tuple[int, ...]] = {"df": (0,) * 8}
    for step in steps:
        if step.binding in frames:
            raise BindingError(f"binding {step.binding!r} assigned twice")
        frame = frames.get(step.receiver)
        if frame is None:
            raise BindingError(f"receiver {step.receiver!r} used before assignment")
        action = step.chain[0]
        if len(step.chain) == 1 and type(action) is Combine:
            right = frames.get(action.other.name)
            if right is None:
                raise BindingError(f"set operand {action.other.name!r} used before assignment")
            if step.receiver == "df":
                raise BindingError("a set operation cannot run on the bare `df`")
            if right[0] & _SETOP:
                raise BindingError("set operation operand must be a plain select")
            _check_selected(frame)
            _check_selected(right)
            frame = (_SETOP, 0, max(frame[2], right[2]) + 1, 0, 0, 0, 0, 0)
        else:
            frame = _chain(frame, step.chain, frames)
        if frame[2] > MAX_DEPTH:
            raise BindingError(f"binding {step.binding!r} nests {frame[2]} levels of query, "
                               f"more than {MAX_DEPTH}")
        frames[step.binding] = frame
    if steps[-1].binding != "res":
        raise BindingError("`res` must be bound by the final step" if "res" in frames
                           else "no step binds `res`")
    _check_selected(frames["res"])


def _check_selected(frame: tuple[int, ...]) -> None:
    if not frame[0] & (_SETOP | _SELECTED):
        raise BindingError("frame is never select()ed")


def _chain(frame: tuple[int, ...], chain: tuple[Action, ...],
           frames: dict[str, tuple[int, ...]]) -> tuple[int, ...]:
    """`frame` with `chain` applied. A frame is (flags, select elements, SQL
    height, and what the height is the highest of: the select, groupby and
    orderby elements, and the count and highest item of the WHERE and of the
    HAVING conditions, each an AND list one level above its items)."""
    flags, width, _, elements, wheres, where_h, havings, having_h = frame
    if flags & _SETOP:
        raise BindingError("cannot chain actions after a set operation")
    for action in chain:
        kind = type(action)
        once = _ONCE.get(kind, 0)
        if flags & once:
            raise BindingError(f"more than one {action.name} on the same frame")
        flags |= once
        if kind is Select or kind is GroupBy:
            elements = max([elements, *map(_height, action.elements)])
            width = len(action.elements) if kind is Select else width
        elif kind is OrderBy:
            elements = max(elements, _height(action.by))
        elif kind is Where:
            wheres, where_h = wheres + 1, max(where_h, _filter_height(action, frames))
        elif kind is Having or kind is AggStep:
            if not flags & _GROUPED:
                raise BindingError("having without a groupby" if kind is Having
                                   else "aggregate chained without a groupby")
            if kind is Having:
                havings, having_h = havings + 1, max(having_h, _filter_height(action, frames))
        elif kind is Combine:
            raise BindingError("a set operation must be the only action in its step")
    height = max(elements, where_h + (wheres > 1), having_h + (havings > 1))
    return (flags, width, height, elements, wheres, where_h, havings, having_h)


def _filter_height(action: Where | Having, frames: dict[str, tuple[int, ...]]) -> int:
    """The SQL height of a filter; a compound's is its predicate's."""
    cond = action.condition
    if cond.comparator == COMPOUND:
        return _pred_height(cond.predicate)
    height = 0
    for op in cond.operands:
        if type(op) is not BindingRef:
            height = max(height, _height(op))
            continue
        sub = frames.get(op.name)
        if sub is None:
            raise BindingError(f"filter operand {op.name!r} used before assignment")
        if sub[0] & _SETOP:
            raise BindingError("a subquery operand cannot be a set operation")
        _check_selected(sub)
        if sub[1] != 1:
            raise BindingError("a subquery operand must select exactly one element")
        height = max(height, sub[2] + 1)  # a subquery's core is one level below it
    # an IN list's items are one level below the list
    return max(_height(action.element), height + (cond.comparator in ("in", "not in")))


def _pred_height(pred: Predicate) -> int:
    """The SQL height of a compound predicate as `sqlast.render_predicate`
    writes it, counted by its parentheses and calls, which `parse_sql` bounds
    as it bounds the tree's height and which are never fewer: an AND/OR list
    is one level above its items, `NOT (...)` two, an IN list's items one below."""
    kind = type(pred)
    if kind is And or kind is Or:
        return 1 + max(map(_pred_height, pred.items))
    if kind is Not:
        return 2 + _pred_height(pred.item)
    if kind is InList:
        return max(_height(pred.expr), 1 + max(map(_height, pred.items)))
    return max(map(_height, expr_children(pred)))


def _height(expr: Expr) -> int:
    """The SQL height of an expression: a call or an operator is one level
    above its highest operand (a substr's start and length among them), and
    a negative number's unary minus one."""
    spec = _OPERANDS.get(type(expr))
    if spec is None:
        return 1 if type(expr) is Scalar and expr.kind in ("int", "real") \
            and repr(expr.value)[0] == "-" else 0
    if type(expr) is Substr and min(expr.start, expr.length or 0) < 0:
        return 1 + max(_height(expr.arg), 1)
    return 1 + max(map(_height, spec[0](expr)))


# --- action space ----------------------------------------------------------

@frozen
class ActionSpec:
    name: str
    category: str  # "clause" | "dataframe" | "aggregation" | "operator"
    params: str
    doc: str


@frozen
class ActionSpace:
    """The closed vocabulary of actions; parse rejects anything outside it."""

    entries: tuple[ActionSpec, ...]
    # left out of the hash, as a dict has none; equal spaces still hash equal
    aliases: dict[str, str] = field(default_factory=dict, hash=False)
    _names: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_names", frozenset([e.name for e in self.entries]))

    def resolve(self, name: str) -> str | None:
        """Canonical action name for `name`, or None if outside the space."""
        lowered = name.lower()
        lowered = self.aliases.get(lowered, lowered)
        if lowered == "calculation":  # expression-level, never a chained call
            return None
        return lowered if lowered in self._names else None

    def catalog(self) -> list[dict[str, str]]:
        return [{"name": e.name, "category": e.category, "params": e.params, "doc": e.doc}
                for e in self.entries]

    def catalog_hash(self) -> str:
        import hashlib  # local import: only the CLI hashes the catalog

        blob = json.dumps(self.catalog(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


ACTION_SPACE = ActionSpace(
    entries=(
        ActionSpec("select", "clause", "select(elements...)",
                   "Project columns, aggregates, or expressions out of the frame."),
        ActionSpec("where", "clause", "where(element, filter)",
                   "Keep rows whose element satisfies the filter condition."),
        ActionSpec("groupby", "clause", "groupby(elements...)",
                   "Group rows sharing the same element values."),
        ActionSpec("having", "clause", "having(element, filter)",
                   "Filter groups by an aggregate condition."),
        ActionSpec("orderby", "clause", "orderby(by, asc|desc)",
                   "Sort rows by a column or expression."),
        ActionSpec("limit", "clause", "limit(count) | limit(offset, count)",
                   "Restrict the number of rows returned."),
        ActionSpec("distinct", "clause", "distinct(element)",
                   "Drop duplicate rows of the element."),
        ActionSpec("union", "dataframe", "df1.union(df2)",
                   "Union the result sets of two frames."),
        ActionSpec("intersect", "dataframe", "df1.intersect(df2)",
                   "Intersect the result sets of two frames."),
        ActionSpec("except", "dataframe", "df1.except(df2)",
                   "Subtract the second frame's result set from the first."),
        ActionSpec("sum", "aggregation", "sum(element)",
                   "Sum the non-null values of the element."),
        ActionSpec("average", "aggregation", "average(element)",
                   "Average the non-null values of the element."),
        ActionSpec("count", "aggregation", "count(element)",
                   "Count the values of the element."),
        ActionSpec("min", "aggregation", "min(element)",
                   "Minimum non-null value of the element."),
        ActionSpec("max", "aggregation", "max(element)",
                   "Maximum non-null value of the element."),
        ActionSpec("cast", "operator", "cast(element, type)",
                   "Convert the element to the target data type."),
        ActionSpec("calculation", "operator", "+, -, *, /",
                   "Arithmetic between two expressions (expression-level only)."),
        ActionSpec("substr", "operator", "substr(element, piv[, len])",
                   "Extract a substring starting at piv, optionally len long."),
    ),
    aliases={"avg": "average", "order_by": "orderby", "group_by": "groupby"},
)
