"""Dependency-graph nodes.

Section 4.1: "Nodes of this graph are created to represent each
incremental procedure instance, as well as each global variable location
accessed by these procedure instances."  Each node carries the cached
``value`` and the boolean ``consistent`` field, exactly as the paper's
``value(u)`` and ``consistent(u)``.

Three kinds of node exist:

* ``STORAGE`` — an abstract storage location (a tracked cell, object
  field, or array slot).  Its ``value`` mirrors the storage contents as
  last seen by the incremental computation.
* ``DEMAND`` — an incremental procedure instance with lazy (demand)
  evaluation.  Propagation only flips its ``consistent`` flag; the body
  re-runs on the next call (Section 4.5).
* ``EAGER`` — an incremental procedure instance re-executed during
  propagation itself (Section 4.5).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Optional, Tuple

from .edges import EdgeList

_node_ids = itertools.count()

#: Sentinel for "this node has never held a value".  Distinct from None
#: because None is a legitimate cached value.
NO_VALUE = object()


class Poisoned:
    """A captured procedure-body failure, cached in place of a value.

    When fault containment is on (``Runtime(containment=True)``, the
    default) and an incremental procedure body raises a containable
    exception, the exception is recorded here instead of tearing down
    propagation: ``error`` is the original exception and ``origin`` the
    label of the node whose body raised it (poison read through a
    dependency chain keeps pointing at the root cause).  A poisoned node
    is *consistent* — its poison faithfully reflects its current inputs
    — and demand reads surface it as a typed
    :class:`~repro.core.errors.NodeExecutionError`.  A ``Poisoned``
    value equals nothing (see :func:`values_equal`), so healing writes
    always propagate past it.

    ``stale_value``/``stamp`` retain the last good value the poison
    overwrote (``NO_VALUE``/None when the node never produced one, and
    chained through successive poisonings), so degraded reads
    (``rt.read(..., staleness=ALLOW_STALE)``, :mod:`repro.resil`) can
    serve an old answer instead of an error.  ``stamp`` is a
    ``time.monotonic`` timestamp of when the value went stale; neither
    field survives persistence — a recovered poison has no history.
    """

    __slots__ = ("error", "origin", "stale_value", "stamp")

    def __init__(self, error: BaseException, origin: str) -> None:
        self.error = error
        self.origin = origin
        self.stale_value: Any = NO_VALUE
        self.stamp: Optional[float] = None

    def __repr__(self) -> str:
        return f"<poisoned by {type(self.error).__name__} at {self.origin!r}>"


def values_equal(a: Any, b: Any) -> bool:
    """Change-detection equality (§4.4) and quiescence equality (§4.5).

    Identity is checked *before* ``==`` so that (a) re-storing the very
    same object — including NaN, whose ``==`` is reflexively false — is
    never reported as a change, and (b) expensive ``__eq__``
    implementations are skipped on the common same-object write.  A
    raising or non-boolean ``__eq__`` (e.g. ambiguous array comparisons)
    conservatively reports "changed": over-propagation is correct,
    a corrupted inconsistent set is not.  ``NO_VALUE`` equals nothing,
    itself included — a node that never held a value has no basis for
    quiescence.  ``Poisoned`` likewise equals nothing, not even an
    identical poison: propagation must never quiesce on a failure, or
    healing writes could be cut off downstream of it.
    """
    if a is NO_VALUE or b is NO_VALUE:
        return False
    if type(a) is Poisoned or type(b) is Poisoned:
        return False
    if a is b:
        return True
    try:
        return bool(a == b)
    except Exception:
        return False


class NodeKind(enum.Enum):
    """What a dependency-graph node represents."""

    STORAGE = "storage"
    DEMAND = "demand"
    EAGER = "eager"


class DepNode:
    """One vertex of the Alphonse dependency graph.

    Attributes mirror the paper's fields: ``value`` is ``value(u)``,
    ``consistent`` is ``consistent(u)``, ``succ``/``pred`` are the edge
    lists, and ``ref`` is ``ref(n)`` — a pointer back to the storage
    location or procedure instance the node represents.
    """

    __slots__ = (
        "node_id",
        "kind",
        "value",
        "consistent",
        "succ",
        "pred",
        "ref",
        "label",
        "order",
        "partition_item",
        "thunk",
        "executing",
        "activation_seq",
        "in_inconsistent_set",
        "static_edges",
        "edges_frozen",
        "disposed",
    )

    def __init__(
        self,
        kind: NodeKind,
        *,
        label: str = "",
        ref: Any = None,
        thunk: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.node_id: int = next(_node_ids)
        self.kind = kind
        self.value: Any = NO_VALUE
        #: Storage nodes are always "consistent" in the paper's sense
        #: (their value *is* the truth); procedure nodes start inconsistent
        #: so their first call executes the body (Algorithm 5's TableAdd
        #: path sets consistent(n) := FALSE).
        self.consistent: bool = kind is NodeKind.STORAGE
        self.succ = EdgeList("succ")
        self.pred = EdgeList("pred")
        self.ref = ref
        self.label = label or f"{kind.value}#{self.node_id}"
        #: Topological order key maintained by repro.core.order.
        self.order: int = 0
        #: Handle used by repro.core.partition's union-find.
        self.partition_item: Any = None
        #: For procedure nodes: a zero-argument callable that re-runs the
        #: procedure body with this node's bound arguments.  Installed by
        #: the runtime when the instance is first called; used by eager
        #: propagation to re-execute without a caller.
        self.thunk = thunk
        #: Re-entrancy depth: how many activations of this node's body are
        #: currently on the call stack.  Re-entrant execution is legal
        #: Alphonse (Algorithm 11's Balance recursion); see Runtime.
        self.executing: int = 0
        #: Monotonic id of the most recently *started* activation.  An
        #: activation only commits its result to ``value`` if no newer
        #: activation started while it ran (see Runtime.execute_node).
        self.activation_seq: int = 0
        #: Membership flag so set insertion in propagation is O(1) without
        #: hashing the node twice.
        self.in_inconsistent_set: bool = False
        #: §6.2 static graph construction: the procedure declared that its
        #: referenced-argument set never changes across executions, so the
        #: dependency subgraph built by the first execution is kept —
        #: re-executions skip matching their reads against it.
        self.static_edges: bool = False
        #: True once a static-edge node's first execution built its edges.
        self.edges_frozen: bool = False
        #: Set by cache eviction: the node must stay detached from the
        #: graph and out of every inconsistent set (audited by
        #: ``Runtime.check_invariants``).
        self.disposed: bool = False

    @property
    def is_storage(self) -> bool:
        return self.kind is NodeKind.STORAGE

    @property
    def is_procedure(self) -> bool:
        return self.kind is not NodeKind.STORAGE

    @property
    def is_eager(self) -> bool:
        return self.kind is NodeKind.EAGER

    def has_value(self) -> bool:
        return self.value is not NO_VALUE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "ok" if self.consistent else "DIRTY"
        return f"<{self.label} {flag}>"


def procedure_instance_label(name: str, args: Tuple[Any, ...]) -> str:
    """Human-readable label for the node of ``name(*args)``.

    Used by debugging output (the paper lists "sophisticated debugging"
    as a benefit of the maintained dependency information).
    """
    if not args:
        return f"{name}()"
    rendered = ", ".join(_short(a) for a in args)
    return f"{name}({rendered})"


def _short(value: Any, limit: int = 24) -> str:
    text = repr(value)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text
