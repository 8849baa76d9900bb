"""Runtime support imported by compiler-generated stub modules.

The PARDIS IDL compiler generates thin classes; everything behavioural
lives here:

* :class:`ProxyBase` — ``_bind`` / ``_spmd_bind`` class methods (paper
  §3.1) and the ``_invoke``/``_invoke_nb`` entry points the generated
  per-operation stubs call;
* :class:`SkeletonBase` — base class of servant implementations;
* :class:`DSeqFactory` — the callable emitted for dsequence typedefs, so
  client code can write ``matrix(N)`` like the paper's C++;
* the container-adapter registry behind ``#pragma`` package mappings;
* the user-exception registry used to re-raise IDL exceptions client-side.
"""

from __future__ import annotations

from typing import Any, Optional

from ..cdr import DSequenceTC
from ..simkernel import SimKernel
from .distribution import Distribution
from .dsequence import DistributedSequence
from .errors import BindingError, UserException
from .futures import Future
from .interfacedef import AttrDef, InterfaceDef, OpDef, ParamDef
from .invocation import Binding, invoke

__all__ = [
    "AttrDef",
    "Binding",
    "DSeqFactory",
    "Future",
    "InterfaceDef",
    "OpDef",
    "ParamDef",
    "ProxyBase",
    "SkeletonBase",
    "UserException",
    "current_context",
    "lookup_exception",
    "proxy_for",
    "register_adapter",
    "register_exception",
    "register_proxy",
    "resolve_adapter",
]


def current_context():
    """The :class:`~repro.core.orb.PardisContext` of the calling thread."""
    th = SimKernel.current_or_none()
    ctx = th.locals.get("pardis") if th is not None else None
    if ctx is None:
        raise BindingError(
            "no PARDIS context: this code must run on a computing thread "
            "launched through ORB.launch_program / Simulation"
        )
    return ctx


# ---------------------------------------------------------------------------
# Proxies
# ---------------------------------------------------------------------------


class ProxyBase:
    """Base class of generated client proxies.

    Instances are created by the binding class methods and hold the
    per-thread (or collective) :class:`Binding`.  The paper's managed
    ``T_var`` pointers map onto ordinary Python references.
    """

    _interface: InterfaceDef = None  # overridden by generated classes

    def __init__(self, binding: Binding) -> None:
        self._binding = binding

    # -- binding ---------------------------------------------------------------

    @classmethod
    def _bind(cls, name: str, host: Optional[str] = None,
              policy=None, max_outstanding: Optional[int] = None
              ) -> "ProxyBase":
        """Per-thread binding: this computing thread acts as a separate
        entity ("calling bind ... creates one binding per thread").

        ``policy`` selects among replicas of ``name`` (a policy name such
        as ``"round_robin"``/``"least_loaded"``/``"locality"`` or a
        :class:`repro.services.SelectionPolicy` instance) and arms
        health-checked failover on the binding; ``max_outstanding``
        overrides the ORB-wide flow-control window for this binding.
        """
        ctx = current_context()
        group = sel = None
        if policy is not None:
            from ..services.replicas import make_policy

            sel = make_policy(policy)
            group = ctx.orb.replica_group(name, ctx.namespace)
            ref = group.select(ctx, sel)
        else:
            ref = ctx.orb.resolve(name, ctx)
        cls._check_ref(name, ref, host)
        return cls(Binding(ctx, ref, collective=False,
                           max_outstanding=max_outstanding,
                           group=group, policy=sel))

    @classmethod
    def _spmd_bind(cls, name: str, host: Optional[str] = None,
                   policy=None, max_outstanding: Optional[int] = None
                   ) -> "ProxyBase":
        """Collective binding: represents the parallel client to the ORB
        as one entity; all proxy operations must then be invoked
        collectively and can use distributed arguments (§3.1).  Replica
        selection (``policy``) runs on rank 0 and is broadcast so every
        thread binds the same replica."""
        ctx = current_context()
        group = sel = None
        if policy is not None:
            from ..services.replicas import make_policy

            sel = make_policy(policy)
            group = ctx.orb.replica_group(name, ctx.namespace)
        if ctx.rank == 0:
            ref = (group.select(ctx, sel) if group is not None
                   else ctx.orb.resolve(name, ctx))
        else:
            ref = None
        from ..runtime import collectives as coll

        ref = coll.bcast(ctx.rts, ref, root=0)
        cls._check_ref(name, ref, host)
        return cls(Binding(ctx, ref, collective=True,
                           max_outstanding=max_outstanding,
                           group=group, policy=sel))

    @classmethod
    def _check_ref(cls, name: str, ref, host: Optional[str]) -> None:
        if cls._interface is not None and ref.repo_id != cls._interface.repo_id:
            raise BindingError(
                f"object {name!r} implements {ref.repo_id}, not "
                f"{cls._interface.repo_id}"
            )
        if host is not None and ref.host != host:
            raise BindingError(
                f"object {name!r} lives on host {ref.host!r}, "
                f"but the binding requested {host!r}"
            )

    # -- invocation ------------------------------------------------------------------

    def _op(self, name: str) -> OpDef:
        try:
            return self._interface.ops[name]
        except KeyError:
            raise BindingError(
                f"{self._interface.name} has no operation {name!r}"
            ) from None

    def _invoke(self, op_name: str, in_args: tuple, distributions=None):
        if self._binding.group is not None:
            from ..services.replicas import failover_invoke

            return failover_invoke(self._binding, self._op(op_name),
                                   in_args, distributions)
        return invoke(self._binding, self._op(op_name), in_args,
                      distributions, blocking=True)

    def _invoke_nb(self, op_name: str, in_args: tuple, futures: tuple,
                   distributions=None) -> Future:
        return invoke(self._binding, self._op(op_name), in_args,
                      distributions, placeholders=tuple(futures),
                      blocking=False)

    def _invoke_attr_get(self, attr_name: str):
        op = self._interface.attr(attr_name).getter
        return invoke(self._binding, op, (), None, blocking=True)

    def _invoke_attr_set(self, attr_name: str, value) -> None:
        op = self._interface.attr(attr_name).setter
        return invoke(self._binding, op, (value,), None, blocking=True)

    # -- introspection ------------------------------------------------------------------

    @property
    def _object_name(self) -> str:
        return self._binding.ref.name

    @property
    def _is_local(self) -> bool:
        return self._binding.local

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} proxy -> "
                f"{self._binding.ref.name!r}>")


class SkeletonBase:
    """Base class of servant implementations.

    Subclass the generated ``*_skel`` class, implement its operations, and
    activate an instance through the POA.  Attribute state is plain Python
    attributes (the POA's synthesized ``_get_*``/``_set_*`` operations use
    ``getattr``/``setattr``)."""

    _interface: InterfaceDef = None

    def __getattr__(self, name: str):
        # Synthesized attribute accessors for servants: _get_x/_set_x fall
        # back to the plain attribute.
        if name.startswith("_get_"):
            attr = name[5:]
            return lambda: getattr(self, attr)
        if name.startswith("_set_"):
            attr = name[5:]
            return lambda value: setattr(self, attr, value)
        raise AttributeError(name)


# ---------------------------------------------------------------------------
# dsequence typedef factories
# ---------------------------------------------------------------------------


class DSeqFactory:
    """The callable bound to a dsequence typedef name.

    Mirrors the paper's C++ usage: ``matrix A(N)`` becomes
    ``A = matrix(N)``.  With a package adapter (pragma mapping), the
    factory produces the package-native container instead.
    """

    def __init__(self, tc: DSequenceTC, adapter=None, name: str = "dseq") -> None:
        self.tc = tc
        self.adapter = adapter
        self.name = name

    @property
    def element(self):
        return self.tc.element

    def __call__(self, n_or_data, dist=None):
        """A new sequence of length ``n_or_data`` (or holding that global
        data), laid out by the layout spec ``dist`` (default: the
        typedef's client distribution)."""
        ctx = current_context()
        if self.tc.bound is not None:
            n = n_or_data if isinstance(n_or_data, int) else len(n_or_data)
            if n > self.tc.bound:
                raise ValueError(
                    f"{self.name}: length {n} exceeds bound {self.tc.bound}"
                )
        ds = ctx.dseq(n_or_data, element=self.tc.element,
                      dist=self.tc.client_dist if dist is None else dist)
        if self.adapter is not None:
            return self.adapter.wrap(ds)
        return ds

    def adopt(self, local_data, dist: Distribution):
        """No-ownership construction around this thread's existing buffer."""
        ctx = current_context()
        return DistributedSequence.adopt(local_data, dist, ctx.rank,
                                         self.tc.element)

    def __repr__(self) -> str:
        return f"<dsequence typedef {self.name!r} of {self.tc.element!r}>"


# ---------------------------------------------------------------------------
# Container adapters (pragma package mappings)
# ---------------------------------------------------------------------------

_ADAPTERS: dict[tuple[str, str], Any] = {}


def register_adapter(package: str, target: str, adapter: Any) -> None:
    """Register a container adapter for ``#pragma package:target``."""
    _ADAPTERS[(package, target)] = adapter


def resolve_adapter(package: str, target: str) -> Any:
    """Find the adapter for a pragma mapping, importing the package
    integration module on demand."""
    key = (package, target)
    if key not in _ADAPTERS:
        if package == "POOMA":
            import repro.packages.pooma.mapping  # noqa: F401
        elif package == "HPC++":
            import repro.packages.pstl.mapping  # noqa: F401
    try:
        return _ADAPTERS[key]
    except KeyError:
        raise BindingError(
            f"no container adapter registered for #pragma {package}:{target}"
        ) from None


# ---------------------------------------------------------------------------
# Proxy registry (object references received as argument/result values)
# ---------------------------------------------------------------------------

_PROXIES: dict[str, type] = {}


def register_proxy(cls: type) -> type:
    """Register a generated proxy class by repository id, so object
    references received over the wire materialize as typed proxies."""
    _PROXIES[cls._interface.repo_id] = cls
    return cls


def proxy_for(ref, ctx):
    """Turn a decoded :class:`ObjectRef` into the best available proxy:
    the generated class if its stub module is loaded, else a
    :class:`~repro.core.dii.DynamicProxy` if the interface is in the
    Interface Repository, else the raw reference."""
    if ref is None:
        return None
    cls = _PROXIES.get(ref.repo_id)
    if cls is not None:
        return cls(Binding(ctx, ref, collective=False))
    from .dii import DynamicProxy, _interface_repository

    ir = _interface_repository(ctx.orb)
    if ir.contains(ref.repo_id):
        return DynamicProxy(Binding(ctx, ref, collective=False),
                            ir.lookup(ref.repo_id))
    return ref


# ---------------------------------------------------------------------------
# User-exception registry
# ---------------------------------------------------------------------------

_EXCEPTIONS: dict[str, type] = {}


def register_exception(cls: type) -> type:
    """Register a generated exception class by repository id so replies
    can be re-raised as the right type on the client."""
    _EXCEPTIONS[cls._repo_id] = cls
    return cls


def lookup_exception(repo_id: str):
    cls = _EXCEPTIONS.get(repo_id)
    if cls is None:
        return None, None
    return cls, cls._typecode
