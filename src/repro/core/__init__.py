"""The PARDIS ORB core — the paper's primary contribution.

SPMD objects, distributed sequences with distribution templates, futures,
bind/spmd_bind, repositories, activation agents, the POA, and the direct
parallel argument-transfer engine.
"""

from .dii import DynamicProxy, InterfaceRepository, dynamic_bind
from .distribution import Distribution, RowBlock, resolve_dist_spec
from .dsequence import DistributedSequence
from .errors import (
    ActivationError,
    BadOperation,
    BindingError,
    CollectiveMismatch,
    FutureError,
    NonLocalAccess,
    ObjectNotFound,
    PardisError,
    SystemException,
    TransientException,
    UserException,
)
from .futures import Future
from .interfacedef import AttrDef, InterfaceDef, OpDef, ParamDef
from .invocation import Binding
from .orb import ORB, ActivationAgent, OrbConfig, PardisContext
from .pipeline import (
    FaultInjectionInterceptor,
    FaultRule,
    FragmentCourier,
    InterceptorChain,
    RequestInterceptor,
)
from .poa import POA, ServantRecord
from .repository import (
    ActivationRecord,
    ImplementationRepository,
    ObjectRef,
    ObjectRepository,
)
from .simulation import Simulation, default_network

__all__ = [
    "DynamicProxy",
    "InterfaceRepository",
    "ORB",
    "POA",
    "ActivationAgent",
    "ActivationError",
    "ActivationRecord",
    "AttrDef",
    "BadOperation",
    "Binding",
    "BindingError",
    "CollectiveMismatch",
    "Distribution",
    "DistributedSequence",
    "FaultInjectionInterceptor",
    "FaultRule",
    "FragmentCourier",
    "Future",
    "FutureError",
    "InterceptorChain",
    "RequestInterceptor",
    "ImplementationRepository",
    "InterfaceDef",
    "NonLocalAccess",
    "ObjectNotFound",
    "ObjectRef",
    "ObjectRepository",
    "OpDef",
    "OrbConfig",
    "ParamDef",
    "PardisContext",
    "PardisError",
    "ServantRecord",
    "RowBlock",
    "Simulation",
    "SystemException",
    "TransientException",
    "UserException",
    "default_network",
    "dynamic_bind",
    "resolve_dist_spec",
]
