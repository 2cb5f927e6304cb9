"""The Ode substrate: object model, schema, storage, object manager.

This subpackage is a from-scratch reproduction of the parts of the Ode
object database (Agrawal & Gehani, SIGMOD 1989) that OdeView sits on.
"""

from repro.ode.backup import dump_to_file, export_database, import_database, load_from_file
from repro.ode.bufferpool import BufferPool
from repro.ode.classdef import Access, Attribute, MemberFunction, OdeClass
from repro.ode.index import AttributeIndex, IndexManager
from repro.ode.cluster import Cluster, ClusterCursor
from repro.ode.constraints import BehaviourRegistry, Constraint, Trigger
from repro.ode.database import Database, discover_databases
from repro.ode.objectmanager import ObjectBuffer, ObjectManager
from repro.ode.oid import Oid
from repro.ode.schema import Schema
from repro.ode.store import ObjectStore
from repro.ode.types import (
    ArrayType,
    BoolType,
    DateType,
    FloatType,
    IntType,
    RefType,
    SetType,
    StringType,
    StructType,
    TypeSpec,
    type_from_dict,
)
from repro.ode.versions import VersionManager, VersionRecord

__all__ = [
    "Access",
    "AttributeIndex",
    "ArrayType",
    "Attribute",
    "BehaviourRegistry",
    "BoolType",
    "BufferPool",
    "Cluster",
    "ClusterCursor",
    "Constraint",
    "Database",
    "DateType",
    "FloatType",
    "IndexManager",
    "IntType",
    "MemberFunction",
    "ObjectBuffer",
    "ObjectManager",
    "ObjectStore",
    "OdeClass",
    "Oid",
    "RefType",
    "Schema",
    "SetType",
    "StringType",
    "StructType",
    "Trigger",
    "TypeSpec",
    "VersionManager",
    "VersionRecord",
    "discover_databases",
    "dump_to_file",
    "export_database",
    "import_database",
    "load_from_file",
    "type_from_dict",
]
