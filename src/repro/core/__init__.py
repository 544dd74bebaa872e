"""The out-of-order core models: the machines and all their structures."""

from .cam_rename import CAMRenamer, RenameSnapshot
from .checkpoint import Checkpoint, CheckpointPolicy, CheckpointTable
from .frontend import FetchUnit
from .fu import ExecutionUnits, FunctionalUnitPool
from .iq import InstructionQueue, WakeupNetwork
from .lsq import LoadStoreQueue
from .machines import PerfectL2Pipeline, UnboundedROBPipeline
from .pipeline import BaselinePipeline, OoOCommitPipeline, PipelineBase
from .probes import CallbackProbe, Probe
from .pseudo_rob import PseudoROB
from .regfile import PhysicalPool, PhysicalRegisterFile
from .registry_machines import (
    MachineSpec,
    create_pipeline,
    get_machine,
    machine_names,
    machine_specs,
    register_machine,
    unregister_machine,
)
from .rename_map import MapTableRenamer
from .result import SimulationResult, build_result
from .rob import ReorderBuffer
from .sliq import LongLatencyTracker, SlowLaneQueue

__all__ = [
    "PerfectL2Pipeline",
    "UnboundedROBPipeline",
    "CallbackProbe",
    "Probe",
    "MachineSpec",
    "create_pipeline",
    "get_machine",
    "machine_names",
    "machine_specs",
    "register_machine",
    "unregister_machine",
    "CAMRenamer",
    "RenameSnapshot",
    "Checkpoint",
    "CheckpointPolicy",
    "CheckpointTable",
    "FetchUnit",
    "ExecutionUnits",
    "FunctionalUnitPool",
    "InstructionQueue",
    "WakeupNetwork",
    "LoadStoreQueue",
    "BaselinePipeline",
    "OoOCommitPipeline",
    "PipelineBase",
    "PseudoROB",
    "PhysicalPool",
    "PhysicalRegisterFile",
    "MapTableRenamer",
    "SimulationResult",
    "build_result",
    "ReorderBuffer",
    "LongLatencyTracker",
    "SlowLaneQueue",
]
