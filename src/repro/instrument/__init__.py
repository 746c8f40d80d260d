"""Compiler observability: the four pillars mirroring clang/LLVM.

=================  =====================================  ==============
Pillar             Clang/LLVM counterpart                 Module
=================  =====================================  ==============
time-trace         ``-ftime-trace`` (TimeProfiler)        ``timetrace``
statistics         ``-stats`` (``STATISTIC`` macro)       ``stats``
remarks            ``-Rpass{,-missed,-analysis}=``        ``remarks``
execution profile  profiling runtimes / ``perf`` views    ``profile``
=================  =====================================  ==============

PR 2 adds the pipeline-introspection pillar on top::

    pass instrumentation  -print-before/-after[-all], -print-changed,
                          -verify-each, -opt-bisect-limit
                          (PassInstrumentationCallbacks /
                          StandardInstrumentations / OptBisect)   ``passinstrument``
    debug counters        -debug-counter=NAME=SKIP[,COUNT]
                          (DEBUG_COUNTER / DebugCounter.h)        ``debugcounter``
    unified diffs         pure-python Myers diff backing
                          -print-changed                          ``udiff``

All are zero-dependency and cheap when their driver flag is off;
see each module's docstring for the cost model.
"""

from repro.instrument.debugcounter import (
    DEBUG_COUNTERS,
    DebugCounter,
    DebugCounterRegistry,
    get_debug_counter,
)
from repro.instrument.faultinject import (
    FAULTS,
    FaultRegistry,
    InjectedFault,
)
from repro.instrument.profile import (
    ExecutionProfile,
    LoopProfile,
    ThreadProfile,
)
from repro.instrument.remarks import Remark, RemarkEmitter, RemarkKind
from repro.instrument.stats import STATS, get_statistic, render_stats
from repro.instrument.timetrace import (
    TimeTraceProfiler,
    TimeTraceScope,
    active_time_trace,
    disable_time_trace,
    enable_time_trace,
    time_trace_scope,
)
from repro.instrument.passinstrument import (
    PassExecution,
    PassInstrumentation,
    PassVerificationError,
)
from repro.instrument.udiff import unified_diff

__all__ = [
    "DEBUG_COUNTERS",
    "DebugCounter",
    "DebugCounterRegistry",
    "get_debug_counter",
    "FAULTS",
    "FaultRegistry",
    "InjectedFault",
    "PassExecution",
    "PassInstrumentation",
    "PassVerificationError",
    "unified_diff",
    "ExecutionProfile",
    "LoopProfile",
    "ThreadProfile",
    "Remark",
    "RemarkEmitter",
    "RemarkKind",
    "STATS",
    "get_statistic",
    "render_stats",
    "TimeTraceProfiler",
    "TimeTraceScope",
    "active_time_trace",
    "disable_time_trace",
    "enable_time_trace",
    "time_trace_scope",
]
