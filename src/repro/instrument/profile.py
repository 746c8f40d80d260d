"""Execution profiles: dynamic instruction counts, per-thread
utilization and barrier behaviour of interpreted programs.

Replaces the interpreter's former ad-hoc ``instruction_count`` integer
with a structured :class:`ExecutionProfile`:

* every :class:`~repro.interp.interpreter.ExecutionContext` (one logical
  OpenMP thread) registers itself and counts retired instructions
  locally — the hot ``step()`` path stays a single attribute increment;
* with ``detailed=True`` the interpreter additionally attributes each
  retired instruction to its ``(function, basic block)``, from which
  :meth:`ExecutionProfile.loop_report` aggregates *per-loop dynamic
  instruction counts* using the mid-end ``LoopInfo`` analysis;
* the simulated OpenMP runtime records fork/barrier events here
  (:mod:`repro.runtime.kmp` / :mod:`repro.runtime.team`), giving
  per-thread barrier-wait counts and team utilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.interp.interpreter import ExecutionContext
    from repro.ir.module import Module


@dataclass
class ThreadProfile:
    """Aggregated per-gtid execution counters."""

    gtid: int
    instructions: int = 0
    barrier_waits: int = 0


@dataclass
class LoopProfile:
    """Dynamic instruction count of one natural loop."""

    function: str
    header: str
    depth: int
    instructions: int
    blocks: int


class ExecutionProfile:
    """All dynamic execution counters of one interpreter instance."""

    def __init__(self, detailed: bool = False) -> None:
        #: when True, per-(function, block) attribution is collected
        self.detailed = detailed
        self.contexts: list["ExecutionContext"] = []
        #: (function name, block name) -> retired instruction count
        self.block_counts: dict[tuple[str, str], int] = {}
        #: completed whole-team barrier release episodes
        self.barrier_episodes = 0
        #: parallel regions forked
        self.fork_count = 0

    # ------------------------------------------------------------------
    # Collection (called from the interpreter / runtime)
    # ------------------------------------------------------------------
    def register(self, ctx: "ExecutionContext") -> None:
        self.contexts.append(ctx)

    def count_block(
        self, fn_name: str, block_name: str, count: int = 1
    ) -> None:
        key = (fn_name, block_name)
        self.block_counts[key] = self.block_counts.get(key, 0) + count

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def total_instructions(self) -> int:
        return sum(ctx.instructions_retired for ctx in self.contexts)

    @property
    def total_barrier_waits(self) -> int:
        return sum(ctx.barrier_waits for ctx in self.contexts)

    def thread_profiles(self) -> list[ThreadProfile]:
        """One entry per gtid (a gtid may have run several contexts)."""
        by_gtid: dict[int, ThreadProfile] = {}
        for ctx in self.contexts:
            tp = by_gtid.setdefault(ctx.gtid, ThreadProfile(ctx.gtid))
            tp.instructions += ctx.instructions_retired
            tp.barrier_waits += ctx.barrier_waits
        return [by_gtid[g] for g in sorted(by_gtid)]

    def utilization(self) -> dict[int, float]:
        """Fraction of all retired instructions executed per gtid — the
        deterministic-interpreter analogue of thread utilization."""
        total = self.total_instructions
        if total == 0:
            return {}
        return {
            tp.gtid: tp.instructions / total
            for tp in self.thread_profiles()
        }

    def function_counts(self) -> dict[str, int]:
        """Per-function dynamic instruction counts (detailed mode)."""
        counts: dict[str, int] = {}
        for (fn_name, _), n in self.block_counts.items():
            counts[fn_name] = counts.get(fn_name, 0) + n
        return counts

    def loop_report(self, module: "Module") -> list[LoopProfile]:
        """Per-loop dynamic instruction counts (detailed mode).

        Attributes each block's count to the innermost natural loop
        containing it, per the mid-end ``LoopInfo`` of the *executed*
        module (so unrolled/tiled loop structure is what is reported).
        """
        from repro.midend.loopinfo import LoopInfo

        report: list[LoopProfile] = []
        for fn in module.functions.values():
            if fn.is_declaration or not fn.blocks:
                continue
            loops = LoopInfo(fn).innermost_first()
            if not loops:
                continue
            claimed: set[str] = set()
            per_loop: list[LoopProfile] = []
            for loop in loops:
                instructions = 0
                blocks = 0
                for block in loop.blocks:
                    if block.name in claimed:
                        continue
                    claimed.add(block.name)
                    blocks += 1
                    instructions += self.block_counts.get(
                        (fn.name, block.name), 0
                    )
                per_loop.append(
                    LoopProfile(
                        function=fn.name,
                        header=loop.header.name,
                        depth=sum(
                            1
                            for other in loops
                            if other is not loop
                            and other.contains(loop.header)
                        )
                        + 1,
                        instructions=instructions,
                        blocks=blocks,
                    )
                )
            # Counts are disjoint: an outer loop's figure covers only the
            # blocks not claimed by its inner loops (innermost first).
            report.extend(per_loop)
        return report

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def to_json(self, module: "Module" = None) -> dict[str, Any]:
        data: dict[str, Any] = {
            "total_instructions": self.total_instructions,
            "fork_count": self.fork_count,
            "barrier_episodes": self.barrier_episodes,
            "threads": [
                {
                    "gtid": tp.gtid,
                    "instructions": tp.instructions,
                    "barrier_waits": tp.barrier_waits,
                }
                for tp in self.thread_profiles()
            ],
            "utilization": {
                str(gtid): round(share, 6)
                for gtid, share in self.utilization().items()
            },
        }
        if self.detailed:
            data["functions"] = dict(
                sorted(self.function_counts().items())
            )
            if module is not None:
                data["loops"] = [
                    {
                        "function": lp.function,
                        "header": lp.header,
                        "depth": lp.depth,
                        "instructions": lp.instructions,
                    }
                    for lp in self.loop_report(module)
                ]
        return data

    def render_text(self, module: "Module" = None) -> str:
        lines = [
            "=== execution profile ===",
            f"total instructions: {self.total_instructions}",
            f"parallel regions:   {self.fork_count}",
            f"barrier episodes:   {self.barrier_episodes}",
        ]
        threads = self.thread_profiles()
        if threads:
            util = self.utilization()
            lines.append("per-thread:")
            for tp in threads:
                share = util.get(tp.gtid, 0.0)
                lines.append(
                    f"  gtid {tp.gtid}: {tp.instructions} instructions"
                    f" ({share:.1%}), {tp.barrier_waits} barrier waits"
                )
        if self.detailed:
            fn_counts = self.function_counts()
            if fn_counts:
                lines.append("per-function:")
                for name in sorted(fn_counts):
                    lines.append(f"  @{name}: {fn_counts[name]}")
            if module is not None:
                loops = self.loop_report(module)
                if loops:
                    lines.append("per-loop:")
                    for lp in loops:
                        indent = "  " * lp.depth
                        lines.append(
                            f"  {indent}@{lp.function} loop at "
                            f"{lp.header}: {lp.instructions} instructions"
                        )
        return "\n".join(lines)
