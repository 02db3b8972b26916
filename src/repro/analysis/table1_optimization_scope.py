"""Table I: what each prior scheme can and cannot short-circuit.

The paper's example handler interleaves CPU functions with IP
invocations: CPU-side reuse can skip only the repeated ``CPUFunc_i``,
IP-side techniques only the ``IP_i`` calls, and only SNIP can snip the
whole chain. We quantify that scoping on a real session: for each
scheme, how much of one game's handler work (cycles and IP energy) is
*reachable* in principle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import pct, render_table
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.soc.soc import snapdragon_821
from repro.users.sessions import estimate_trace_energy
from repro.users.tracegen import generate_trace


@dataclass
class Table1Result:
    """Reachable shares of handler energy per scheme family."""

    game_name: str
    cpu_func_energy_fraction: float  # Max CPU's reach (reusable kernels)
    ip_call_energy_fraction: float   # Max IP's reach (cacheable IP calls)
    whole_chain_fraction: float      # SNIP's reach (the entire handler)

    def to_text(self) -> str:
        """Render the scoping comparison."""
        return render_table(
            ["scheme family", "reachable handler energy"],
            [
                ["Max CPU (repeated CPUFunc_i only)",
                 pct(self.cpu_func_energy_fraction)],
                ["Max IP (repeated IP_i calls only)",
                 pct(self.ip_call_energy_fraction)],
                ["SNIP (whole event chain)", pct(self.whole_chain_fraction)],
            ],
        )


def run_table1(
    game_name: str = "ab_evolution", seed: int = 7, duration_s: float = 30.0
) -> Table1Result:
    """Decompose one session's handler energy by scheme reachability."""
    soc = snapdragon_821()
    game = create_game(game_name, seed=GAME_CONTENT_SEED)
    total = 0.0
    reusable_cpu = 0.0
    cacheable_ip = 0.0
    from repro.schemes.max_ip import SKIPPABLE_IPS

    for event in generate_trace(game_name, seed, duration_s).events:
        game.advance_engine(event)
        trace = game.process(event)
        total += estimate_trace_energy(soc, trace)
        for call in trace.cpu_funcs:
            if call.reusable:
                reusable_cpu += soc.cpu.energy_for(call.cycles, big=call.big)
        for call in trace.ip_calls:
            if call.key is not None and call.ip_name in SKIPPABLE_IPS:
                cacheable_ip += soc.ip(call.ip_name).energy_for(
                    call.work_units, bytes_in=call.bytes_in, bytes_out=call.bytes_out
                )
    if total <= 0:
        return Table1Result(game_name, 0.0, 0.0, 0.0)
    return Table1Result(
        game_name=game_name,
        cpu_func_energy_fraction=reusable_cpu / total,
        ip_call_energy_fraction=cacheable_ip / total,
        whole_chain_fraction=1.0,
    )
