"""One exact replay of a run trace, shared by every test that checks one."""

from fractions import Fraction

from congames import (
    best_response, find_threshold_move, optimistic_cost, partition_blocks,
)


def check_trace(game, trace, q=None):
    """One message per rule that `trace` breaks on `game`; [] for none.

    Moves are best responses beating their factor strictly, with exact costs
    and potentials; a solve trace (q None) starts every player on her first
    cheapest solo strategy, records `partition_blocks` of those solo costs
    under its d and psi, keeps block b to phases b-1 (q) and b (p) in order,
    matches its summaries and move cap, and leaves no move at a phase end, nor
    one beating its bound (1 if degenerate) at the end; a dynamics trace
    leaves no q-move at the end unless truncated.
    """
    errors, blocks, runs, last = [], None, [], 0
    state = game.state(trace.initial_state)
    potential, states = game.potential(state), [state]
    end = None if trace.truncated else q
    if q is None:
        params = trace.parameters
        n = game.n_players
        ells, starts = zip(*(optimistic_cost(game, u) for u in range(n)))
        base, parts = partition_blocks(ells, n, params["d"], params["psi"])
        block_of = {u: i for i, part in enumerate(parts, 1) for u in part}
        derived = {"base": base, "m": len(parts),
                   "block_of": [block_of.get(u) for u in range(n)],
                   "zero_players": [u for u in range(n) if ells[u] == 0]}
        if tuple(trace.initial_state) != starts:
            errors.append(f"the initial state is not the solo best responses {starts}")
        if {k: params[k] for k in derived} != derived:
            errors.append(f"the recorded partition is not {derived}")
        blocks, labels = params["block_of"], [m.phase for m in trace.moves]
        runs = [i for i in range(1, params["m"] + 1) if i in blocks]
        summaries = [{"i": i, "block_size": blocks.count(i), "moves": labels.count(i)}
                     for i in runs]
        if trace.phases != summaries:
            errors.append(f"phase summaries {trace.phases} are not {summaries}")
        p, q, end = (Fraction(params.get(k, 1)) for k in ("p", "q", "bound"))
        if trace.n_moves > params.get("move_cap", 0):  # 0 if degenerate
            errors.append(f"{trace.n_moves} moves exceed the move cap")
    for step, m in enumerate(trace.moves):
        u, at, factor = m.player, f"move {step} (player {m.player})", q
        if blocks is not None:
            b, window = blocks[u], (m.phase, m.phase + 1)
            if m.phase < last or m.phase not in runs or b not in window:
                errors.append(f"{at}: block {b} moves in phase {m.phase} after {last}")
            factor, last = p if b == m.phase else q, m.phase
        expected = (state.choices[u], *best_response(game, state, u))
        if (m.from_strategy, m.to_strategy, m.cost_after) != expected:
            errors.append(f"{at}: not the best response from the current strategy")
        if not m.cost_after * factor < m.cost_before:
            errors.append(f"{at}: does not beat its factor {factor}")
        exact = (game.player_cost(state, u), potential)
        states.append(state := state.apply(game, u, m.to_strategy))
        potential = game.potential(state)
        exact += (game.player_cost(state, u), potential)
        recorded = (m.cost_before, m.potential_before, m.cost_after, m.potential_after)
        if exact != recorded or exact[3] - exact[1] != exact[2] - exact[0]:
            errors.append(f"{at}: records {recorded}, not {exact}")
    for i in runs:  # phase i ends after the moves labelled i or less
        at_end = states[sum(phase <= i for phase in labels)]
        for u, factor in enumerate({i: p, i + 1: q}.get(b) for b in blocks):
            if factor and find_threshold_move(game, at_end, u, factor):
                errors.append(f"phase {i} ends with a move left for player {u}")
    if (state.choices, potential) != (trace.final_state, trace.final_potential):
        errors.append("the replay does not end at the recorded state and potential")
    for u in range(game.n_players if end else 0):
        if find_threshold_move(game, state, u, end):
            errors.append(f"player {u} ends with a move beating {end}")
    return errors
