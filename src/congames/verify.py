"""Exact equilibrium verification and brute-force oracles.

`approximation_factor` inspects every (player, strategy) pair; nothing here
is ever sampled.  Ratio conventions make the report total even with
zero-latency resources: 0/0 counts as 1 and positive/0 as infinity.

The enumeration oracles refuse instances whose state space exceeds the
configured budget instead of falling back to sampling.  Both search in exact
integer (or Fraction) arithmetic over one packed code per state, laid out
by `_layout`: a bit field per resource load and per player choice, so
placing a player adds a precomputed step and nothing is undone.

* `enumerate_equilibria` descends over batches of sibling codes: each depth
  extends every code of its batch by the next player's steps, runs that
  depth's checks over the extended batch, and recurses on the survivors in
  slices of at most `_BATCH` codes, which bounds its memory to depth times
  `_BATCH` codes.  A code is dropped as soon as some placed player has a
  forbidden improving move in every completion of it; its docstring says
  when a player is tested.  Each test is built once, by `_tests`, from rows
  made once per player (a read per resource and a cost bound per resource
  that is open at some test), and keeps its verdicts keyed by the code
  under its mask, the fields it reads.  It reads the tested player's
  resources at the other players' loads, so her cost and every deviation
  to a strategy share one read list; `_tests` states the layout and the
  key rule.
  Players are placed by maximum cardinality search over the graph of
  players who share a resource: each next player shares one with the most
  players already placed, so their resources close and their tests fire
  early.  The caller's order only sets the start and breaks ties.
* `brute_min_potential` is a depth-first branch and bound, so its best leaf
  tightens as it goes: a child reads its resources' loads from the code,
  and a branch is cut once its partial potential plus a floor on what the
  players still to place add reaches the best leaf found.

The pruning is exact, so the results equal the naive product scans (the test
suite cross-checks them against `naive_state_scan`, which stays the
independent reference).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    CongestionGame,
    State,
    SubgameView,
    Value,
    aggregate_metrics,
    format_rational,
    to_factor,
    to_integer,
)
from .dynamics import epsilon_br_dynamics
from .errors import BudgetExceededError, ValidationError
from .serialize import game_to_dict
from .solver import theta

DEFAULT_ENUM_BUDGET = 1 << 20

# The most sibling codes `enumerate_equilibria` extends in one step.  The
# search holds about depth times this many codes at once; larger batches
# were barely faster on small dense games and raised their peak memory.
_BATCH = 64


def state_space_size(game: CongestionGame) -> int:
    size = 1
    for strats in game.players:
        size *= len(strats)
    return size


def _require_budget(game: CongestionGame, budget: Optional[int]) -> None:
    limit = DEFAULT_ENUM_BUDGET if budget is None else to_integer(budget, "budget", 1)
    if state_space_size(game) > limit:
        # The size is not printed, nor a budget past the digit limit: either
        # may have more digits than the limit, and the refusal stays a
        # BudgetExceededError.
        try:
            of_budget = f" of {format_rational(limit)} states"
        except ValidationError:
            of_budget = ""
        raise BudgetExceededError(f"state space exceeds the budget{of_budget}")


def _ratio_str(ratio: Optional[Fraction]) -> str:
    return "inf" if ratio is None else format_rational(ratio)


@dataclass
class ApproxReport:
    """Exact approximation factor of a state, with a witness deviation.

    rho_star is the max over players and deviations of cost/deviation-cost,
    which is >= 1, or None when infinite: some player with positive cost has
    a zero-cost deviation.  The witness is the first pair attaining it.
    """

    rho_star: Optional[Fraction]
    witness: tuple[int, int]
    per_player: list[Optional[Fraction]]

    def is_approx(self, rho: Optional[Fraction]) -> bool:
        """True when the state is a rho-approximate equilibrium (None = inf)."""
        if rho is None:
            return True
        rho = to_factor(rho, "rho")
        return self.rho_star is not None and self.rho_star <= rho

    def rho_star_str(self) -> str:
        return _ratio_str(self.rho_star)

    def to_dict(self) -> dict:
        return {
            "rho_star": self.rho_star_str(),
            "witness": {"player": self.witness[0], "strategy": self.witness[1]},
            "per_player": [_ratio_str(r) for r in self.per_player],
        }


def approximation_factor(game: CongestionGame, state: State) -> ApproxReport:
    """Exhaustive worst improvement ratio over all players and deviations.

    All ratios of one player share the numerator, the player's cost, so the
    worst is that cost over the cheapest deviation: the first argmin of the
    player's integer `cost_sums`.  Only the player's cost and that deviation's
    cost become Fractions.  The witness is the first worst pair in (player,
    strategy) order.  The current strategy is among the deviations, so a
    cheapest deviation of 0 means 0/0 = 1 or positive/0 = infinity.
    """
    pairs: list[tuple[Optional[Fraction], tuple[int, int]]] = []
    for u in range(game.n_players):
        sums = game.cost_sums(state, u)
        alt = sums.index(min(sums))
        cur = game.player_cost(state, u)
        low = game.deviation_cost(state, u, alt)
        if low:
            ratio: Optional[Fraction] = cur / low
        else:
            ratio = Fraction(1) if cur == 0 else None
        pairs.append((ratio, (u, alt)))
    # max keeps the first of equal keys; an infinite ratio beats any finite one.
    rho_star, witness = max(pairs, key=lambda p: (p[0] is None, p[0] or 0))
    return ApproxReport(rho_star, witness, [ratio for ratio, _ in pairs])


def brute_min_potential(
    game: CongestionGame, budget: Optional[int] = None
) -> tuple[State, Fraction]:
    """Exhaustive global potential minimum; lexicographically smallest argmin.

    A depth-first branch and bound over the packed code of `_layout`: a
    child is the code plus the strategy's step, and it adds f_e(k + 1) for
    each resource e of the strategy, k being e's load field in the parent's
    code.  Nothing is undone on return, and the best leaf's fields give the
    State.  Each player still to place adds at least her floor, the least
    over her strategies of the sum of their resources' smallest latencies
    at loads 1 and up, so a branch whose partial potential plus those
    floors already reaches the best leaf cannot end strictly below it.
    Strategies are tried in index order, so the first leaf at the minimum is
    the lexicographically smallest argmin.
    """
    _require_budget(game, budget)
    n = game.n_players
    table = game.latency_table
    floors = [min(sum(min(table[e][1:]) for e in s) for s in strats) for strats in game.players]
    rest = list(itertools.accumulate(reversed(floors), initial=0))[::-1]  # rest[u] = sum(floors[u:])
    bits, steps = _layout(game)
    # moves[u][c]: (step, reads) of u's strategy c, a (shift, mask, table[e][1:])
    # read per resource e
    moves = [
        [(step, [(*bits[e], table[e][1:]) for e in s]) for step, s in zip(steps[u], strats)]
        for u, strats in enumerate(game.players)
    ]
    best: Optional[Value] = None
    best_code = 0

    def descend(u: int, code: int, phi: Value) -> None:
        nonlocal best, best_code
        if u == n:  # the bound let only a leaf strictly below the best through
            best, best_code = phi, code
            return
        for step, reads in moves[u]:
            total = phi
            for s, m, column in reads:
                total += column[(code >> s) & m]
            if best is None or total + rest[u + 1] < best:
                descend(u + 1, code + step, total)

    descend(0, 0, 0)
    del descend  # the recursive closure is a reference cycle
    assert best is not None
    return _leaf_state(best_code, bits, game.n_resources), Fraction(best)


def _layout(game: CongestionGame) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The packed code both exact searches step over: (bits, steps).

    The code holds a bit field per resource, wide enough for its user
    count, with its load, then a field per player with her choice.  bits[i]
    is the (shift, mask) of resource i's load field, or of player i - r's
    choice field, and steps[u][c] is what placing u on strategy c adds: one
    to each of its resources' loads and c to her choice field.  No field
    carries into the next, so a code is a sum of steps.
    """
    r = game.n_resources
    widths = [len(us).bit_length() for us in game.users]
    widths += [(len(strats) - 1).bit_length() for strats in game.players]
    bits = [(s, (1 << w) - 1) for s, w in zip(itertools.accumulate(widths, initial=0), widths)]
    steps = [
        [sum(1 << bits[e][0] for e in s) + (i << bits[r + u][0]) for i, s in enumerate(strats)]
        for u, strats in enumerate(game.players)
    ]
    return bits, steps


def _leaf_state(code: int, bits: list[tuple[int, int]], r: int) -> State:
    """The State whose choices and loads a leaf's fields hold.

    A leaf places every player, so its fields hold valid choices and their
    loads, and the State is built directly, not checked again through
    State.of.
    """
    values = [(code >> s) & m for s, m in bits]
    return State(tuple(values[r:]), tuple(values[:r]))


def _search_order(game: CongestionGame, priority: Optional[Sequence[int]]) -> list[int]:
    """The order in which `enumerate_equilibria` places the players.

    Maximum cardinality search over the graph of players who share a
    resource: start with priority[0], then repeatedly place the unplaced
    player who shares a resource with the most placed players, the earliest
    in the priority on ties.  Each player then closes resources of placed
    players soon after they are assigned, so their tests prune early.  With
    no priority, it ranks hubs first: more sharers first, lower index on
    ties.
    """
    users = game.users
    sharers = [
        set().union(*(users[e] for strat in strats for e in strat)) - {u}
        for u, strats in enumerate(game.players)
    ]
    if priority is None:
        priority = sorted(range(game.n_players), key=lambda u: (-len(sharers[u]), u))
    unplaced = dict.fromkeys(priority, 0)  # player: her placed sharers
    order: list[int] = []
    while unplaced:
        # max keeps the first of equal keys, the earliest in the priority
        u = max(unplaced, key=unplaced.__getitem__)
        del unplaced[u]
        order.append(u)
        for v in sharers[u]:
            if v in unplaced:
                unplaced[v] += 1
    return order


def enumerate_equilibria(
    game: CongestionGame,
    rho: Optional[Fraction] = Fraction(1),
    budget: Optional[int] = None,
    order: Optional[Sequence[int]] = None,
) -> list[State]:
    """All states that are rho-approximate equilibria (rho=None means all).

    Complete despite the pruning: a branch is cut only when some placed
    player has a deviation improving her cost by a factor strictly above rho
    in every completion of the branch.  States come back in lexicographic
    order of the choice vector.

    `order` is a priority, not the order searched.  The search places
    order[0] first, then each time the unplaced player who shares a resource
    with the most placed players, the earliest in `order` on ties
    (`_search_order`; None ranks players with more sharers first).  Any
    permutation gives the same list; it only affects speed.

    A placed player is tested at `start` and at each later depth where one
    of her resources closes: its last user is placed.  `start` is the later
    of her own placement and the depth where her last resource with three
    or more users closes.  The later depths are thus exactly those that
    place a player sharing a resource with her, and each resource of hers
    that is open at a test has two users, her and one unplaced player.  Its
    final load is its load now or one more, so the smaller of its two
    latencies bounds her cost from below and the larger bounds a deviation
    from above.  Her last test has no open resource and is exact.

    The search state is one integer, the code of `_layout`, with a load
    field per resource and a choice field per player.  Placing a player
    adds a precomputed step to the code, so nothing is undone.  The search
    runs depth by depth over batches of sibling codes: a depth extends
    every code of its batch by the player's steps, in strategy order, and
    runs its checks over the extended batch in turn; a code's first
    violation drops it, so each code meets exactly the checks that a
    node-by-node search would run on it.  The survivors go one depth down
    in slices of at most `_BATCH` codes.
    A test reads the tested player's closed resources at the other players'
    loads (the code less her step), so her cost and her deviations to a
    strategy share one read list.  A test keeps its verdicts keyed by the
    code under its mask; `_tests` builds every test and states its layout,
    the others-load rule and what the mask holds.  Leaves are decoded to
    choices and loads once, at the end.
    """
    _require_budget(game, budget)
    if rho is not None:
        rho = to_factor(rho, "rho")
    n, r = game.n_players, game.n_resources
    if order is not None:
        order = [to_integer(u, "order entry") for u in order]
        if sorted(order) != list(range(n)):
            raise ValidationError("order must be a permutation of the players")
    order = _search_order(game, order)
    position = {u: i for i, u in enumerate(order)}
    bits, steps = _layout(game)
    results: list[int] = []

    def violates(code: int, test: tuple) -> bool:
        # True when the tested player has a forbidden move in every
        # completion; `_tests` gives the layout of `test`.  Every read is at
        # the other players' load: the code less her step, which borrows
        # nothing, since she is placed and each field of her step holds her.
        shift, mask, per_choice = test
        step, cost, reads, deviations = per_choice[(code >> shift) & mask]
        others = code - step
        for s, m, column in reads:
            cost += column[(others >> s) & m]
        if cost == 0:
            return False
        threshold = cost * rho_den
        for dev, reads in deviations:
            for s, m, column in reads:
                dev += column[(others >> s) & m]
            if dev * rho_num < threshold:
                return True
        return False

    # checks_at[depth]: the checks run once the player at `depth` is placed.
    checks_at: list[list[tuple]] = [[] for _ in range(n)]
    if rho is not None:  # with rho=None every state qualifies: no checks
        rho_num, rho_den = rho.numerator, rho.denominator
        # last[e]: the depth that places e's last user, where e closes
        last = [max((position[v] for v in us), default=0) for us in game.users]
        # joined[e][k]: e's latency once she joins k other players on it
        joined = [column[1:] for column in game.latency_table]
        # A depth's exact checks come first, in player order, then its bound
        # tests, the latest placed player first: she is the likeliest to
        # have a forbidden move.
        tests = sorted(
            ((t, bool(opened), -position[u] if opened else u), check)
            for u in range(n)
            for t, opened, check in _tests(game, u, position[u], last, bits, steps, joined)
        )
        for (t, _, _), check in tests:
            checks_at[t].append(check)

    def descend(depth: int, codes: list[int]) -> None:
        if depth == n:
            results.extend(codes)
            return
        batch = [code + step for code in codes for step in steps[order[depth]]]
        for mask, seen, test in checks_at[depth]:
            kept = []
            for child in batch:
                key = child & mask
                verdict = seen.get(key)
                if verdict is None:
                    verdict = seen[key] = violates(child, test)
                if not verdict:
                    kept.append(child)
            batch = kept
        for i in range(0, len(batch), _BATCH):
            descend(depth + 1, batch[i : i + _BATCH])

    descend(0, [0])
    del descend  # the recursive closure is a reference cycle
    states = [_leaf_state(code, bits, r) for code in results]
    states.sort(key=lambda state: state.choices)
    return states


def _tests(
    game: CongestionGame,
    u: int,
    placed: int,
    last: list[int],
    bits: list[tuple],
    steps: list[list[int]],
    joined: list[tuple],
):
    """Yield (depth, open resources, check) for each test of player u.

    u is placed at depth `placed`, resource e closes at depth last[e],
    bits and steps are the search code's fields and steps (`_layout`), and
    joined[e] is table[e][1:].  The depths are those that
    `enumerate_equilibria` names; her resources not closed there are open.

    A check is the (mask, verdicts, test) that the search runs; test is
    (shift, mask, per_choice) of her choice field, and per_choice[c] is
    (steps[u][c], low, reads[c], deviations):

    * reads[a] holds a (shift, mask, joined[e]) read per closed resource e
      of strategy a, one tuple per resource across all her tests;
    * deviations holds (high, reads[a]) for each a != c, in strategy order;
    * low and high sum the smaller and the larger of f(1) and f(2) over
      strategy c's or a's open resources: a lower bound on her cost and an
      upper bound on a deviation's.

    Her rows are made once per player: each resource's read, and the
    (min, max) of f(1), f(2) of each resource open at some test.  A test
    then walks each strategy once: an open resource adds its pair to low
    and high, a closed one appends its read.  The mask holds her choice
    field and the fields of her closed resources.

    Others-load rule: the search takes her step out of the code and reads
    each field there, at the other players' load k on e.  joined[e][k] is
    f_e(k + 1), her latency on e both where she uses it and where she
    would join it, so her cost on a and every deviation to a read the same
    list, reads[a], built once per test.

    Key rule: a verdict reads only her choice and the loads of her closed
    resources (the other players' loads there are those less her step,
    which her choice fixes), which are exactly the fields of the mask, so a
    verdict kept in `verdicts` under code & mask holds for every code with
    that key.
    """
    users, table = game.users, game.latency_table
    strats = game.players[u]
    mine = {e for s in strats for e in s}
    choice = bits[game.n_resources + u]
    start = max([placed] + [last[e] for e in mine if len(users[e]) > 2])
    rows = {e: (*bits[e], joined[e]) for e in mine}
    bounds = {e: (min(table[e][1:3]), max(table[e][1:3])) for e in mine if last[e] > start}
    for t in sorted({start} | {last[e] for e in mine if last[e] > start}):
        opened = {e for e in mine if last[e] > t}
        lows, deviations = [], []
        for s in strats:
            low = high = 0
            reads = []
            for e in s:
                if e in opened:
                    low += bounds[e][0]
                    high += bounds[e][1]
                else:
                    reads.append(rows[e])
            lows.append(low)
            deviations.append((high, reads))
        per_choice = [
            (steps[u][c], lows[c], deviations[c][1], deviations[:c] + deviations[c + 1 :])
            for c in range(len(strats))
        ]
        mask = sum(m << shift for shift, m in [choice] + [bits[e] for e in mine - opened])
        yield t, opened, (mask, {}, (*choice, per_choice))


@dataclass
class AuditCheck:
    """Trials and counterexamples of one identity.

    `skipped` counts the audits that left the check out because the state
    space exceeds the enumeration budget; it is written only when positive.
    """

    trials: int = 0
    violations: list[dict] = field(default_factory=list)
    skipped: int = 0

    def record(self, holds: bool, game: CongestionGame, state: State, **detail) -> None:
        """Count one trial; when the identity fails, keep a counterexample.

        The counterexample embeds the full instance and state for replay,
        then the details, Fractions written as exact rationals.
        """
        self.trials += 1
        if not holds:
            exact = {
                key: format_rational(v) if isinstance(v, Fraction) else v
                for key, v in detail.items()
            }
            self.violations.append(
                {"instance": game_to_dict(game), "state": list(state.choices), **exact}
            )

    def to_dict(self) -> dict:
        doc: dict = {"trials": self.trials, "violations": self.violations}
        if self.skipped:
            doc["skipped"] = self.skipped
        return doc


@dataclass
class AuditReport:
    """Counts of checked and violated identities over randomized trials.

    Every check is a theorem for standard-mode games, so the violation lists
    should stay empty; each recorded violation embeds the full instance and
    state for replay.
    """

    rosenthal: AuditCheck = field(default_factory=AuditCheck)
    sandwich: AuditCheck = field(default_factory=AuditCheck)
    subadditivity: AuditCheck = field(default_factory=AuditCheck)
    subgame_consistency: AuditCheck = field(default_factory=AuditCheck)
    potential_ratio: AuditCheck = field(default_factory=AuditCheck)
    max_ratio_observed: Optional[Fraction] = None

    def checks(self) -> dict[str, AuditCheck]:
        """The identity checks by name, in field order."""
        return {
            f.name: check
            for f in fields(self)
            if isinstance(check := getattr(self, f.name), AuditCheck)
        }

    @property
    def total_violations(self) -> int:
        return sum(len(c.violations) for c in self.checks().values())

    def to_dict(self) -> dict:
        doc: dict = {name: c.to_dict() for name, c in self.checks().items()}
        doc["max_ratio_observed"] = (
            None
            if self.max_ratio_observed is None
            else format_rational(self.max_ratio_observed)
        )
        doc["total_violations"] = self.total_violations
        return doc

    def merge(self, other: "AuditReport") -> None:
        theirs = other.checks()
        for name, mine in self.checks().items():
            mine.trials += theirs[name].trials
            mine.violations.extend(theirs[name].violations)
            mine.skipped += theirs[name].skipped
        if other.max_ratio_observed is not None and (
            self.max_ratio_observed is None
            or other.max_ratio_observed > self.max_ratio_observed
        ):
            self.max_ratio_observed = other.max_ratio_observed


def sample_state(game: CongestionGame, rng: random.Random) -> State:
    return State.of(
        game, [rng.randrange(len(strats)) for strats in game.players]
    )


def audit_identities(
    game: CongestionGame,
    seed: int,
    trials: int,
    budget: Optional[int] = None,
) -> AuditReport:
    """Randomized exact audit of the potential-function identities.

    Per trial: the move-by-move potential identity on a random deviation, the
    latency/potential/total-cost sandwich, sub-potential subadditivity and
    monotonicity for a random frozen subset, and cost consistency between the
    game and the subgame view.  Once per audit, it also drives
    (1+eps)-dynamics to a q-approximate state (q = 3/2) and compares its
    potential against the global minimum: for games of degree <= 1 the ratio
    must stay within 2q/(2-q) = 6; for higher degrees the ratio is only
    recorded, since no concrete constant is available to assert against.
    When the state space exceeds the enumeration budget there is no global
    minimum to compare with, and the ratio check counts as skipped.
    """
    if game.mode != "standard":
        raise ValidationError("audits are defined for standard-mode games")
    trials = to_integer(trials, "trials", least=1)
    rng = random.Random(to_integer(seed, "seed"))
    # The brute force comes first so that a bad budget fails before the trials.
    try:
        phi_min: Optional[Fraction] = brute_min_potential(game, budget)[1]
    except BudgetExceededError:
        phi_min = None
    report = AuditReport()
    n = game.n_players

    for _ in range(trials):
        state = sample_state(game, rng)

        u = rng.randrange(n)
        alt = rng.randrange(len(game.players[u]))
        phi = game.potential(state)
        moved = state.apply(game, u, alt)
        lhs = game.potential(moved) - phi
        rhs = game.player_cost(moved, u) - game.player_cost(state, u)
        report.rosenthal.record(
            lhs == rhs,
            game,
            state,
            player=u,
            alt=alt,
            potential_diff=lhs,
            cost_diff=rhs,
        )

        lat, pot, total = aggregate_metrics(game, state)
        report.sandwich.record(
            lat <= pot <= total,
            game,
            state,
            latency_sum=lat,
            potential=pot,
            total_cost=total,
        )

        subset = frozenset(u for u in range(n) if rng.random() < 0.5)
        members = sorted(subset)
        view = SubgameView.freeze(game, state, subset)
        coview = SubgameView.freeze(game, state, frozenset(range(n)) - subset)
        phi_f = view.potential(state)
        phi_rest = coview.potential(state)
        report.subadditivity.record(
            phi_f <= phi <= phi_f + phi_rest,
            game,
            state,
            subset=members,
            potential=phi,
            potential_F=phi_f,
            potential_rest=phi_rest,
        )

        if subset:
            w = rng.choice(members)
            same_cost = game.player_cost(state, w) == view.player_cost(state, w)
            alts = range(len(game.players[w]))
            best = []  # the best responses in the game, then in the view
            for g in (game, view):
                costs = [g.deviation_cost(state, w, a) for a in alts]
                best.append([a for a, c in enumerate(costs) if c == min(costs)])
            report.subgame_consistency.record(
                same_cost and best[0] == best[1], game, state, player=w, subset=members
            )

    if phi_min is None:
        report.potential_ratio.skipped = 1
        return report
    q = Fraction(3, 2)
    trace = epsilon_br_dynamics(game, sample_state(game, rng), epsilon=q - 1)
    phi_end = Fraction(trace.final_potential)  # a counterexample writes it as p/q
    if not trace.truncated and phi_min > 0:
        report.max_ratio_observed = phi_end / phi_min
    report.potential_ratio.record(
        trace.truncated or game.degree > 1 or phi_end <= theta(1, q) * phi_min,
        game,
        State.of(game, trace.final_state),
        q=q,
        potential=phi_end,
        min_potential=phi_min,
    )
    return report


def naive_state_scan(
    game: CongestionGame,
    rho: Optional[Fraction],
    budget: Optional[int] = None,
) -> list[State]:
    """Reference oracle: product scan filtered by approximation_factor."""
    _require_budget(game, budget)
    out = []
    for combo in itertools.product(
        *[range(len(strats)) for strats in game.players]
    ):
        state = State.of(game, combo)
        if approximation_factor(game, state).is_approx(rho):
            out.append(state)
    return out
