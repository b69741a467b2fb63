"""Seeded input generation for every workload.

Each generator returns plain JSON-able data (a *spec*) that depends only on
the workload name and the seed, so the same seed gives byte-identical inputs
(``spec_bytes``) and two seeds give different ones.  The specs are turned into
job files or into objects built through the library's public API by
``workloads.py``; the program under test never sees the seed.

Every spec is a list of ops (the *deck*).  Sizes are stratified over a fixed
grid and only their order and the content are random, so the total work in a
deck barely moves between seeds.  One op of fixed size per deck is flagged
``warmup``; set-up runs it before timing starts.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from math import factorial, gcd
from pathlib import Path

import reference

# -- shared helpers -------------------------------------------------------------


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def spec_bytes(spec) -> bytes:
    return json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()


def _grid(lo: int, hi: int, n: int) -> list[int]:
    return [lo + (hi - lo) * i // (n - 1) for i in range(n)]


def _coeff(rng: random.Random, degrees: range, lo: int, hi: int) -> list[list[int]]:
    """A Laurent coefficient with lo..hi nonzero terms, as sorted [k2, c]."""
    ks = rng.sample(list(degrees), rng.randint(lo, hi))
    return [[k, rng.choice((-3, -2, -1, 1, 2, 3))] for k in sorted(ks)]


# -- cli_cold -------------------------------------------------------------------------

RESOLUTION_FIXTURES = ("z2", "z3", "z4", "x2", "x2y", "x2y_plane", "x2_line",
                       "x2_line_blowup")
ARC_FIXTURES = ("arc_z2", "arc_z3", "arc_z4", "arc_x2y")
ATLAS_FIXTURES = ("atlas_z2", "atlas_cylinder")
LOCALIZE_FIXTURES = ("localize_z1z2", "localize_two_points")
COMMANDS_BY_FIXTURE = {
    **{f: ("zeta", "nearby", "vanishing") for f in RESOLUTION_FIXTURES},
    **{f: ("arc-check",) for f in ARC_FIXTURES},
    **{f: ("glue",) for f in ATLAS_FIXTURES},
    **{f: ("localize",) for f in LOCALIZE_FIXTURES},
    "ts_z2_10": ("ts",),
}
PAYLOAD_KINDS = ("resolution", "monomial", "arc-check", "atlas", "fixedpoints",
                 "ts")
MUTATIONS_PER_KIND = 2
WARMUP_CLI_OP = "vanishing --fixture x2y"


def fixture_ops() -> list[dict]:
    """Every shipped fixture under every command that accepts it."""
    ops = []
    for fixture, commands in COMMANDS_BY_FIXTURE.items():
        for cmd in commands:
            for extra in ([], ["--machine-readable"]):
                argv = [cmd, "--fixture", fixture, *extra]
                ops.append({"id": " ".join(argv), "argv": argv, "code": 0})
    for fixture in RESOLUTION_FIXTURES:
        argv = ["zeta", "--fixture", fixture, "--series-order", "12"]
        ops.append({"id": " ".join(argv), "argv": argv, "code": 0})
    ops.append({"id": "selftest", "argv": ["selftest"], "code": 0})
    for op in ops:
        op["warmup"] = op["id"] == WARMUP_CLI_OP
    return ops


def _load_fixture(src: Path, name: str) -> dict:
    return json.loads((src / "motivic" / "fixtures" / f"{name}.json")
                      .read_text(encoding="utf-8"))


def _tag(rng: random.Random) -> str:
    return f"{rng.randrange(16 ** 6):06x}"


def _mutation(rng: random.Random, src: Path, kind: str) -> tuple[list[str], dict, int, str]:
    """(argv without --job, mutated job, documented exit code, stderr marker)."""
    if kind == "unknown_field":
        fixture = rng.choice(sorted(COMMANDS_BY_FIXTURE))
        job = _load_fixture(src, fixture)
        where = rng.choice(("job", "payload", "registry", "params"))
        target = job if where == "job" else job.setdefault(where, {})
        target[f"x_{_tag(rng)}"] = rng.randrange(100)
        return [COMMANDS_BY_FIXTURE[fixture][0]], job, 2, "validation"
    if kind == "wrong_kind":
        fixture = rng.choice(sorted(COMMANDS_BY_FIXTURE))
        job = _load_fixture(src, fixture)
        job["payload"]["kind"] = rng.choice(
            [k for k in PAYLOAD_KINDS if k != job["payload"]["kind"]])
        return [COMMANDS_BY_FIXTURE[fixture][0]], job, 2, "validation"
    if kind == "undeclared_critical_value":
        fixture = rng.choice(RESOLUTION_FIXTURES)
        job = _load_fixture(src, fixture)
        job.setdefault("params", {})["critical_value"] = f"c_{_tag(rng)}"
        return ["vanishing"], job, 3, "missing restriction"
    if kind == "broken_cocycle":
        job = _load_fixture(src, "atlas_cylinder")
        where = rng.choice(("chart_q", "p_a", "p_b", "q_t"))
        if where == "chart_q":
            entry = job["payload"]["charts"][rng.randrange(2)]
            entry["Q"] = [] if entry["Q"] else ["p1"]
        else:
            ov = job["payload"]["overlaps"][0]
            ov[where] = [] if ov[where] else ["p1"]
        return ["glue"], job, 5, "descent failure"
    if kind == "undeclared_region":
        fixture = rng.choice(ATLAS_FIXTURES)
        job = _load_fixture(src, fixture)
        charts = job["payload"]["charts"]
        charts[rng.randrange(len(charts))]["region"] = f"R_{_tag(rng)}"
        return ["glue"], job, 2, "validation"
    raise ValueError(kind)


MUTATION_KINDS = ("unknown_field", "wrong_kind", "undeclared_critical_value",
                  "broken_cocycle", "undeclared_region")


def cli_cold(seed: int, src: Path) -> list[dict]:
    """Shuffled deck of CLI invocations; mutated jobs are inlined as text."""
    rng = rng_for("cli_cold", seed)
    ops = fixture_ops()
    for kind in MUTATION_KINDS:
        for i in range(MUTATIONS_PER_KIND):
            argv, job, code, marker = _mutation(rng, src, kind)
            ops.append({"id": f"{kind}#{i}", "argv": argv, "code": code,
                        "stderr": marker, "warmup": False,
                        "job": json.dumps(job, sort_keys=True)})
    rng.shuffle(ops)
    return ops


# -- ring_dense -------------------------------------------------------------------------

RING_PLAIN = ("s0", "s1", "s2", "s3")
RING_OPAQUE = ("mu3", "mu4", "mu5")
ODOT_PER_DECK = 20
UNDECIDABLE_PER_DECK = 1     # 5% of the odot pairs
CHAIN_ORDERS = (8, 9, 10, 11, 12)
OPAQUE_SIDES = ("a", "b", None)


def ring_motive(rng: random.Random, gens: int, size: int, opaque: bool) -> list:
    """``size`` distinct terms [monomial, bits, coeff]; with ``opaque`` the
    first term and ~15% of the rest carry an opaque symbol."""
    seen = set()
    terms = []
    while len(terms) < size:
        mon = sorted(rng.sample(RING_PLAIN, rng.choice((0, 0, 1, 1, 2))))
        if opaque and (not terms or rng.random() < 0.15):
            mon = sorted(mon + [rng.choice(RING_OPAQUE)])
        bits = rng.randrange(1 << gens)
        key = (tuple(mon), bits)
        if key in seen:
            continue
        seen.add(key)
        terms.append([mon, bits, _coeff(rng, range(-3, 4), 1, 2)])
    return terms


def ring_dense(seed: int) -> list[dict]:
    """Sizes pair 50 with 200, 57 with 192, ... and generator counts cycle
    through 6..10; the opaque x opaque pairs and the side that carries
    opaque terms sit on fixed slots.  Every seed therefore has the same work
    per deck, and only the terms are random."""
    rng = rng_for("ring_dense", seed)
    sizes_a = _grid(50, 200, ODOT_PER_DECK)
    sizes_b = sizes_a[::-1]
    ops = []
    for i, (na, nb) in enumerate(zip(sizes_a, sizes_b)):
        gens = 6 + i % 5
        both = i % (ODOT_PER_DECK // UNDECIDABLE_PER_DECK) == 0
        opaque_side = OPAQUE_SIDES[i % len(OPAQUE_SIDES)]
        ops.append({
            "op": "odot", "gens": gens,
            "a": ring_motive(rng, gens, na, both or opaque_side == "a"),
            "b": ring_motive(rng, gens, nb, both or opaque_side == "b"),
            "expect": "undecidable" if both else "ok",
        })
    ops += [{"op": "chain", "n": n, "warmup": n == CHAIN_ORDERS[0]}
            for n in CHAIN_ORDERS]
    rng.shuffle(ops)
    return ops


# -- series_deep ------------------------------------------------------------------------

ZETA_PER_DECK = 16
ARC_SLOTS = ((2, 200), (3, 400), (1, 600), (2, 800), (4, 1000))   # (a, k)
SERIES_ORDERS = range(200, 49, -25)      # k tried from the top of 50..200
# cap on the estimated path count, by number of divisors: a path costs about
# 4 us with three divisors and 1-3 us with more, so every op lands near 100 ms
SERIES_WORK = {3: 30000, 4: 60000, 5: 80000, 6: 100000}
SERIES_GENS = ("p", "q")


def _path_estimate(ns: list[int], k: int) -> float:
    """Approximate count of exponent tuples expand_series walks.

    For a stratum with multiplicities N_i the factor product has about
    k^r / (r! prod N_i) monomials of degree <= k (r = number of factors);
    the per-path cost grows with r, hence the extra factor.
    """
    total = 0.0
    for r in range(1, len(ns) + 1):
        for sub in combinations(ns, r):
            prod = 1
            for n in sub:
                prod *= n
            total += r * k ** r / (factorial(r) * prod)
    return total


def _stratum_class(rng: random.Random, m: int) -> list:
    if m == 1:
        return [[[], 0, _coeff(rng, range(0, 5, 2), 2, 2)]]
    if m == 2:
        bits = rng.randint(1, (1 << len(SERIES_GENS)) - 1)
        return [[[], 0, [[0, 1]]], [[], bits, [[1, -1]]]]
    return [[[f"mu{m}"], 0, [[0, 1]]]]


def series_slots() -> list[tuple[list[int], list[int], int]]:
    """(N, nu, k) per zeta op: one fixed table for every seed.

    Divisor counts cycle through 3..6, N is drawn from 1..6 and nu from
    1..4.  Shapes whose estimated expansion work exceeds the SERIES_WORK cap
    even at k = 50 are redrawn, and k is the largest order in 50..200 under
    the cap, so that every op stays in one cost band.  N and nu fix how many
    exponents the expansion carries, so the seed varies only the classes.
    """
    rng = random.Random("perfbench:series_deep:slots")
    slots = []
    for i in range(ZETA_PER_DECK):
        ndiv = 3 + i % 4
        while True:
            ns = [rng.randint(1, 6) for _ in range(ndiv)]
            ks = [k for k in SERIES_ORDERS
                  if _path_estimate(ns, k) <= SERIES_WORK[ndiv]]
            if ks:
                break
        slots.append((ns, [rng.randint(1, 4) for _ in ns], ks[0]))
    return slots


def resolution_spec(rng: random.Random, ns: list[int], nus: list[int],
                    k: int) -> dict:
    """Seeded stratum classes on every subset of the given divisors."""
    ndiv = len(ns)
    divisors = [[f"E{i}", n, nu] for i, (n, nu) in enumerate(zip(ns, nus))]
    strata = []
    for r in range(1, ndiv + 1):
        for sub in combinations(range(ndiv), r):
            m = 0
            for i in sub:
                m = gcd(m, ns[i])
            strata.append([[f"E{i}" for i in sub], m, _stratum_class(rng, m)])
    return {"divisors": divisors, "strata": strata, "dim_u": ndiv, "k": k}


def arc_spec(rng: random.Random, a: int, k: int) -> dict:
    """A monomial inside the arc oracle's scope: affine x^a times 0-2 units."""
    units = rng.randint(0, 2)
    if a == 2:
        unit_exps = [rng.randint(1, 3) for _ in range(units)]
    else:
        unit_exps = [a * rng.randint(1, 2) for _ in range(units)]
    return {"exponents": [a, *unit_exps], "k": k}


def series_deep(seed: int) -> list[dict]:
    rng = rng_for("series_deep", seed)
    ops = [{"op": "zeta", **resolution_spec(rng, ns, nus, k)}
           for ns, nus, k in series_slots()]
    ops += [{"op": "arc", **arc_spec(rng, a, k), "warmup": k == ARC_SLOTS[0][1]}
            for a, k in ARC_SLOTS]
    rng.shuffle(ops)
    return ops


# -- atlas_glue -------------------------------------------------------------------------

ATLAS_PER_DECK = 20
BROKEN_PER_DECK = 2          # 10% of the atlases carry one broken overlap
GLOBAL_GENS = 2              # generators g0, g1 shared by name on every space
LOCALIZE_WRONG_SHARE = 0.2


def _space_gens(slot: int) -> list[str]:
    """4..8 generators, cycling with the chart or overlap slot."""
    n = 4 + slot % 5
    return [f"g{i}" for i in range(GLOBAL_GENS)] + \
        [f"l{i}" for i in range(n - GLOBAL_GENS)]


def pull_bits(table: dict, target_gens: list[str], source_gens: list[str],
              bits: int) -> int:
    """Benchmark-side transport: listed generators by table, others by name."""
    out = 0
    for i, g in enumerate(target_gens):
        if bits >> i & 1:
            out ^= table[g] if g in table else 1 << source_gens.index(g)
    return out


def atlas_spec(rng: random.Random, ncharts: int, broken: bool) -> dict:
    """Oriented atlas whose descent holds by construction.

    Every region value is V . Y(G) with V and G supported on the shared
    generators g0, g1, which every restriction keeps by name.  A chart
    carries mf = V . Y(alpha) and Q = G + alpha; an overlap picks P_a at
    random and sets P_b = r_a(alpha_a) + P_a + r_b(alpha_b) and
    Q_T = P_a + r_a(Q_a), which makes both cocycle identities and the
    transported-value identity hold.
    """
    spaces = {}
    value = [[[], b, _coeff(rng, range(-3, 4), 2, 2)]
             for b in range(1 << GLOBAL_GENS)]
    glued_bits = rng.randrange(1 << GLOBAL_GENS)
    charts = []
    for i in range(ncharts):
        gens = _space_gens(i)
        spaces[f"S{i}"] = gens
        alpha = rng.randrange(1 << len(gens))
        charts.append({"id": f"c{i}", "region": f"R{i}", "space": f"S{i}",
                       "alpha": alpha, "q": glued_bits ^ alpha})
    pairs = [(i, i + 1) for i in range(ncharts - 1)]
    extra = set()
    while len(extra) < ncharts // 2:
        i, j = sorted(rng.sample(range(ncharts), 2))
        if j != i + 1:
            extra.add((i, j))
    pairs += sorted(extra)
    morphisms, overlaps = [], []
    for n, (i, j) in enumerate(pairs):
        wgens = _space_gens(n)
        wspace = f"W{n}"
        spaces[wspace] = wgens
        local_w = [1 << wgens.index(g) for g in wgens[GLOBAL_GENS:]]
        restrict = []
        for side, c in (("a", charts[i]), ("b", charts[j])):
            table = {g: rng.choice(local_w) ^ (rng.choice(local_w)
                                               if rng.random() < 0.5 else 0)
                     for g in spaces[c["space"]][GLOBAL_GENS:]}
            name = f"r{n}{side}"
            morphisms.append({"name": name, "source": wspace,
                              "target": c["space"], "table": table})
            restrict.append((name, table, c))
        (ra, ta, ca), (rb, tb, cb) = restrict
        alpha_a = pull_bits(ta, spaces[ca["space"]], wgens, ca["alpha"])
        alpha_b = pull_bits(tb, spaces[cb["space"]], wgens, cb["alpha"])
        p_a = rng.randrange(1 << len(wgens))
        p_b = alpha_a ^ p_a ^ alpha_b
        q_t = p_a ^ pull_bits(ta, spaces[ca["space"]], wgens, ca["q"])
        overlaps.append({"a": ca["id"], "b": cb["id"], "region": f"O{n}",
                         "space": wspace, "p_a": p_a, "p_b": p_b, "q_t": q_t,
                         "restrict_a": ra, "restrict_b": rb})
    if broken:
        ov = rng.choice(overlaps)
        ov["q_t"] ^= 1 << rng.randrange(len(spaces[ov["space"]]))
    scissor = []
    for c in charts:
        entries = [[t[1] ^ glued_bits, _coeff(rng, range(-2, 3), 2, 2)]
                   for t in value]
        scissor.append({"region": c["region"], "sign": rng.choice((1, -1)),
                        "entries": entries})
    total = {}
    for piece in scissor:
        for (_, _, coeff), (_, entry) in zip(value, piece["entries"]):
            prod = reference.product(
                reference.laurent(dict(coeff)), reference.laurent(dict(entry)))
            total = reference.add(total, prod, piece["sign"])
    components, verdict = _fixed_points(rng, {k2: c for (_, _, k2), c
                                              in total.items()})
    return {"spaces": spaces, "value": value, "charts": charts,
            "morphisms": morphisms, "overlaps": overlaps, "scissor": scissor,
            "broken": broken, "components": components, "verdict": verdict,
            "pushforward": sorted([k2, c] for (_, _, k2), c in total.items())}


def _fixed_points(rng: random.Random, pushforward: dict) -> tuple[list, bool]:
    """Fixed components whose localized sum is the pushforward, or (for a
    seeded share) that sum perturbed by one, with the verdict to expect."""
    parts = [dict() for _ in range(rng.randint(2, 4))]
    for k2, c in sorted(pushforward.items()):
        parts[rng.randrange(len(parts))][k2] = c
    wrong = rng.random() < LOCALIZE_WRONG_SHARE
    if wrong:
        parts[0][0] = parts[0].get(0, 0) + 1
    components = []
    for i, part in enumerate(parts):
        ind = rng.randint(-3, 3)
        extra = rng.randint(0, 2)
        weights = [rng.randint(1, 3) for _ in range(max(ind, 0) + extra)] + \
            [-rng.randint(1, 3) for _ in range(max(-ind, 0) + extra)]
        rng.shuffle(weights)
        # localize_sum scales by L^(-ind/2); store the component pre-shifted
        terms = [[k2 + ind, c] for k2, c in sorted(part.items()) if c]
        components.append({"id": f"x{i}", "weights": weights, "coeff": terms})
    return components, not wrong


def atlas_glue(seed: int) -> list[dict]:
    rng = rng_for("atlas_glue", seed)
    sizes = _grid(20, 100, ATLAS_PER_DECK)
    # broken atlases sit on fixed size slots; which overlap breaks is seeded
    broken = {ATLAS_PER_DECK * (2 * j + 1) // (2 * BROKEN_PER_DECK)
              for j in range(BROKEN_PER_DECK)}
    ops = [{"op": "atlas", **atlas_spec(rng, n, i in broken), "warmup": i == 0}
           for i, n in enumerate(sizes)]
    rng.shuffle(ops)
    return ops


GENERATORS = {"ring_dense": ring_dense, "series_deep": series_deep,
              "atlas_glue": atlas_glue}


def generate(workload: str, seed: int, src: Path) -> list[dict]:
    if workload == "cli_cold":
        return cli_cold(seed, src)
    return GENERATORS[workload](seed)

