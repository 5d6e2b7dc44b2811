"""The seeded workloads: inputs, the call that is timed, and its check.

Every workload is an endless stream of :class:`Case` objects drawn from a
seeded ``random.Random``.  Cases follow a fixed cycle of templates, so the mix of
kinds and sizes is the same for every seed and only the details vary; this
keeps run-to-run spread small while the seed still changes every input.
The expected answer of a case comes from the generator's own construction
or from :mod:`oracle`, never from homcap, and is computed outside the timed
region each time the case is checked.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from collections import Counter

import oracle


class Case:
    """One operation: ``call()`` is timed, ``check(answer)`` is not.

    Calls look homcap's functions up when they run, never ahead of time, so
    that a traced run sees the recording wrappers spans.py installs.  The
    expected value is computed afresh for each check and not kept, so that
    memory does not grow with the number of operations a run completes.
    """

    __slots__ = ("text", "call", "_expect", "_judge")

    def __init__(self, text: str, call, expect, judge):
        self.text = text  # stable description of the input, for the input hash
        self.call = call
        self._expect = expect  # () -> expected value
        self._judge = judge  # (answer, expected) -> bool

    def expected(self):
        return self._expect()

    def check(self, answer) -> bool:
        return bool(self._judge(answer, self.expected()))


# ---------------------------------------------------------------------------
# shared drawing helpers

PRIMES = (2, 3, 5, 7)


def _cyclic_order(rng: random.Random) -> int:
    """A cyclic order built from one or two prime powers of distinct primes."""
    primes = rng.sample(PRIMES, rng.choice((1, 1, 2)))
    return math.prod(p ** rng.randint(1, 3 if p == 2 else 2) for p in primes)


def _group_text(rng: random.Random, rank: int, orders: list[int]) -> str:
    terms = [f"Z/{n}" for n in orders]
    if rank > 1 and rng.random() < 0.5:
        terms.append(f"Z^{rank}")
    else:
        terms += ["Z"] * rank
    if not terms or rng.random() < 0.1:
        terms.append("0")
    rng.shuffle(terms)
    return rng.choice((" + ", "+")).join(terms)


def _wedge_text(rng: random.Random, terms: list[str]) -> str:
    terms = list(terms)
    rng.shuffle(terms)
    if rng.random() < 0.2:
        terms.insert(rng.randrange(len(terms) + 1), "*")
    if len(terms) >= 3 and rng.random() < 0.3:
        cut = rng.randrange(1, len(terms) - 1)
        terms = terms[:cut] + ["(" + " v ".join(terms[cut:]) + ")"]
    return " v ".join(terms)


def _sphere_term(rng: random.Random, dim: int) -> str:
    return f"M(Z, {dim})" if dim >= 2 and rng.random() < 0.15 else f"S^{dim}"


def _sphere_wedge_render(dims) -> str:
    return " v ".join(f"S^{d}" for d in sorted(dims)) or "*"


def _factor_text(desc: tuple) -> str:
    kind = desc[0]
    if kind == "S":
        return f"S^{desc[1]}"
    if kind == "CP":
        return f"CP^{desc[1]}"
    if kind == "M":
        return f"M(Z/{desc[1]}, {desc[2]})"
    if kind == "K1":
        return f"K(Z/{desc[1]}, 1)"
    return "K(Z, 2)"


def _profile_bound(dim: int | None, requested: int | None) -> int:
    # the CLI's default: the homological dimension, or 10 for K-spaces
    if requested is not None:
        return requested
    return dim if dim is not None else 10


def _groups_json(h: dict[int, tuple], bound: int) -> dict[str, str]:
    return {str(n): oracle.render(h.get(n, oracle.TRIVIAL)) for n in range(bound + 1)}


# ---------------------------------------------------------------------------
# cli_mix: in-process CLI requests, parsed and checked as JSON


def _cli_call(cli, argv: list[str]):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def _cli_judge(answer, expected) -> bool:
    code, out, _ = answer
    if code != 0:
        return False
    doc = json.loads(out)
    for key, want in expected.items():
        got = doc.get(key)
        if isinstance(want, list):
            got = sorted(got) if isinstance(got, list) else got
            want = sorted(want)
        if got != want:
            return False
    return True


def _count_json(value: int | None) -> dict:
    """The CLI's capacity field: a finite count, or unknown for None."""
    if value is None:
        return {"kind": "unknown", "value": None}
    return {"kind": "finite", "value": value}


def _draw_group(rng: random.Random, max_rank: int, max_terms: int, min_terms: int = 0):
    rank = rng.randint(0, max_rank)
    orders = [_cyclic_order(rng) for _ in range(rng.randint(min_terms, max_terms))]
    if rank == 0 and not orders:
        orders = [_cyclic_order(rng)]
    return rank, orders


def _moore_wedge(rng: random.Random, max_degree: int):
    """Terms text and per-degree groups of a wedge of spheres and Moore
    spaces in distinct degrees, no circles."""
    by_degree = {}
    terms = []
    for deg in rng.sample(range(2, max_degree + 1), rng.randint(1, 3)):
        rank, orders = _draw_group(rng, 1, 2, min_terms=1)
        by_degree[deg] = oracle.group(rank, orders)
        if rng.random() < 0.5:
            terms.append(f"M({_group_text(rng, rank, orders)}, {deg})")
        else:
            terms.append(f"M({_group_text(rng, 0, orders)}, {deg})")
            terms += [_sphere_term(rng, deg)] * rank
    return terms, by_degree


def _moore_wedge_render(by_degree: dict[int, tuple]) -> str:
    # canonical order: spheres by dimension, then one Moore space per degree
    spheres = [f"S^{d}" for d in sorted(by_degree) for _ in range(by_degree[d][0])]
    moores = [
        f"M({oracle.render((0, g[1]))}, {d})" for d, g in sorted(by_degree.items()) if g[1]
    ]
    return " v ".join(spheres + moores) or "*"


CLI_POOL = (
    ("S", 1), ("S", 2), ("S", 3), ("S", 4), ("S", 5), ("CP", 2), ("CP", 3),
    ("M", 2, 2), ("M", 3, 3), ("M", 4, 2), ("M", 6, 3),
    ("K1", 2), ("K1", 3), ("K2",),
)


def _cli_capacity_spheres(rng):
    dims = [rng.randint(1, 9) for _ in range(rng.randint(1, 8))]
    text = _wedge_text(rng, [_sphere_term(rng, d) for d in dims])
    argv = ["capacity", text, "--json"]
    return argv, lambda: {
        "space": _sphere_wedge_render(dims),
        "capacity": _count_json(oracle.sub_multisets(dims)),
    }


def _cli_enumerate_spheres(rng):
    dims = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
    text = _wedge_text(rng, [_sphere_term(rng, d) for d in dims])
    argv = ["capacity", text, "--enumerate", "--json"]

    def expect():
        subs = [[]]
        for d, m in sorted(Counter(dims).items()):
            subs = [s + [d] * take for s in subs for take in range(m + 1)]
        return {
            "space": _sphere_wedge_render(dims),
            "capacity": _count_json(len(subs)),
            "dominated": [_sphere_wedge_render(s) for s in subs],
        }

    return argv, expect


def _cli_capacity_moore(rng):
    terms, by_degree = _moore_wedge(rng, 8)
    argv = ["capacity", _wedge_text(rng, terms), "--json"]
    count = math.prod(oracle.summand_count(g) for g in by_degree.values())
    # keep listings short: this workload measures per-request overhead
    enumerate_types = count <= 48 and rng.random() < 0.3
    if enumerate_types:
        argv.insert(2, "--enumerate")

    def expect():
        doc = {"space": _moore_wedge_render(by_degree), "capacity": _count_json(count)}
        if enumerate_types:
            degrees = sorted(by_degree)
            doc["dominated"] = [
                _moore_wedge_render(dict(zip(degrees, pick)))
                for pick in itertools.product(
                    *(oracle.summand_classes(by_degree[d]) for d in degrees)
                )
            ]
        return doc

    return argv, expect


def _cli_capacity_k_or_cp(rng):
    if rng.random() < 0.3:
        n = rng.randint(2, 5)
        return ["capacity", f"CP^{n}", "--json"], lambda: {
            "capacity": _count_json(2 if n == 2 else None)
        }
    rank, orders = _draw_group(rng, 2, 3)
    deg = rng.randint(1, 4)
    argv = ["capacity", f"K({_group_text(rng, rank, orders)}, {deg})", "--json"]
    return argv, lambda: {
        "capacity": _count_json(oracle.summand_count(oracle.group(rank, orders)))
    }


def _cli_capacity_product(rng):
    descs = [rng.choice(CLI_POOL) for _ in range(rng.randint(2, 3))]
    argv = ["capacity", " x ".join(_factor_text(d) for d in descs), "--json"]
    return argv, lambda: {
        "capacity": {"kind": "lower-bound", "value": oracle.product_lower_bound(descs)}
    }


BORSUK_WEDGES = ("S^2 v S^4", "S^4 v S^2", "(S^2) v S^4", "S^2 v M(Z, 4)",
                 "M(Z,2) v S^4", "* v S^2 v S^4", "S^2 v (S^4 v *)")
BORSUK_CP2 = ("CP^2", "(CP^2)", "CP^2 v *", "* v CP^2")


def _cli_compare_borsuk(rng):
    pair = [(rng.choice(BORSUK_WEDGES), "S^2 v S^4", 4), (rng.choice(BORSUK_CP2), "CP^2", 2)]
    rng.shuffle(pair)
    (tx, rx, cx), (ty, ry, cy) = pair
    argv = ["compare", tx, ty, "--json"]
    return argv, lambda: {
        "space_x": rx,
        "space_y": ry,
        "compared_up_to": 10,
        "homology_agrees": True,
        "exact_comparison": True,
        "capacity_x": _count_json(cx),
        "capacity_y": _count_json(cy),
        "is_counterexample": True,
    }


def _cli_compare_spheres(rng):
    dx = [rng.randint(1, 8) for _ in range(rng.randint(1, 6))]
    dy = list(dx) if rng.random() < 0.5 else [rng.randint(1, 8) for _ in range(rng.randint(1, 6))]
    argv = ["compare", _wedge_text(rng, [_sphere_term(rng, d) for d in dx]),
            _wedge_text(rng, [_sphere_term(rng, d) for d in dy]), "--json"]
    bound = None
    if rng.random() < 0.5:
        bound = rng.randint(0, 12)
        argv += ["--bound", str(bound)]

    def expect():
        b = bound if bound is not None else max([10] + dx + dy)
        agrees = Counter(d for d in dx if d <= b) == Counter(d for d in dy if d <= b)
        exact = b >= max(dx) and b >= max(dy)
        cx, cy = oracle.sub_multisets(dx), oracle.sub_multisets(dy)
        return {
            "space_x": _sphere_wedge_render(dx),
            "space_y": _sphere_wedge_render(dy),
            "compared_up_to": b,
            "homology_agrees": agrees,
            "exact_comparison": exact,
            "capacity_x": _count_json(cx),
            "capacity_y": _count_json(cy),
            "is_counterexample": agrees and exact and cx != cy,
        }

    return argv, expect


def _homology_argv(rng, text: str):
    argv = ["homology", text, "--json"]
    requested = None
    if rng.random() < 0.7:
        requested = rng.randint(0, 30)
        argv += ["--bound", str(requested)]
    return argv, requested


def _cli_homology_single(rng):
    kind = rng.randrange(3)
    if kind == 0:
        terms, by_degree = _moore_wedge(rng, 12)
        h = dict(by_degree)
        h[0] = oracle.Z
        dim = max(by_degree)
        text = _wedge_text(rng, terms)
    else:
        desc = rng.choice((("K1", 2), ("K1", 3), ("K1", 6), ("K2",), ("CP", 3), ("CP", 5)))
        dim = oracle.dimension(desc)
        h = None
        text = _factor_text(desc)
    argv, requested = _homology_argv(rng, text)
    bound = _profile_bound(dim, requested)

    def expect():
        groups = h if h is not None else oracle.factor_homology(desc, bound)
        return {
            "bound": bound,
            "groups": _groups_json(groups, bound),
            "exact_above_bound": dim is not None and bound >= dim,
        }

    return argv, expect


def _cli_homology_product(rng):
    descs = [rng.choice(CLI_POOL) for _ in range(rng.randint(2, 3))]
    dims = [oracle.dimension(d) for d in descs]
    dim = None if None in dims else sum(dims)
    argv, requested = _homology_argv(rng, " x ".join(_factor_text(d) for d in descs))
    bound = _profile_bound(dim, requested)
    return argv, lambda: {
        "bound": bound,
        "groups": _groups_json(oracle.product_homology(descs, bound), bound),
        "exact_above_bound": dim is not None and bound >= dim,
    }


def _cli_summands(rng):
    rank, orders = _draw_group(rng, 1, 5, min_terms=1)
    argv = ["summands", _group_text(rng, rank, orders), "--json"]

    def expect():
        g = oracle.group(rank, orders)
        return {
            "group": oracle.render(g),
            "count": oracle.summand_count(g),
            "classes": [oracle.render(c) for c in oracle.summand_classes(g)],
        }

    return argv, expect


CLI_TEMPLATES = (
    _cli_capacity_spheres,
    _cli_enumerate_spheres,
    _cli_capacity_moore,
    _cli_capacity_k_or_cp,
    _cli_capacity_product,
    _cli_compare_borsuk,
    _cli_compare_spheres,
    _cli_homology_single,
    _cli_homology_product,
    _cli_summands,
)


def cli_mix(homcap, rng: random.Random):
    """The cli_mix cases, one from each template in turn, without end."""
    import homcap.cli as cli

    for template in itertools.cycle(CLI_TEMPLATES):
        argv, expect = template(rng)
        yield Case(json.dumps(argv), _cli_call(cli, argv), expect, _cli_judge)


# ---------------------------------------------------------------------------
# product_kunneth: capacity of wide products and deep homology profiles,
# called as library functions; grammar and cli are bypassed.
#
# A template fixes the shape of every factor and the profile bound; the seed
# draws the torsion orders, the sphere dimensions of the all-sphere product
# (summing to 15), and the order of the factors.  What the template fixes
# sets the cost of a call, so the timings spread little across seeds.  The
# seven templates take well-separated times, from ~30 ms to ~450 ms here,
# and the median and p90 fall inside one template's timings instead of in a
# gap between two.
PRODUCT_TEMPLATES = (
    ("profile", ("CP", "S4", "M3"), 60),
    ("capacity", ("S2", "M3", "S4", "CP", "K1"), None),
    ("capacity", "spheres", None),
    ("profile", ("M2", "S3", "K1"), 100),
    ("capacity", ("S2", "M2", "S3", "CP", "S4", "K1"), None),
    ("profile", ("CP", "CP", "M3"), 180),
    ("capacity", ("S2", "M2", "M3", "S3", "CP", "K1", "K2"), None),
)


def _draw_factors(rng: random.Random, shapes) -> list[tuple]:
    if shapes == "spheres":
        while True:
            dims = [rng.randint(2, 4) for _ in range(5)]
            if sum(dims) == 15:
                return [("S", d) for d in dims]
    descs = []
    for shape in shapes:
        if shape[0] == "S":
            descs.append(("S", int(shape[1])))
        elif shape == "CP":
            descs.append(("CP", 2))
        elif shape[0] == "M":
            descs.append(("M", rng.choice((2, 3, 4, 5)), int(shape[1])))
        elif shape == "K1":
            descs.append(("K1", rng.choice((2, 3))))
        else:
            descs.append(("K2",))
    rng.shuffle(descs)
    return descs


def _space(homcap, desc: tuple):
    kind = desc[0]
    if kind == "S":
        return homcap.Sphere(desc[1])
    if kind == "CP":
        return homcap.ComplexProjective(desc[1])
    if kind == "M":
        return homcap.Moore(homcap.FgAbelianGroup(0, (desc[1],)), desc[2])
    if kind == "K1":
        return homcap.EilenbergMacLane(homcap.FgAbelianGroup(0, (desc[1],)), 1)
    return homcap.EilenbergMacLane(homcap.Z, 2)


def _capacity_judge(answer, expected) -> bool:
    return answer.kind == "lower-bound" and answer.value == expected


def _profile_judge(answer, expected) -> bool:
    groups, exact = expected
    return answer.exact_above_bound == exact and [
        (g.free_rank, g.invariant_factors) for g in answer.groups
    ] == groups


def _profile_expect(descs, b: int):
    h = oracle.product_homology(descs, b)
    groups = [
        (g[0], oracle.invariant_factors(g)) for g in (h.get(n, oracle.TRIVIAL) for n in range(b + 1))
    ]
    dims = [oracle.dimension(d) for d in descs]
    return groups, None not in dims and b >= sum(dims)


def _product_case(homcap, rng: random.Random, kind: str, shapes, b) -> Case:
    descs = _draw_factors(rng, shapes)
    space = homcap.Product(tuple(_space(homcap, d) for d in descs))
    if kind == "profile":
        return Case(
            f"profile {descs} {b}",
            lambda s=space, b=b: homcap.homology_profile(s, b),
            lambda ds=descs, b=b: _profile_expect(ds, b),
            _profile_judge,
        )
    if shapes == "spheres":
        expect = lambda ds=descs: oracle.sub_multisets(ds)
    else:
        expect = lambda ds=descs: oracle.product_lower_bound(ds)
    return Case(f"capacity {descs}", lambda s=space: homcap.capacity(s), expect, _capacity_judge)


# ---------------------------------------------------------------------------
# snf_presentations: Smith normal form with transforms, and presentations
# that need only the diagonal; only abelian runs.
#
# A template fixes the entry point, the kind of matrix (random entries in
# +-50, or a known group disguised by row and column additions) and its
# size; the seed draws the entries.  Every kind and size runs through both
# entry points, so a change that speeds one and slows the other shows.
SNF_TEMPLATES = tuple(
    (op, kind, n)
    for kind, n in (("random", 15), ("disguised", 25), ("random", 25), ("disguised", 40), ("random", 40))
    for op in ("snf", "presentation")
)


def _disguised(rng: random.Random, n: int):
    """A presentation of a known group hidden by unimodular row and
    column operations: returns (rows, free rank, invariant factors)."""
    rank = rng.randint(0, 2)
    chain = [rng.choice((2, 3, 4, 6))]
    for _ in range(rng.randint(1, 4)):
        chain.append(chain[-1] * rng.choice((1, 2, 3, 5)))
    diag = [1] * (n - rank - len(chain)) + chain + [0] * rank
    rng.shuffle(diag)
    a = [[0] * n for _ in range(n)]
    for i, d in enumerate(diag):
        a[i][i] = d
    for _ in range(2):  # row additions, then column additions on the transpose
        picks = rng.choices(range(n), k=4 * n)
        signs = rng.choices((-1, 1), k=2 * n)
        for i, j, c in zip(picks[::2], picks[1::2], signs):
            if i != j:
                a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        a = [list(col) for col in zip(*a)]
    return a, rank, tuple(chain)


def _is_chain(diag: list[int]) -> bool:
    nonzero = [d for d in diag if d]
    if any(d < 0 for d in diag) or diag[: len(nonzero)] != nonzero:
        return False  # negative entry, or a zero before a nonzero one
    return all(hi % lo == 0 for lo, hi in zip(nonzero, nonzero[1:]))


def _snf_judge(answer, expected) -> bool:
    rows, want_diag, det = expected
    u, d, v = (m.to_rows() for m in answer)
    n = len(rows)
    diag = [d[i][i] for i in range(n)]
    if any(d[i][j] for i in range(n) for j in range(n) if i != j) or not _is_chain(diag):
        return False
    if want_diag is not None and diag != want_diag:
        return False
    if not oracle.is_product(u, rows, v, diag):
        return False
    if det:
        # det(u) det(m) det(v) = prod(diag), so |det m| = prod(diag) makes
        # the integers det(u) and det(v) both +-1
        return abs(det) == math.prod(diag)
    return oracle.is_unimodular_mod(u) and oracle.is_unimodular_mod(v)


def _random_group_expect(rows):
    """What a random presentation's group must satisfy: its free rank is
    the corank over Q, its order |det| when finite, and for each small
    prime p the diagonal entries of the Smith form divisible by p (the
    free ones included) number the corank over F_p."""
    n = len(rows)
    det = oracle.det(rows)
    free = 0 if det else n - oracle.rank_mod(rows, oracle.UNIMODULAR_CHECK_PRIME)
    return free, abs(det), {p: n - oracle.rank_mod(rows, p) for p in PRIMES}


def _presentation_judge(answer, expected) -> bool:
    if expected[0] == "known":
        return (answer.free_rank, answer.invariant_factors) == expected[1]
    free, order, p_coranks = expected
    factors = answer.invariant_factors
    if answer.free_rank != free or (order and math.prod(factors) != order):
        return False
    return all(
        free + sum(1 for f in factors if f % p == 0) == r for p, r in p_coranks.items()
    )


def _snf_case(homcap, rng: random.Random, op: str, kind: str, n: int) -> Case:
    if kind == "random":
        entries = rng.choices(range(-50, 51), k=n * n)
        rows = [entries[r * n : (r + 1) * n] for r in range(n)]
    else:
        rows, rank, chain = _disguised(rng, n)
        diag = [1] * (n - rank - len(chain)) + list(chain) + [0] * rank
    m = homcap.IntMatrix(n, n, tuple(e for row in rows for e in row))
    if op == "snf" and kind == "random":
        call = lambda m=m: homcap.smith_normal_form(m)
        expect = lambda r=rows: (r, None, oracle.det(r))
    elif op == "snf":
        call = lambda m=m: homcap.smith_normal_form(m)
        # row and column additions keep the determinant of the diagonal
        expect = lambda r=rows, d=diag: (r, d, math.prod(d))
    elif kind == "random":
        call = lambda m=m: homcap.from_presentation(m)
        expect = lambda r=rows: _random_group_expect(r)
    else:
        call = lambda m=m: homcap.from_presentation(m)
        expect = lambda g=(rank, chain): ("known", g)
    judge = _snf_judge if op == "snf" else _presentation_judge
    return Case(f"{op} {kind} {rows}", call, expect, judge)


def product_kunneth(homcap, rng: random.Random):
    """The product_kunneth cases, one from each template in turn, without end."""
    for kind, shapes, b in itertools.cycle(PRODUCT_TEMPLATES):
        yield _product_case(homcap, rng, kind, shapes, b)


def snf_presentations(homcap, rng: random.Random):
    """The snf_presentations cases, one from each template in turn, without end."""
    for op, kind, n in itertools.cycle(SNF_TEMPLATES):
        yield _snf_case(homcap, rng, op, kind, n)
