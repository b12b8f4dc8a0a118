"""utk benchmark: one workload, one seed, one line of JSON.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check --seed 1 --seconds 25 --trace 0

It imports utk from ``src/`` of the checkout and drives the library from
this one process; an operation is a call into a public function, never a
``utk`` subprocess.  Each run sets up several times (fresh utk modules each
time) and reports the median set-up time, then repeats whole rounds of the
workload's operations until ``--seconds`` have passed, checks every result,
and prints ``{"correct", "attempted", "failed", "metrics"}`` as its last
line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps
the library functions listed in ``TRACED`` where their callers look them
up, alternates untraced and traced rounds, and reports per-layer metrics.
Result and trace files go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

# Only modules that ``import utk.cli`` does not load are imported at the top
# (no argparse, no json), so that the set-up measurement sees utk's whole
# import cost.
import bisect
import gc
import importlib
import itertools
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402

SETUP_REPS = 9
# The search workloads' catalog check runs this many times per round, so
# that its query medians rest on about as many samples as the others'.
CATALOG_CHECKS = 4
PAPER_U = [1, 2, 3, 5, 6, 9, 10, 14, 16, 19, 21]  # u(1..11)
REDLEAF_U_SMALL = [1, 3, 5, 9]  # u_red(1..4)
REDLEAF_REFERENCE = HERE / "redleaf_reference.codes"
MODULES = ("shapes", "embedding", "constructions", "search", "tanglegrams", "cli")

# Library functions the traced run wraps: name -> modules whose attribute
# the callers look up.
TRACED = {
    "search.find_min_universal_chain": ("search",),
    "search.is_universal": ("search",),
    "embedding.is_induced_subtree": ("embedding", "search"),
    "embedding.mast": ("embedding",),
    "shapes.enumerate_shapes": ("shapes", "search", "tanglegrams"),
    "tanglegrams.is_universal_tanglegram": ("tanglegrams",),
    "tanglegrams.canonical_tanglegram": ("tanglegrams",),
    "tanglegrams.leaf_automorphisms": ("tanglegrams",),
    "tanglegrams.induced_subtanglegram": ("tanglegrams",),
    "shapes.induced_with_leafmap": ("shapes", "tanglegrams"),
    "tanglegrams.enumerate_tanglegrams": ("tanglegrams",),
    "constructions.build_universal": ("constructions",),
    "constructions.build_universal_tanglegram": ("constructions",),
}
GENERATORS = {"shapes.enumerate_shapes", "tanglegrams.enumerate_tanglegrams"}


class Op:
    """One timed library call and the answer it must give.

    ``expect`` is the answer, or a function of no arguments that computes
    it after the timed region, or ``None`` when ``check`` judges the result.
    """

    __slots__ = ("kind", "module", "name", "args", "expect", "check")

    def __init__(self, kind, module, name, args, expect=None, check=None):
        self.kind, self.module, self.name = kind, module, name
        self.args, self.expect, self.check = args, expect, check


# --------------------------------------------------------------------------- #
# Raw-tree helpers for input generation (nested tuples, see oracle.py)
# --------------------------------------------------------------------------- #


def random_tree(rng, m):
    if m == 1:
        return "o"
    i = rng.randint(1, m - 1)
    return (random_tree(rng, i), random_tree(rng, m - i))


def redleaf_reject_hosts(n):
    """Binary hosts with a red leaf and n..u(n)-1 white leaves, so none is
    redleaf-n-universal, whose height still passes is_universal's height
    prefilter: a path of n - 1 white leaves ending in the red leaf, under a
    root whose other child is a caterpillar of the remaining leaves."""
    spine = "r"
    for _ in range(n - 1):
        spine = ("o", spine)
    return [(caterpillar(white - n + 1), spine) for white in range(n, PAPER_U[n - 1])]


def height_keeping_leaves(tree):
    """Indexes of the white leaves whose deletion keeps the tree's height
    (of all white leaves, if there is none), so that the smaller tree still
    passes is_universal's height prefilter."""
    whites = [i for i in range(oracle.white_leaves(tree) + oracle.red_leaves(tree))
              if _leaf_at(tree, i) == "o"]
    h = oracle.height(tree)
    return [i for i in whites if oracle.height(oracle.delete_leaf(tree, i)) == h] or whites


def _leaf_at(tree, index):
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            if index == 0:
                return node
            index -= 1
        else:
            stack.extend(reversed(node))
    raise IndexError(index)


def fixture_catalog(n):
    text = (FIXTURES / f"universal_catalog_n{n:02d}.codes").read_text()
    return [line for line in text.split() if line]


def redleaf_reference():
    """Levels 5 and 6 of the redleaf catalog: {k: [codes]}."""
    out = {}
    for line in REDLEAF_REFERENCE.read_text().splitlines():
        if line and not line.startswith("#"):
            k, code = line.split()
            out.setdefault(int(k), []).append(code)
    return out


# --------------------------------------------------------------------------- #
# Workloads: each builds the operations of one round from the seed
# --------------------------------------------------------------------------- #


def verify_ops(m, catalogs, redleaf):
    """Accept each catalog entry, reject it with one leaf deleted, and take
    the mast of the entry's white tree with that of the smaller copy."""
    search, embedding, parse = m["search"], m["embedding"], m["shapes"].parse_code
    ops = []
    for k, codes in sorted(catalogs.items()):
        for code in codes:
            tree = oracle.parse(code)
            smaller = oracle.delete_leaf(tree, height_keeping_leaves(tree)[0])
            ops.append(Op("accept", search, "is_universal", (parse(code), k, 2, redleaf), True))
            ops.append(Op("reject", search, "is_universal",
                          (parse(oracle.code(smaller)), k, 2, redleaf), False))
            if redleaf:
                white = oracle.delete_leaf(tree, _leaf_index(tree, "r"))
                smaller = oracle.delete_leaf(smaller, _leaf_index(smaller, "r"))
            else:
                white = tree
            size = oracle.white_leaves(white)
            ops.append(Op("mast", embedding, "mast",
                          (parse(oracle.code(white)), parse(oracle.code(smaller))), size - 1))
    return ops


def _leaf_index(tree, color):
    leaves = oracle.white_leaves(tree) + oracle.red_leaves(tree)
    return next(i for i in range(leaves) if _leaf_at(tree, i) == color)


def search_workload(m, rng):
    catalogs = {k: fixture_catalog(k) for k in range(6, 11)}
    for size in range(1, 11):
        list(m["shapes"].enumerate_shapes(size, 2))
    chain = Op("search", m["search"], "find_min_universal_chain", (10, 2, False),
               check=check_white_chain)
    return [chain] + verify_ops(m, catalogs, False) * CATALOG_CHECKS


def redleaf_workload(m, rng):
    catalogs = redleaf_reference()
    for size in range(0, 7):
        list(m["shapes"].enumerate_shapes(size, 2, True))
        if size:
            list(m["shapes"].enumerate_shapes(size, 2))
    chain = Op("search", m["search"], "find_min_universal_chain", (6, 2, True),
               check=lambda reports: check_redleaf_chain(m, reports, catalogs))
    return [chain] + verify_ops(m, catalogs, True) * CATALOG_CHECKS


def caterpillar(size):
    tree = "o"
    for _ in range(size - 1):
        tree = ("o", tree)
    return tree


def jelly_code(h, ell):
    tree = caterpillar(ell)
    for _ in range(h):
        tree = (tree, tree)
    return oracle.code(tree)


def jelly_mast(s1, s2):
    """The paper's closed form for the agreement size of two jellyfish."""
    (h1, ell1), (h2, ell2) = sorted([s1, s2])
    top = min(h1 + ell1 - 1, h2 + ell2 - 1)
    return 2**h1 * (top + 1 - h1)


def check_workload(m, rng):
    """Accepts, rejects and mast pairs.

    Query costs swing a hundredfold between neighbouring inputs, so a
    seeded sample of them would make the medians follow the seed.  Every
    query is fixed but four small mast pairs, which the seed draws and the
    oracle checks; they are the cheapest mast queries, below the median."""
    search, embedding, cons = m["search"], m["embedding"], m["constructions"]
    parse = m["shapes"].parse_code
    ops = []

    def accept(code, n, d=2, redleaf=False):
        ops.append(Op("accept", search, "is_universal", (parse(code, d), n, d, redleaf), True))

    for n in (8, 9, 10):
        for code in fixture_catalog(n):
            accept(code, n)
    for n in (8, 9, 10, 11, 12):
        accept(cons.build_universal(n).code, n)
    accept((FIXTURES / "witness_12_universal.code").read_text().strip(), 12)
    for n in (5, 6, 7):
        accept(cons.build_universal_redleaf(n).code, n, redleaf=True)
        accept(cons.build_universal(n, 3).code, n, d=3)

    # A smallest n-universal tree minus one or two leaves has fewer than
    # u(n) leaves, so it is not n-universal, yet it holds most patterns.
    for n, deletions in ((8, 1), (9, 1), (10, 1), (11, 1), (10, 2), (11, 2)):
        hosts = set(fixture_catalog(n))
        for _ in range(deletions):
            trees = [oracle.parse(code) for code in hosts]
            hosts = {oracle.code(oracle.delete_leaf(tree, i))
                     for tree in trees for i in height_keeping_leaves(tree)}
        for code in sorted(hosts):
            ops.append(Op("reject", search, "is_universal", (parse(code), n, 2, False), False))
    for n in (5, 6):
        for host in redleaf_reject_hosts(n):
            ops.append(Op("reject", search, "is_universal", (parse(oracle.code(host)), n, 2, True), False))

    # The paper's lower-bound family: jellyfish(i - 1, 2**(k - i + 1)), all
    # with 2**k leaves, every pair for k = 5.  Built from codes, so no
    # subtree is shared.
    k = 5
    for i, j in itertools.combinations(range(1, k + 1), 2):
        s1, s2 = (i - 1, 2 ** (k - i + 1)), (j - 1, 2 ** (k - j + 1))
        ops.append(Op("mast", embedding, "mast",
                      (parse(jelly_code(*s1)), parse(jelly_code(*s2))), jelly_mast(s1, s2)))
    fixed = random.Random("check mast")
    for size in (24, 26, 28, 30):
        code = oracle.code(random_tree(fixed, size))
        ops.append(Op("mast", embedding, "mast", (parse(code), parse(code)), size))
    for _ in range(4):
        a, b = (oracle.code(random_tree(rng, rng.randint(7, 9))) for _ in range(2))
        ops.append(Op("mast", embedding, "mast", (parse(a), parse(b)),
                      lambda a=a, b=b: oracle.mast(a, b)))

    for n, d, red in {(op.args[1], op.args[2], op.args[3]) for op in ops if op.kind != "mast"}:
        list(m["shapes"].enumerate_shapes(n, d, red))
    return ops


# One-leaf extensions of the 4-universal catalog: whether an accept ends
# early depends on where the last of the 13 classes shows up in subset
# order, which swings tenfold between neighbouring trees, so the accepts are
# fixed and the seed varies the rejects.
TANGLE_ACCEPT_EXTRA = ("((oo)((oo)(oo)))", "((oo)(o(o(oo))))")


def tangle_workload(m, rng):
    tg, cons, embedding = m["tanglegrams"], m["constructions"], m["embedding"]
    parse = m["shapes"].parse_code
    n = 4
    tangles = []  # (universal?, tanglegram, mast of its two trees)
    for code in fixture_catalog(n) + list(TANGLE_ACCEPT_EXTRA):
        t = cons.build_universal_tanglegram(n, parse(code))
        tangles.append((True, t, t.size))
    # The reject trees are drawn once, from a generator of their own, so
    # that every seed scans trees of the same cost; the seed draws the
    # matchings.
    fixed = random.Random("tangle rejects")
    for size in (11, 12, 12, 13):
        # Right tree a caterpillar: every induced right tree is one, so the
        # classes whose right tree is ((oo)(oo)) are missed.  The agreement
        # is the largest caterpillar in the left tree, height + 1 leaves.
        left = random_tree(fixed, size)
        matching = list(range(size))
        rng.shuffle(matching)
        t = tg.Tanglegram(parse(oracle.code(left)), parse(oracle.code(caterpillar(size))),
                          tuple(matching))
        tangles.append((False, t, min(size, oracle.height(left) + 1)))
        # Two copies matched leaf to leaf: every induced subtanglegram has
        # equal trees, so the classes with unequal trees are missed.
        tree = parse(oracle.code(random_tree(fixed, size)))
        tangles.append((False, tg.Tanglegram(tree, tree, tuple(range(size))), size))
    ops = []
    for universal, t, agree in tangles:
        ops.append(Op("accept" if universal else "reject", tg, "is_universal_tanglegram",
                      (t, n), universal))
        ops.append(Op("mast", embedding, "mast", (t.left, t.right), agree))
    list(tg.enumerate_tanglegrams(n))
    return ops


WORKLOADS = {
    "search": search_workload,
    "search_redleaf": redleaf_workload,
    "check": check_workload,
    "tangle": tangle_workload,
}


# --------------------------------------------------------------------------- #
# Checks of the search output, made apart from the program
# --------------------------------------------------------------------------- #


def _check_entries(report, k, red):
    problems = []
    codes = report.minimal_shapes
    if len(set(codes)) != len(codes):
        problems.append(f"level {k}: duplicate entries")
    for code in codes:
        tree = oracle.parse(code)
        if oracle.code(tree) != code:
            problems.append(f"level {k}: {code} is not canonical")
        if oracle.white_leaves(tree) != report.u_value or oracle.red_leaves(tree) != int(red):
            problems.append(f"level {k}: {code} has the wrong leaves")
        if oracle.arity(tree) > 2:
            problems.append(f"level {k}: {code} is not binary")
        if not oracle.is_universal(code, k, 2, red):
            problems.append(f"level {k}: {code} is not universal by the oracle")
    return problems


def check_white_chain(reports):
    problems = []
    if [r.u_value for r in reports] != PAPER_U[:10]:
        problems.append(f"u(1..10) = {[r.u_value for r in reports]}")
    for k, report in enumerate(reports, start=1):
        problems += _check_entries(report, k, False)
        if k >= 4 and list(report.minimal_shapes) != fixture_catalog(k):
            problems.append(f"level {k}: catalog differs from the pinned fixture")
    return problems


def check_redleaf_chain(m, reports, reference):
    problems = []
    u_red = [r.u_value for r in reports]
    if u_red[:4] != REDLEAF_U_SMALL:
        problems.append(f"u_red(1..4) = {u_red[:4]}")
    for k, report in enumerate(reports, start=1):
        problems += _check_entries(report, k, True)
        if k in reference and list(report.minimal_shapes) != reference[k]:
            problems.append(f"level {k}: catalog differs from {REDLEAF_REFERENCE.name}")
        if report.u_value < PAPER_U[k - 1] or PAPER_U[k] > report.u_value + 1:
            problems.append(f"level {k}: u_red = {report.u_value} against u(k), u(k+1)")
        if report.u_value > m["constructions"].build_universal_redleaf(k).white_leaves:
            problems.append(f"level {k}: u_red above the construction's size")
    return problems


# --------------------------------------------------------------------------- #
# Set-up, tracing, rounds
# --------------------------------------------------------------------------- #


# Times are reported in seconds at a reference speed of the machine.  The
# host this benchmark was written on shares its cores: for seconds at a time
# the same Python code runs up to 1.8x slower.  A fixed pure-Python loop is
# timed around each set-up and, from an interval timer, every TICK_S during
# the rounds, also inside long operations; the time spent in the loop is
# left out of every time measured.  An operation's time is multiplied by
# REFERENCE_LOOP_S / (the mid-mean of the loop times taken within WINDOW_S
# of it): over a 90 s trace the host's speed moved query times by 22 %
# between 1.4 s stretches, and the query time over the loop time by 2.8 %.
# A single loop time next to an operation is as noisy as the operation, and
# a factor for the whole run misses where in the run a short operation
# fell.  Set-up times and the per-layer figures use the mid-mean of their
# phase's loop times.  The raw loop times go to the result file and to
# calibration.loop_s.
REFERENCE_LOOP_S = 0.004
TICK_S = 0.1
WINDOW_S = 1.0


def reference_loop():
    start = time.perf_counter()
    memo, total = {}, 0
    for i in range(10000):
        key = (i % 97, i % 89)
        total += memo.get(key, 0) & 7
        memo[key] = i
    return time.perf_counter() - start


def mid_mean(values):
    """Mean of the middle half of the values (all of them when fewer than
    four): it follows a run's mix of slow and fast stretches like a mean,
    without the odd interrupted sample."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


class Speed:
    """Reference-loop times of one phase of the run.

    As a context manager it samples on entry, every TICK_S from SIGALRM
    and on exit; ``clock()`` is ``perf_counter()`` less the time spent
    sampling, and ``at`` holds the clock at each sample.
    """

    def __init__(self):
        self.loops: list[float] = []
        self.at: list[float] = []
        self.paused = 0.0

    def sample(self, *_):
        start = time.perf_counter()
        self.at.append(start - self.paused)
        self.loops.append(reference_loop())
        self.paused += time.perf_counter() - start

    def clock(self):
        return time.perf_counter() - self.paused

    def factor(self):
        return REFERENCE_LOOP_S / mid_mean(self.loops)

    def scale(self, start, end):
        """Clock seconds from start to end, at the reference speed of the
        loop times taken within WINDOW_S of them."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return (end - start) * REFERENCE_LOOP_S / mid_mean(self.loops[lo:hi])

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


class SetUp:
    """Imports utk afresh and builds a workload's inputs, timing both."""

    def __init__(self):
        self.loaded: set[str] = set()

    def run(self, workload, seed, tracer=None):
        for name in self.loaded:
            sys.modules.pop(name, None)
        gc.collect()
        before = set(sys.modules)
        t0 = time.perf_counter()
        importlib.import_module("utk.cli")
        t1 = time.perf_counter()
        self.loaded |= set(sys.modules) - before
        mods = {name: sys.modules[f"utk.{name}"] for name in MODULES}
        if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"utk was imported from {mods['cli'].__file__}, not {SRC}")
        if tracer is not None:
            tracer.install(mods)
        ops = WORKLOADS[workload](mods, random.Random(seed))
        t2 = time.perf_counter()
        return mods, ops, t1 - t0, t2 - t1


class Tracer:
    """Spans around library calls, kept in memory.

    A span is ``[name, start, end, parent span, operation]``.  A direct
    recursive call through the wrapper is folded into its caller's span, and
    a generator function is drained inside its span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self.saved: list = []
        self.clock = time.perf_counter

    def wrap(self, name, fn):
        tracer = self
        drain = name in GENERATORS

        def traced(*args, **kwargs):
            stack, spans = tracer.stack, tracer.spans
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][0] == name:
                return fn(*args, **kwargs)
            span = [name, tracer.clock(), 0.0, parent, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return iter(list(fn(*args, **kwargs))) if drain else fn(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                stack.pop()

        return traced

    def install(self, mods):
        self.saved = []
        for name, lookups in TRACED.items():
            home, attr = name.split(".")
            wrapper = self.wrap(name, getattr(mods[home], attr))
            for where in lookups:
                self.saved.append((mods[where], attr, getattr(mods[where], attr)))
                setattr(mods[where], attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved = []

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def layer_figures(spans):
    """calls, total_s and self_s per traced function (raw seconds)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _, _), inner in zip(spans, child):
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + end - start, own + end - start - inner)
    return out


def per_query(spans, ops, outer, inner, kind):
    """Mean number of ``inner`` spans per ``outer`` query of the given kind."""
    queries = {op for name, _, _, _, op in spans if name == outer and ops[op].kind == kind}
    if not queries:
        return 0.0
    count = sum(1 for name, _, _, parent, op in spans
                if name == inner and op in queries and parent >= 0 and spans[parent][0] == outer)
    return count / len(queries)


def run_round(ops, clock, tracer=None):
    """Calls every operation once: [(start, end, result)] on the clock."""
    gc.collect()
    out = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        fn = getattr(op.module, op.name)
        t = clock()
        try:
            result = fn(*op.args)
        except Exception as exc:  # counted as a failed operation
            result = exc
        out.append((t, clock(), result))
    return out


def summary(result):
    """Comparable form of a result; search reports minus their timings."""
    if isinstance(result, tuple) and result and hasattr(result[0], "minimal_shapes"):
        return [(r.n, r.u_value, r.minimal_shapes, r.candidates_examined) for r in result]
    if isinstance(result, Exception):
        return repr(result)
    return result


def check_results(ops, rounds):
    """Problems with the results; exceptions are failures, not problems."""
    problems = []
    first = rounds[0]
    for i, op in enumerate(ops):
        result = first[i][1]
        if isinstance(result, Exception):
            continue
        if op.check is not None:
            problems += op.check(result)
        else:
            want = op.expect() if callable(op.expect) else op.expect
            if result != want:
                problems.append(f"op {i} {op.kind} {op.name}: got {result!r}, want {want!r}")
        for other in rounds[1:]:
            if summary(other[i][1]) != summary(result):
                problems.append(f"op {i} {op.name}: result changed between rounds")
                break
    return problems


# --------------------------------------------------------------------------- #
# Main
# --------------------------------------------------------------------------- #


USAGE = "usage: run.py --workload {%s} --seed N --seconds S --trace {0,1}" % ",".join(WORKLOADS)


def parse_args(argv):
    opts = {}
    if len(argv) % 2:
        raise SystemExit(USAGE)
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in ("--workload", "--seed", "--seconds", "--trace") or flag in opts:
            raise SystemExit(USAGE)
        opts[flag] = value
    try:
        workload, seed = opts["--workload"], int(opts["--seed"])
        seconds, trace = float(opts["--seconds"]), int(opts["--trace"])
    except (KeyError, ValueError):
        raise SystemExit(USAGE) from None
    if workload not in WORKLOADS or trace not in (0, 1) or seconds <= 0:
        raise SystemExit(USAGE)
    return workload, seed, seconds, trace


def main(argv):
    workload, seed, seconds, trace = parse_args(argv)
    if not (SRC / "utk" / "__init__.py").is_file():
        raise SystemExit(f"no utk sources at {SRC}")
    sys.path.insert(0, str(SRC))

    setup, setup_speed = SetUp(), Speed()
    imports, inputs = [], []
    for _ in range(SETUP_REPS):
        setup_speed.sample()
        mods = ops = None  # one set of inputs alive at a time
        mods, ops, t_import, t_inputs = setup.run(workload, seed)
        imports.append(t_import)
        inputs.append(t_inputs)
    setup_speed.sample()
    tracer = Tracer() if trace else None
    if tracer is not None:
        mods = ops = None
        mods, ops, _, _ = setup.run(workload, seed, tracer)
        setup_spans = tracer.take()
        tracer.uninstall()

    # Collections during the rounds should scan the program's garbage, not
    # the benchmark's inputs, whose number differs between workloads.
    gc.collect()
    gc.freeze()
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw, layers, first_trace = [], [], None  # raw: (traced?, run_round output)
    deadline = time.perf_counter() + seconds
    with Speed() as speed:
        while not raw or time.perf_counter() < deadline:
            raw.append((False, run_round(ops, speed.clock)))
            if tracer is not None:
                tracer.clock = speed.clock
                tracer.install(mods)
                raw.append((True, run_round(ops, speed.clock, tracer)))
                tracer.uninstall()
                spans = tracer.take()
                first_trace = first_trace or spans
                layers.append(layer_figures(spans))
    # Read before the checks, whose oracle builds large pattern sets.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = [[(speed.scale(t0, t1), r) for t0, t1, r in out] for _, out in raw]
    walls = {False: [], True: []}
    for (is_traced, _), out in zip(raw, rounds):
        walls[is_traced].append(sum(t for t, _ in out))
    plain, traced = walls[False], walls[True]

    attempted = len(ops) * len(rounds)
    failed = sum(isinstance(r, Exception) for out in rounds for _, r in out)
    problems = check_results(ops, rounds)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for i, (_, r) in enumerate(rounds[0]):
        if isinstance(r, Exception):
            print(f"perfbench: op {i} {ops[i].name} failed: {r!r}", file=sys.stderr)

    f_setup, f = setup_speed.factor(), speed.factor()
    chains = [r for out in rounds for (_, r), op in zip(out, ops)
              if op.kind == "search" and not isinstance(r, Exception)]
    search_figures = {
        "search.top_level_s": (mid_mean(r[-1].wall_time for r in chains) * f if chains else 0.0, "s"),
        "search.top_level_candidates": (chains[0][-1].candidates_examined if chains else 0, "count"),
        "search.candidates": (sum(x.candidates_examined for x in chains[0]) if chains else 0, "count"),
    }
    if tracer is None:
        # On the search workloads wall_s is the search alone: the catalog
        # check after it in a round only feeds the query medians.
        searches = [t for out in rounds for (t, _), op in zip(out, ops) if op.kind == "search"]
        metrics = {
            "wall_s": (mid_mean(searches or plain), "s"),
            "setup_s": (statistics.median(a + b for a, b in zip(imports, inputs)) * f_setup, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        # The median query's mid-mean time over all its calls.
        times = {}
        for out in rounds:
            for (t, _), op in zip(out, ops):
                times.setdefault(id(op), (op, []))[1].append(t)
        for kind in ("accept", "reject", "mast"):
            per_op = [mid_mean(ts) for op, ts in times.values() if op.kind == kind]
            metrics[f"{kind}_p50_s"] = (statistics.median(per_op), "s")
    else:
        metrics = dict(search_figures)
        # Per round (mid-mean over the traced rounds) plus the traced set-up.
        at_setup = layer_figures(setup_spans)
        for name in TRACED:
            per_round = [fig.get(name, (0, 0.0, 0.0)) for fig in layers]
            calls, total, own = at_setup.get(name, (0, 0.0, 0.0))
            metrics[f"{name}.calls"] = (mid_mean(c for c, _, _ in per_round) + calls, "count")
            metrics[f"{name}.total_s"] = (mid_mean(t for _, t, _ in per_round) * f + total * f_setup, "s")
            metrics[f"{name}.self_s"] = (mid_mean(o for _, _, o in per_round) * f + own * f_setup, "s")
        for metric, outer, inner, kind in (
            ("embedding.patterns_per_accept", "search.is_universal", "embedding.is_induced_subtree", "accept"),
            ("embedding.patterns_per_reject", "search.is_universal", "embedding.is_induced_subtree", "reject"),
            ("tanglegrams.subsets_per_accept", "tanglegrams.is_universal_tanglegram",
             "tanglegrams.induced_subtanglegram", "accept"),
            ("tanglegrams.subsets_per_reject", "tanglegrams.is_universal_tanglegram",
             "tanglegrams.induced_subtanglegram", "reject"),
        ):
            metrics[metric] = (per_query(first_trace, ops, outer, inner, kind), "count")
        metrics["setup.import_s"] = (statistics.median(imports) * f_setup, "s")
        metrics["setup.inputs_s"] = (statistics.median(inputs) * f_setup, "s")
        metrics["trace.overhead_s"] = (mid_mean(traced) - mid_mean(plain), "s")
        metrics["calibration.loop_s"] = (mid_mean(speed.loops), "s")

    import json

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    record = dict(result, workload=workload, seed=seed, seconds=seconds, rounds=len(rounds),
                  round_s=plain, setup_rss_mb=setup_rss_mb, loop_s=speed.loops, setup_loop_s=setup_speed.loops,
                  search=search_figures)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op"],
            "ops": [f"{op.kind}:{op.name}" for op in ops],
            "setup": setup_spans,
            "first_traced_round": first_trace,
        }) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
