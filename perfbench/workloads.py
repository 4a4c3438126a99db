"""The four workloads: seeded inputs, the request each input becomes, and the
check of every output against expect.py.

Each workload is closed-loop with one caller: a request is sent only after
the previous one returned.  Work comes in rounds of fixed composition (the
seed varies the integers, never the mix or the sizes), so a round is the
unit of fixed work behind wall_s and two seeds load the same code paths
equally.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import expect
import measure

WHY = {
    "queries": "in-process library calls on seeded pairs, half twists of each other, |c| <= 40 "
               "and ~1e30: chern, orbits, classify and value types; no oracle, no process start",
    "verify": "the three oracle sweeps in-process at orbit 6, split-root 20, iso (2,3): "
              "the only workload where oracles and chow ring products dominate",
    "cli": "one fresh process per request, all 12 subcommands with small arguments, half --json: "
           "interpreter start, import and argparse dominate, compute is negligible",
    "bulk": "large requests through in-process cli.run: scan 1e5 cells, moduli dmax 250-300, "
            "types at 1e6-1e8, threshold 1e2-1e14; types --count 1e6 left out, it hangs",
}


def _api():
    return sys.modules["planebundles"]


class Check:
    OK, FAILED, WRONG = "ok", "failed", "wrong"


class Outcome:
    """What one request returned: a value, or an exit code and stdout.

    `raised` is preset to Check.FAILED when the package refused with one of
    its own errors, and to Check.WRONG when it crashed with any other.
    """

    __slots__ = ("value", "code", "stdout", "error", "raised")

    def __init__(self, value=None, code=0, stdout="", error=None, raised=None):
        self.value, self.code, self.stdout, self.error, self.raised = (
            value, code, stdout, error, raised)


class Workload:
    trace_rounds = 1
    in_process = True
    scale_each_request = True  # else the reference loop runs once per round

    def __init__(self, env=None):
        self.env = env

    def units(self, req):
        return 1


# ------------------------------------------------------------ input helpers


def _small_pair(rng):
    return (rng.randint(-40, 40), rng.randint(-40, 40))


def _big_int(rng):
    return rng.choice((-1, 1)) * rng.randrange(10**30, 10**31)


def _pair(rng, big):
    """A pair, split (perfect-square discriminant) one time in four."""
    if rng.random() < 0.25:
        a, l = (_big_int(rng) // 10**15, _big_int(rng) // 10**15) if big else (
            rng.randint(-10, 10), rng.randint(-5, 5))
        return expect.twist((a, 0), l)
    return (_big_int(rng), _big_int(rng)) if big else _small_pair(rng)


def _right(rng, p, big):
    """Half the time a twist of p, so the Yes paths run; else an independent pair."""
    if rng.random() < 0.5:
        if rng.random() < 0.1:
            return p
        return expect.twist(p, _big_int(rng) if big else rng.randint(-10, 10))
    return _pair(rng, big)


def _normal_pair(rng, c2_lo, c2_hi):
    return (rng.choice((0, -1)), rng.randint(c2_lo, c2_hi))


# ------------------------------------------------------------ queries


class Queries(Workload):
    """Library calls; one operation is one call."""

    name = "queries"
    trace_rounds = 4
    scale_each_request = False
    # calls per round; the split between |c| <= 40 and |c| ~ 1e30 is half and half
    MIX = (
        ("complex_report", 120), ("weak_equivalent", 80), ("h_cobordant", 80),
        ("normalize", 80), ("triple_self_product", 40), ("moduli_dim", 30),
        ("q_values", 30), ("stromme_threshold", 20), ("non_cobordant_types", 20),
    )

    def make_round(self, rng):
        api = _api()
        cp = api.ChernPair
        reqs = []
        for kind, count in self.MIX:
            for i in range(count):
                big = i % 2 == 0
                moderate = kind in ("stromme_threshold", "non_cobordant_types")
                p = None if moderate else _pair(rng, big)
                if kind in ("complex_report", "weak_equivalent", "h_cobordant"):
                    q = _right(rng, p, big)
                    reqs.append((kind, (cp(*p), cp(*q)), (p, q)))
                elif kind == "normalize":
                    reqs.append((kind, (cp(*p),), (p,)))
                elif kind == "triple_self_product":
                    a, b = (_big_int(rng), _big_int(rng)) if big else (
                        rng.randint(-40, 40), rng.randint(-40, 40))
                    reqs.append((kind, (api.PBRing(cp(*p)), a, b), (p, a, b)))
                elif kind == "moduli_dim":
                    n = expect.normal_form(p)[0]
                    d = rng.randrange(10**30) if big else rng.randint(0, 60)
                    reqs.append((kind, (cp(*n), d), (n, d)))
                elif kind == "q_values":
                    n = expect.normal_form(p)[0]
                    d = rng.randrange(1, 10**30) if big else rng.randint(1, 60)
                    e = rng.randint(-1, d - 1) if d < 100 else max(-1, d - rng.randint(1, 10**6))
                    flag = rng.random() < 0.5
                    reqs.append((kind, (cp(*n), d, e, flag), (n, d, e, flag)))
                else:
                    n = _normal_pair(rng, -10**4, 10**4)
                    if kind == "stromme_threshold":
                        reqs.append((kind, (cp(*n),), (n,)))
                    else:
                        k = rng.randint(1, 5)
                        reqs.append((kind, (cp(*n), k), (n, k)))
        rng.shuffle(reqs)
        return reqs

    def execute(self, req):
        fn = getattr(_api(), req[0])
        return Outcome(fn(*req[1]))

    def describe(self, req):
        return f"{req[0]}{req[2]}"

    @staticmethod
    def canon(kind, value):
        if kind == "complex_report":
            return tuple(_verdict(getattr(value, n)) for n in expect.RELATIONS)
        if kind in ("weak_equivalent", "h_cobordant"):
            return _verdict(value)
        if kind == "normalize":
            return ((value.rep.c1, value.rep.c2), value.l_used)
        if kind == "moduli_dim":
            return (value.kind, value.dim)
        if kind == "q_values":
            return (value.q1, value.q2, value.q3, value.q4, value.q5)
        return value

    @staticmethod
    def expected(kind, ints):
        if kind == "complex_report":
            return expect.report(*ints)
        if kind == "weak_equivalent":
            return expect.weak(*ints)
        if kind == "h_cobordant":
            return expect.hcob(*ints)
        if kind == "normalize":
            return expect.normal_form(*ints)
        if kind == "triple_self_product":
            return expect.cube(*ints)
        if kind == "moduli_dim":
            return expect.moduli_dim(*ints)
        if kind == "q_values":
            return expect.q_values(*ints)
        if kind == "stromme_threshold":
            return expect.threshold(*ints)
        return expect.types(*ints)

    def check(self, req, out):
        got = self.canon(req[0], out.value)
        return Check.OK if got == self.expected(req[0], req[2]) else Check.WRONG

    def digest_bytes(self, req, out):
        return repr((req[0], req[2], self.canon(req[0], out.value))).encode()


def _verdict(v):
    return (v.value, v.reason, v.witness)


# ------------------------------------------------------------ verify


class Verify(Workload):
    """The oracle sweeps; throughput counts pairs of pairs, latency one sweep call."""

    name = "verify"
    ORBIT, ROOT, PAIR, SEARCH = 6, 20, 2, 3

    def make_round(self, rng):
        calls = (("orbit_agreement_sweep", (self.ORBIT,)),
                 ("split_root_agreement_sweep", (self.ROOT,)),
                 ("iso_equivalence_sweep", (self.PAIR, self.SEARCH)))
        counts = expect.sweep_counts(self.ORBIT, self.ROOT, self.PAIR)
        reqs = [(fn, args, checked) for (fn, args), (_, checked) in zip(calls, counts)]
        rng.shuffle(reqs)
        return reqs

    def execute(self, req):
        return Outcome(getattr(sys.modules["planebundles.oracles"], req[0])(*req[1]))

    def units(self, req):
        return req[2]

    def describe(self, req):
        return f"{req[0]}{req[1]}"

    def check(self, req, out):
        return Check.OK if tuple(out.value) == (req[2], 0) else Check.WRONG

    def digest_bytes(self, req, out):
        return repr((req[0], req[1], tuple(out.value))).encode()


# ------------------------------------------------------------ CLI requests


class CliRequest:
    """argv for the CLI plus the expectation, computed only when checked."""

    __slots__ = ("argv", "_expected")

    def __init__(self, argv, expected):
        self.argv, self._expected = argv, expected

    @property
    def json(self):
        return "--json" in self.argv

    def expected(self):
        return self._expected(self.json)


def _pa(flag, p):
    return f"--{flag}={p[0]},{p[1]}"


def _req(args, js, expected):
    return CliRequest(args + (["--json"] if js else []), expected)


def _moduli_req(n, dmax, e, printed, js):
    args = ["moduli", _pa("pair", n), f"--dmax={dmax}"]
    args += ([f"--e={e}"] if e is not None else []) + (["--q3-as-printed"] if printed else [])
    return _req(args, js, lambda j: expect.moduli_out(n, dmax, e, printed, j))


def _small_cli(rng, command, js):
    """One request per subcommand, small arguments (verify at the JSON sample bounds)."""
    if command == "normalize":
        p = _small_pair(rng)
        return _req(["normalize", _pa("pair", p)], js, lambda j: expect.normalize_out(p, j))
    if command in ("equiv", "hcob", "report"):
        p = _pair(rng, False)
        q = _right(rng, p, False)
        out = {"equiv": expect.equiv_out, "hcob": expect.hcob_out, "report": expect.report_out}
        fn = out[command]
        return _req([command, _pa("left", p), _pa("right", q)], js, lambda j: fn(p, q, j))
    if command == "chow":
        p = _small_pair(rng)
        ab = (rng.randint(-8, 8), rng.randint(-8, 8)) if rng.random() < 0.5 else None
        args = ["chow", _pa("pair", p)] + ([f"--cube={ab[0]},{ab[1]}"] if ab else [])
        return _req(args, js, lambda j: expect.chow_out(p, ab, j))
    if command == "moduli":
        n = _normal_pair(rng, -10, 10)
        dmax = rng.randint(0, 6)
        e = rng.randint(-1, 4) if rng.random() < 0.5 else None
        return _moduli_req(n, dmax, e, rng.random() < 0.5, js)
    if command == "threshold":
        n = _normal_pair(rng, -1000, 1000)
        return _req(["threshold", _pa("pair", n)], js, lambda j: expect.threshold_out(n, j))
    if command == "types":
        n = _normal_pair(rng, -1000, 1000)
        k = rng.randint(1, 5)
        return _req(["types", _pa("pair", n), f"--count={k}"], js,
                    lambda j: expect.types_out(n, k, j))
    if command == "monad-check":
        p = _small_pair(rng)
        d = rng.randint(-10, 20)
        return _req(["monad-check", _pa("pair", p), f"--d={d}"], js,
                    lambda j: expect.monad_out(p, d, j))
    if command == "line":
        c1, d = rng.randint(-40, 40), rng.randint(0, 40)
        return _req(["line", f"--c1={c1}", f"--d={d}"], js, lambda j: expect.line_out(c1, d, j))
    if command == "scan":
        a, b = rng.randint(-5, 3), rng.randint(-5, 3)
        rg = (a, a + rng.randint(0, 3), b, b + rng.randint(0, 3))
        return _req(["scan", "--range=" + ":".join(map(str, rg))], js,
                    lambda j: expect.scan_out(rg, j))
    bounds = (4, 10, 2)
    return _req(["verify", "--orbit-bound=4", "--root-bound=10", "--pair-bound=2",
                 "--search-bound=3"], js, lambda j: expect.verify_out(*bounds, j))


COMMANDS = ("normalize", "equiv", "hcob", "report", "chow", "moduli", "threshold", "types",
            "monad-check", "line", "scan", "verify")


class CliWorkload(Workload):
    """Shared request handling for the two workloads that drive the CLI."""

    def describe(self, req):
        return " ".join(req.argv)

    def execute(self, req):
        if self.in_process:
            return run_in_process(req.argv)
        _, code, out, err = measure.spawn([sys.executable, "-m", "planebundles", *req.argv],
                                          self.env)
        return Outcome(code=code, stdout=out.decode(), error=err.decode().strip() or None)

    def check(self, req, out):
        if out.code != 0:
            return Check.FAILED
        if req.json:
            try:
                got = json.loads(out.stdout)
            except ValueError:
                return Check.WRONG
            return Check.OK if got == req.expected() else Check.WRONG
        return Check.OK if expect.tokens(out.stdout) == [
            line.split() for line in req.expected()] else Check.WRONG

    def digest_bytes(self, req, out):
        return (" ".join(req.argv) + f"\0{out.code}\0" + out.stdout + "\0").encode()


def run_in_process(argv):
    """cli.run with stdout and stderr captured; looked up per call so tracing sees it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = sys.modules["planebundles.cli"].run(argv)
    return Outcome(code=code, stdout=stdout.getvalue(), error=stderr.getvalue().strip() or None)


class Cli(CliWorkload):
    """A fresh process per request; one round is each subcommand once, half --json."""

    name = "cli"
    trace_rounds = 2
    in_process = False

    def make_round(self, rng):
        commands = list(COMMANDS)
        rng.shuffle(commands)
        json_set = set(rng.sample(commands, len(commands) // 2))
        return [_small_cli(rng, c, c in json_set) for c in commands]


class Bulk(CliWorkload):
    """Large requests through in-process cli.run, one round of each size class.

    The threshold request at |c2| >= 1e12 lies beyond the package's search
    limit and exits 3; it stays in so the defect shows in failed_ratio.
    `types --count 1e6` is left out: it does not finish within a run.
    """

    name = "bulk"
    SCAN = (99, 999)  # extents of the c1 and c2 ranges: 100 x 1000 cells
    MODULI_DMAX = (250, 300)  # without and with a fixed --e
    TYPES = ((10**6, 1, 300), (10**7, -1, 200), (10**8, 1, 100))  # (|c2|, sign, count)
    # threshold at c2 = 10^k, c1 alternating 0 and -1.  The copies per decade
    # put the median request inside the 1e8 class and the 90th percentile
    # inside the 0.5-0.7 s class (types at 1e7 and 1e8, scan), each away from
    # the boundary between two classes, so neither percentile jumps between
    # request sizes from run to run.  Then one request beyond the search
    # limit per round, cycling through BEYOND_LIMIT.
    THRESHOLD_DECADES = {2: 2, 3: 2, 4: 2, 5: 2, 6: 2, 7: 2, 8: 4, 9: 3, 10: 3, 11: 1}
    BEYOND_LIMIT = (12, 13, 14)

    def __init__(self, env=None):
        super().__init__(env)
        self._round = 0

    def make_round(self, rng):
        reqs = []
        # the orbit count, hence the output size, depends on the c1 window only
        a, b = -self.SCAN[0] // 2 + rng.randint(-2, 2), rng.randint(-5000, 5000)
        rg = (a, a + self.SCAN[0], b, b + self.SCAN[1])
        reqs.append(_req(["scan", "--range=" + ":".join(map(str, rg))], True,
                         lambda j: expect.scan_out(rg, j)))
        small, large = self.MODULI_DMAX
        for dmax, e, printed, js in ((small, None, False, True), (small, None, False, False),
                                     (large, rng.randint(0, 20), False, True),
                                     (large, rng.randint(0, 20), True, False)):
            reqs.append(_moduli_req(_normal_pair(rng, -50, 50), dmax, e, printed, js))
        for i, (size, sign, count) in enumerate(self.TYPES):
            n = (rng.choice((0, -1)), sign * (size + rng.randrange(size // 100)))
            reqs.append(_req(["types", _pa("pair", n), f"--count={count}"], i % 2 == 0,
                             lambda j, n=n, count=count: expect.types_out(n, count, j)))
        exponents = [k for k, copies in self.THRESHOLD_DECADES.items() for _ in range(copies)]
        if self.BEYOND_LIMIT:
            exponents.append(self.BEYOND_LIMIT[self._round % len(self.BEYOND_LIMIT)])
        self._round += 1
        for i, k in enumerate(exponents):
            n = (-(i % 2), 10**k + rng.randrange(10**k // 100))
            reqs.append(_req(["threshold", _pa("pair", n)], i % 2 == 1,
                             lambda j, n=n: expect.threshold_out(n, j)))
        rng.shuffle(reqs)
        return reqs


WORKLOADS = {w.name: w for w in (Queries, Verify, Cli, Bulk)}
