"""Independent expectations for every output the benchmark checks.

Everything here is derived from the integers alone, with the formulas the
package documents (README and docstrings), and never imports the package:

- orbits by parity of c1 and the discriminant c1^2 - 4*c2, with every twist
  witness re-checked by substitution;
- split roots by isqrt, re-checked by substitution into d^2 - d*c1 + c2;
- the Stromme threshold by a naive scan that starts at an isqrt bound;
- the triple self-product by its closed cubic form;
- moduli dimensions by the Q1 trichotomy;
- sweep counts as (2b+1)^4 (or (2b+1)^2) with zero mismatches;
- scan grids by grouping every cell under its normal form.

CLI outputs are checked as parsed JSON (order-insensitive) or as
whitespace-separated tokens per text line, so column padding is not part
of the expectation; the raw bytes go into the run digest instead.
"""

from __future__ import annotations

import math

YES, NO, UNKNOWN = "yes", "no", "unknown"
CONVENTION = "c1 in {0,-1}"
RELATIONS = (
    "a1_weak_equivalence",
    "homotopy_equivalence",
    "diffeomorphism",
    "deformation_equivalence",
    "a1_h_cobordism",
    "a1_concordance_of_bundles",
)
SWEEP_NAMES = ("orbit-oracle-vs-closed", "split-root-vs-search", "ring-iso-vs-discriminant")


# ---------------------------------------------------------------- integers


def twist(p, l):
    c1, c2 = p
    return (c1 + 2 * l, c2 + l * c1 + l * l)


def disc(p):
    return p[0] * p[0] - 4 * p[1]


def normal_form(p):
    """(rep, l) with rep = twist(p, l) and rep's c1 in {0, -1}."""
    c1 = p[0]
    l = -c1 // 2 if c1 % 2 == 0 else (-1 - c1) // 2
    rep = twist(p, l)
    if rep[0] not in (0, -1):
        raise AssertionError(f"normal form of {p} left c1 in {{0,-1}}")
    return rep, l


def orbit_twist(p, q):
    """The twist l carrying p to q, or None, decided by parity + discriminant."""
    if (p[0] - q[0]) % 2 != 0 or disc(p) != disc(q):
        return None
    l = (q[0] - p[0]) // 2
    if twist(p, l) != q:
        raise AssertionError(f"parity and discriminant agree but {p} does not twist to {q}")
    return l


def split_root(p):
    """Root d of d^2 - d*c1 + c2: the least nonnegative one, else the one nearest 0."""
    c1, c2 = p
    d = disc(p)
    if d < 0:
        return None
    s = math.isqrt(d)
    if s * s != d:
        return None
    lo, hi = (c1 - s) // 2, (c1 + s) // 2
    root = lo if lo >= 0 else hi
    if root * root - root * c1 + c2 != 0:
        raise AssertionError(f"isqrt root {root} of {p} fails substitution")
    return root


def cube(p, a, b):
    c1, c2 = p
    return 3 * a * a * b - 3 * c1 * a * b * b + (c1 * c1 - c2) * b**3


def q1(p, d):
    return d * d - d * p[0] + p[1]


def moduli_dim(p, d):
    """(kind, dim) by the Q1 trichotomy: empty, point or Dim(3*Q1 - 1)."""
    value = q1(p, d)
    if value < 0:
        return ("empty", 0)
    if value == 0:
        return ("point", 0)
    return ("dim", 3 * value - 1)


def dim_json(p, d):
    kind, dim = moduli_dim(p, d)
    return dim if kind == "dim" else kind


def dim_text(p, d):
    kind, dim = moduli_dim(p, d)
    return f"Dim({dim})" if kind == "dim" else kind.capitalize()


def _p_poly(p, x):
    return (x - 1) * (x - 2 - p[0]) - p[1]


def gamma(p, d, e):
    if e == -1 or (e == 0 and p == (0, 0)):
        return _p_poly(p, d)
    return _p_poly(p, d) - _p_poly(p, e) + 1


def _binom2(n):
    return n * (n - 1) // 2 if n >= 2 else 0


def q_values(p, d, e, as_printed=False):
    base = q1(p, d)
    g = gamma(p, d, e)
    if as_printed:
        q3 = _binom2(d - e - 1) - e * e - e * p[0] + p[1]
    else:
        q3 = _binom2(d - e - 1) - (e * e - e * p[0] + p[1])
    q2 = 3 * base - 1
    return (base, q2, q3, q2 - g, g)


def starred(p, d, e):
    base = q1(p, d)
    return base > 0 and gamma(p, d, e) > 3 * base - 1


def threshold(p):
    """Least d >= 0 with Q1(d) > 0 and gamma(d; e) > 0 for every e in [-1, d).

    The scan starts at isqrt(|c2|) - 2, below which no d qualifies for a
    normalized pair: with c2 >= 0, gamma(d; -1) > 0 needs (d-1)^2 > c2 once
    d >= 2; with c2 < 0, Q1(d) > 0 needs (d+1)^2 > |c2|.
    """
    d = max(0, math.isqrt(abs(p[1])) - 2)
    while not (q1(p, d) > 0 and all(gamma(p, d, e) > 0 for e in range(-1, d))):
        d += 1
    return d


def types(p, k):
    start = max(threshold(p), 4 + p[0])
    return list(range(start, start + k))


# ---------------------------------------------------------------- verdicts


def weak(p, q):
    l = orbit_twist(p, q)
    return (NO, "twist-orbit", None) if l is None else (YES, "twist-orbit", l)


def hcob(p, q):
    if orbit_twist(p, q) is None:
        return (NO, "weak-obstruction", None)
    d = split_root(p)
    if d is None:
        return (UNKNOWN, "open-h-cobordism", None)
    return (YES, "split-deformable", d)


def report(p, q):
    """The six relations in display order; concordance is decided only for p == q."""
    w = weak(p, q)
    conc = (YES, "identical-pair", 0) if p == q else (UNKNOWN, "open-concordance", None)
    return (w, w, w, w, hcob(p, q), conc)


# ---------------------------------------------------------------- CLI output


def _pj(p):
    return {"c1": p[0], "c2": p[1]}


def _ps(p):
    return f"({p[0]},{p[1]})"


def _vj(v):
    return {"value": v[0], "reason": v[1], "witness": v[2]}


def _head(command):
    return {"schema": "1", "command": command}


def presentation(p):
    rel = "t^2"
    for coeff, mon in ((p[0], "H*t"), (p[1], "H^2")):
        if coeff:
            term = mon if abs(coeff) == 1 else f"{abs(coeff)}*{mon}"
            rel += (" + " if coeff > 0 else " - ") + term
    return f"Z[H,t]/(H^3, {rel})"


def cubic_coeffs(p):
    return [0, 3, -3 * p[0], p[0] * p[0] - p[1]]


def cubic_text(p):
    parts = []
    for coeff, mon in zip(cubic_coeffs(p), ("a^3", "a^2*b", "a*b^2", "b^3")):
        if coeff:
            term = mon if abs(coeff) == 1 else f"{abs(coeff)}*{mon}"
            if parts:
                parts.append(("+ " if coeff > 0 else "- ") + term)
            else:
                parts.append(term if coeff > 0 else f"-{term}")
    return " ".join(parts)


def normalize_out(p, js):
    rep, l = normal_form(p)
    if js:
        return {**_head("normalize"), "pair": _pj(p), "rep": _pj(rep), "l_used": l,
                "convention": CONVENTION}
    return [f"rep = {_ps(rep)}  twist l = {l}  (convention: {CONVENTION})"]


def equiv_out(p, q, js):
    v = weak(p, q)
    if js:
        return {**_head("equiv"), "left": _pj(p), "right": _pj(q), "verdict": _vj(v),
                "witness_twist": v[2]}
    if v[0] == YES:
        detail = f"twist l={v[2]}"
    elif (p[0] - q[0]) % 2:
        detail = f"c1 parity differs ({p[0]} vs {q[0]})"
    else:
        detail = f"discriminant {disc(p)} != {disc(q)}"
    return [f"{v[0].upper()} ({v[1]}): {detail}"]


def hcob_out(p, q, js):
    v = hcob(p, q)
    if js:
        return {**_head("hcob"), "left": _pj(p), "right": _pj(q), "verdict": _vj(v),
                "witness_twist": orbit_twist(p, q)}
    detail = {
        YES: f"weakly equivalent; split root d={v[2]}",
        NO: "not weakly equivalent",
        UNKNOWN: "weakly equivalent; no integer d with d^2 - d*c1 + c2 = 0",
    }[v[0]]
    return [f"{v[0].upper()} ({v[1]}): {detail}"]


def report_out(p, q, js):
    rel = report(p, q)
    if js:
        return {**_head("report"), "left": _pj(p), "right": _pj(q),
                "relations": {n: _vj(v) for n, v in zip(RELATIONS, rel)},
                "witness_twist": orbit_twist(p, q)}
    rows = [f"{n} {v[0]} {v[1]} {'-' if v[2] is None else v[2]}" for n, v in zip(RELATIONS, rel)]
    return [f"left {_ps(p)}  right {_ps(q)}", "relation verdict reason witness", *rows]


def chow_out(p, ab, js):
    picard = disc(p)
    if js:
        return {**_head("chow"), "pair": _pj(p), "presentation": presentation(p),
                "cubic": {"coeffs": cubic_coeffs(p), "vars": ["a", "b"]},
                "picard_discriminant": picard, "standard_discriminant": -27 * picard,
                "cube": None if ab is None else {"a": ab[0], "b": ab[1], "value": cube(p, *ab)}}
    lines = [f"ring: {presentation(p)}", f"cubic: {cubic_text(p)}",
             f"picard discriminant: {picard}",
             f"standard cubic discriminant: {-27 * picard} (= -27 * picard)"]
    if ab is not None:
        lines.append(f"cube at (a,b)=({ab[0]},{ab[1]}): {cube(p, *ab)}")
    return lines


def moduli_out(p, dmax, e, as_printed, js):
    conv = "as-printed" if as_printed else "inequality"
    rows, lines, flagged = [], [], False
    for d in range(dmax + 1):
        cells = [str(d), str(q1(p, d)), dim_text(p, d)]
        if e is None:
            gammas = {}
            for k in range(-1, d):
                gammas[str(k)] = gamma(p, d, k)
                star = starred(p, d, k)
                flagged |= star
                cells.append(f"{gammas[str(k)]}{'*' if star else ''}")
            rows.append({"d": d, "q1": q1(p, d), "dim": dim_json(p, d), "gamma": gammas})
        elif d > e:
            qv = q_values(p, d, e, as_printed)
            star = starred(p, d, e)
            flagged |= star
            cells += [f"{qv[4]}{'*' if star else ''}", str(qv[2]), str(qv[3]), str(qv[4])]
            rows.append({"d": d, "q1": q1(p, d), "dim": dim_json(p, d),
                         "q": dict(zip(("q1", "q2", "q3", "q4", "q5"), qv))})
        else:
            rows.append({"d": d, "q1": q1(p, d), "dim": dim_json(p, d), "q": None})
        lines.append(" ".join(cells))
    if js:
        return {**_head("moduli"), "pair": _pj(p), "dmax": dmax, "e": e,
                "q3_convention": conv, "rows": rows}
    if e is None:
        header = "d Q1 dim " + " ".join(f"g(e={k})" for k in range(-1, dmax))
    else:
        header = f"d Q1 dim g(e={e}) Q3 Q4 Q5"
    out = [f"pair {_ps(p)}  dmax {dmax}  (Q3 convention: {conv})", header, *lines]
    if flagged:
        out.append("* gamma exceeds 3*Q1 - 1; the stratum cannot fill the moduli space")
    return out


def threshold_out(p, js):
    t = threshold(p)
    if js:
        return {**_head("threshold"), "pair": _pj(p), "threshold": t}
    return [f"threshold d = {t}"]


def types_out(p, k, js):
    ts = types(p, k)
    t = threshold(p)
    if js:
        return {**_head("types"), "pair": _pj(p), "count": k, "threshold": t,
                "uniqueness_lower_bound": 4 + p[0], "types": ts}
    return [f"types: {', '.join(map(str, ts))}  (threshold {t}, uniqueness bound {4 + p[0]})"]


def monad_out(p, d, js):
    if js:
        return {**_head("monad-check"), "pair": _pj(p), "d": d, "sub_degree": p[0] - d,
                "quot_degree": d, "result": _pj(p), "matches": True}
    return [f"monad for {_ps(p)} at d={d}: sub degree {p[0] - d}, quot degree {d}",
            f"cohomology Chern pair: {_ps(p)}  matches: yes"]


def line_out(c1, d, js):
    if js:
        return {**_head("line"), "c1": c1, "d": d, "hirzebruch_index": abs(c1 - 2 * d),
                "signed_index": c1 - 2 * d}
    return [f"Hirzebruch index {abs(c1 - 2 * d)} (signed {c1 - 2 * d})"]


def scan_orbits(c1_min, c1_max, c2_min, c2_max):
    """[(rep, members)] sorted by rep; the members add up to the cell count."""
    counts = {}
    for c1 in range(c1_min, c1_max + 1):
        for c2 in range(c2_min, c2_max + 1):
            rep = normal_form((c1, c2))[0]
            counts[rep] = counts.get(rep, 0) + 1
    if sum(counts.values()) != (c1_max - c1_min + 1) * (c2_max - c2_min + 1):
        raise AssertionError("scan members do not cover the grid")
    return sorted(counts.items())


def scan_out(rng, js):
    entries = [(rep, "even" if rep[0] % 2 == 0 else "odd", disc(rep), n,
                "unknown" if split_root(rep) is None else "yes")
               for rep, n in scan_orbits(*rng)]
    if js:
        return {**_head("scan"),
                "range": dict(zip(("c1_min", "c1_max", "c2_min", "c2_max"), rng)),
                "orbits": [{"rep": _pj(r), "parity": par, "discriminant": dd,
                            "members": n, "hcob_to_split": h}
                           for r, par, dd, n, h in entries]}
    return [f"range c1 in [{rng[0]},{rng[1]}], c2 in [{rng[2]},{rng[3]}]: {len(entries)} orbits",
            "rep parity disc members hcob-to-split",
            *(f"{_ps(r)} {par} {dd} {n} {h}" for r, par, dd, n, h in entries)]


def sweep_counts(orbit_bound, root_bound, pair_bound):
    """(name, checked) of the three sweeps; every one must find 0 mismatches."""
    return list(zip(SWEEP_NAMES, ((2 * orbit_bound + 1) ** 4, (2 * root_bound + 1) ** 2,
                                  (2 * pair_bound + 1) ** 4)))


def verify_out(orbit_bound, root_bound, pair_bound, js):
    sweeps = sweep_counts(orbit_bound, root_bound, pair_bound)
    if js:
        return {**_head("verify"),
                "sweeps": [{"name": n, "checked": c, "mismatches": 0, "ok": True}
                           for n, c in sweeps],
                "ok": True}
    return ["sweep checked mismatches status", *(f"{n} {c} 0 ok" for n, c in sweeps),
            f"{len(sweeps)}/{len(sweeps)} sweeps passed"]


def tokens(text):
    return [line.split() for line in text.splitlines()]
