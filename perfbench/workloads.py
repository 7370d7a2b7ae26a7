"""The benchmark's three workloads and their expected answers.

Each workload is a closed loop with one caller: the next task starts when the
previous one has returned its verdict.  A workload object supplies

* ``build(nc, ws)``: the fixtures, from the parsed workspace ``ws``;
* ``tasks(seed)``: the fixed task list, seeded;
* ``run(nc, fixtures, task)``: one task, returning its outcome;
* ``check(task, outcome, memo)``: ``None`` if the outcome is right, else why
  it is wrong.

``nc`` holds the engine's modules.  Engine functions are looked up on it at
call time, never bound here, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "expected.json")) as _handle:
    EXPECTED = json.load(_handle)


def fixture_paths(root):
    return {
        "core": os.path.join(root, "fixtures", "core.ws"),
        "homotopy": os.path.join(root, "fixtures", "homotopy.ws"),
    }


def _seeded_order(items, seed):
    order = list(items)
    Random(seed).shuffle(order)
    return order


class Identities:
    """The paper's oracle identities on seeded random skew cochains."""

    # (identity, coefficients, cochain degree, max entry degree, copies);
    # sizes as in acceptance criteria 02 and 03.  d_NL^2 at degree 2 also
    # covers delta^2 at degree 2, since its first component is delta(delta f).
    # The copies put the median task inside a block of d_NM^2 checks on the
    # line, whose work hardly varies with the seed (the work of the adjoint
    # checks varies by +-12%), so that verdict_p50_ms does not swing with it.
    SPEC = (
        ("delta2", "adjoint", 1, 2, 1),
        ("dN2", "adjoint", 1, 2, 1),
        ("dNL2", "adjoint", 1, 2, 1),
        ("dNL2", "adjoint", 2, 1, 1),
        ("delta2", "line", 1, 1, 1),
        ("dNM2", "line", 1, 1, 4),
        ("delta2", "line", 2, 1, 1),
        ("dNM2", "line", 2, 1, 1),
        ("delta2", "vir2", 1, 2, 2),
        ("delta2", "vir2", 2, 2, 2),
        ("mc", "adjoint", 1, 2, 1),
        ("mc", "adjoint", 2, 2, 1),
        ("xi", "adjoint", 1, 2, 1),
        ("xi", "adjoint", 2, 2, 1),
    )

    def build(self, nc, ws):
        sl2 = ws.get("sl2", "algebra")
        vir = ws.get("vir", "algebra")
        line = nc.lca.FreeModule(["m"])
        weight2 = nc.lca.RepTable(vir, nc.lca.FreeModule(["m"]))
        weight2.set_action(0, 0, [nc.grammar.parse_poly("del + 2*lam1", 1)])
        return {
            "reps": {
                "adjoint": nc.cohomology.adjoint_rep(sl2),
                "line": nc.lca.RepTable(sl2, line),
                "vir2": weight2,
            },
            "proj": ws.get("proj110", "map"),
            "scalar": nc.lca.ConfLinMap.identity(line),
            "mc": nc.cohomology.bracket_cochain(sl2),
        }

    def tasks(self, seed):
        rng = Random(seed)
        out = []
        for identity, coeffs, degree, bound, copies in self.SPEC:
            for copy in range(copies):
                out.append(
                    {
                        "name": "%s-%s-n%d-b%d-%d" % (identity, coeffs, degree, bound, copy),
                        "identity": identity,
                        "coeffs": coeffs,
                        "degree": degree,
                        "bound": bound,
                        "seed": rng.getrandbits(32),
                    }
                )
        return _seeded_order(out, seed)

    def run(self, nc, fx, task):
        co = nc.cohomology
        rep = fx["reps"][task["coeffs"]]
        rng = Random(task["seed"])
        n, bound = task["degree"], task["bound"]
        f = co.random_cochain(rep, n, rng, max_degree=bound)
        p = fx["proj"]
        kind = task["identity"]
        if kind == "delta2":
            return co.apply_delta(co.apply_delta(f)).is_zero()
        if kind == "dN2":
            return co.apply_dN(co.apply_dN(f, p), p).is_zero()
        if kind == "dNM2":
            s = fx["scalar"]
            return co.apply_dNM(co.apply_dNM(f, p, s), p, s).is_zero()
        if kind == "dNL2":
            g = co.random_cochain(rep, n - 1, rng, max_degree=bound) if n == 2 else None
            pair = co.CochainPair(f, g)
            return co.apply_dNL(co.apply_dNL(pair, p, p), p, p).is_zero()
        if kind == "mc":
            return co.nr_bracket(fx["mc"], f) == co.apply_delta(f).scale((-1) ** (n - 1))
        if kind == "xi":
            lhs = co.apply_dNM(co.xi_map(f, p, p), p, p)
            return lhs == co.xi_map(co.apply_delta(f), p, p)
        raise ValueError("unknown identity %r" % kind)

    def check(self, task, outcome, memo):
        return None if outcome is True else "identity does not hold"


class Cohomology:
    """Truncated cohomology slices with dimensions known from the literature."""

    # name -> (coefficients, degree, bound); answers in expected.json
    SLICES = {
        "sl2-adjoint-d2-b2": ("sl2-adjoint", 2, 2),
        "sl2-line-d2-b6": ("sl2-line", 2, 6),
        "vir-adjoint-d3-b6": ("vir-adjoint", 3, 6),
    }

    def build(self, nc, ws):
        return {
            "sl2-adjoint": nc.cohomology.adjoint_rep(ws.get("sl2", "algebra")),
            "sl2-line": ws.get("zerorep", "rep"),
            "vir-adjoint": nc.cohomology.adjoint_rep(ws.get("vir", "algebra")),
        }

    def tasks(self, seed):
        return _seeded_order([{"name": name} for name in sorted(self.SLICES)], seed)

    def run(self, nc, fx, task):
        coeffs, degree, bound = self.SLICES[task["name"]]
        result = nc.cohomology.solve_truncated(fx[coeffs], degree, bound)
        keys = ("cochain_dim", "cocycle_dim", "coboundary_dim", "h_dim")
        return [result[key] for key in keys]

    def check(self, task, outcome, memo):
        expected = EXPECTED["cohomology"][task["name"]]
        if outcome != expected:
            return "dimensions %r, expected %r" % (outcome, expected)
        return None


class Verbs:
    """The CLI as users run it, in-process, over the checked-in workspaces."""

    def __init__(self, root):
        self.paths = fixture_paths(root)

    def build(self, nc, ws):
        return None

    def tasks(self, seed):
        out = []
        for entry in EXPECTED["verbs"]:
            out.append(
                {
                    "name": " ".join(entry["argv"]),
                    "argv": [self.paths.get(word, word) for word in entry["argv"]],
                    "exit": entry["exit"],
                    "status": entry["status"],
                }
            )
        return _seeded_order(out, seed)

    def run(self, nc, fx, task):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = nc.cli.main(list(task["argv"]))
        return code, out.getvalue()

    def check(self, task, outcome, memo):
        code, stdout = outcome
        if code != task["exit"]:
            return "exit code %r, expected %r" % (code, task["exit"])
        status = "status: %s" % task["status"]
        if status not in stdout.splitlines():
            return "no %r line in stdout" % status
        first = memo.setdefault(task["name"], stdout)
        if stdout != first:
            return "stdout differs from the first repetition"
        return None


def workloads(root):
    return {
        "identities": Identities(),
        "cohomology": Cohomology(),
        "verbs": Verbs(root),
    }
