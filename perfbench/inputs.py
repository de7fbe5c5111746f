"""Seeded input generators for the benchmark workloads.

Every input is built with numpy from the workload seed and written as a file
in a format the CLI reads, so the program under test sees only files and the
inputs do not depend on the program's own code.  Sizes and group mixes follow
a fixed schedule taken from ``workloads.json``; the seed draws the values.
Each generator returns a list of operations; an operation is a list of CLI
calls, and a call is ``(kind, argv, meta)`` where ``meta`` holds what the
output checks need.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

TAU = 2.0 * math.pi
Q_ONE = (1.0, 0.0, 0.0, 0.0)


def wrap(theta: float) -> float:
    """Angle on the branch (-pi, pi], ties to +pi, as the u1 carrier stores it."""
    t = math.remainder(theta, TAU)
    if t <= -math.pi:
        t += TAU
    return t


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion product over the last axis."""
    w1, x1, y1, z1 = np.moveaxis(a, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(b, -1, 0)
    return np.stack(
        (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ),
        axis=-1,
    )


def qconj(a: np.ndarray) -> np.ndarray:
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def unit(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def haar_su2(rng: np.random.Generator, count: int) -> np.ndarray:
    return unit(rng.normal(size=(count, 4)))


def small_rotations(rng: np.random.Generator, count: int, scale: float) -> np.ndarray:
    """Unit quaternions exp(v) with v ~ N(0, scale^2) per Lie-algebra coordinate."""
    v = rng.normal(0.0, scale, size=(count, 3))
    phi = np.linalg.norm(v, axis=1, keepdims=True)
    return unit(np.hstack((np.cos(phi), np.sinc(phi / math.pi) * v)))


# --- matrices -------------------------------------------------------------------


def rplus_matrix(rng, n: int, spread: float, noise: float, consistent: bool) -> np.ndarray:
    """a_ij = lam_i^-1 lam_j with log-normal gauge, times log-normal noise."""
    lam = np.exp(rng.normal(0.0, spread, n))
    A = np.ones((n, n))
    for i, j in itertools.combinations(range(n), 2):
        v = float(lam[j] / lam[i])
        if not consistent:
            v *= math.exp(rng.normal(0.0, noise))
        A[i, j], A[j, i] = v, 1.0 / v
    return A


def u1_matrix(rng, n: int, arc: float, noise: float, consistent: bool) -> np.ndarray:
    """a_ij = theta_j - theta_i (+ noise) with gauge angles in [-arc, arc]."""
    theta = rng.uniform(-arc, arc, n)
    A = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        v = float(theta[j] - theta[i])
        if not consistent:
            v += rng.normal(0.0, noise)
        A[i, j] = wrap(v)
        A[j, i] = wrap(-A[i, j])
    return A


def su2_matrix(rng, n: int, noise: float) -> np.ndarray:
    """a_ij = conj(lam_i) lam_j exp(xi_ij) with Haar gauge and small noise."""
    lam = haar_su2(rng, n)
    A = np.zeros((n, n, 4))
    A[np.arange(n), np.arange(n)] = Q_ONE
    iu, ju = np.triu_indices(n, 1)
    upper = unit(qmul(qmul(qconj(lam[iu]), lam[ju]), small_rotations(rng, len(iu), noise)))
    A[iu, ju] = upper
    A[ju, iu] = qconj(upper)
    return A


def element_obj(group: str, value):
    if group == "u1":
        return {"theta": float(value)}
    if group == "su2":
        return {"q": [float(c) for c in value]}
    return float(value)


def write_matrix(path: Path, group: str, A: np.ndarray) -> None:
    n = A.shape[0]
    if path.suffix == ".csv":
        path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in A) + "\n")
        return
    entries = [element_obj(group, A[i, j]) for i in range(n) for j in range(n)]
    doc = {"group": group, "n": n, "variance": "covariant", "entries": entries}
    path.write_text(json.dumps(doc))


# --- complexes and fields -------------------------------------------------------


def grid_complex(m: int) -> dict:
    """The layout of ``holopc.simplicial.grid_complex(m)`` as a complex document."""
    w = m + 1
    edges, triangles = [], []
    for r in range(w):
        for c in range(w):
            v = r * w + c
            if c < m:
                edges.append([v, v + 1])
            if r < m:
                edges.append([v, v + w])
            if r < m and c < m:
                edges.append([v, v + w + 1])
                triangles.append([v, v + 1, v + w + 1])
                triangles.append([v, v + w, v + w + 1])
    return {"vertices": w * w, "edges": edges, "triangles": triangles, "base": 0}


def full_simplex(n: int) -> dict:
    v = n + 1
    return {
        "vertices": v,
        "edges": [list(e) for e in itertools.combinations(range(v), 2)],
        "triangles": [list(t) for t in itertools.combinations(range(v), 3)],
        "base": 0,
    }


def su2_near_flat_field(rng, K: dict, noise: float) -> dict[tuple[int, int], np.ndarray]:
    """h_ij = lam_j conj(lam_i) exp(xi_ij): a pure-gauge field times small noise."""
    lam = haar_su2(rng, K["vertices"])
    e = np.array(K["edges"])
    h = unit(qmul(qmul(lam[e[:, 1]], qconj(lam[e[:, 0]])), small_rotations(rng, len(e), noise)))
    return {(int(i), int(j)): h[k] for k, (i, j) in enumerate(e)}


# --- workloads ------------------------------------------------------------------


def ahp_small(spec: dict, rng, work: Path) -> list:
    """Small rplus (CSV) and u1 (JSON) matrices, each checked then repaired."""
    ops = []
    for k in range(spec["pool"]):
        p = k // 2
        n = spec["n_min"] + p % (spec["n_max"] - spec["n_min"] + 1)
        consistent = p % spec["consistent_every"] == spec["consistent_every"] // 2
        if k % 2 == 0:
            group, path = "rplus", work / f"ahp{k}.csv"
            A = rplus_matrix(rng, n, spec["rplus_log_spread"], spec["rplus_log_noise"], consistent)
        else:
            group, path = "u1", work / f"ahp{k}.json"
            arc = math.pi if p % 2 == 0 else spec["u1_narrow_arc"]
            A = u1_matrix(rng, n, arc, spec["u1_noise"], consistent)
        write_matrix(path, group, A)
        meta = {"group": group, "A": A, "consistent": consistent}
        ops.append(
            [
                ("check", ["check", str(path)], meta),
                ("consistencize", ["consistencize", str(path), "--method", "abelian"], meta),
            ]
        )
    return ops


def su2_dense(spec: dict, rng, work: Path) -> list:
    """Large near-consistent su2 matrices: one scored, one repaired per operation."""
    ops = []
    for k in range(spec["pool"]):
        n_check, n_desc = spec["pairs"][k % len(spec["pairs"])]
        A = su2_matrix(rng, n_check, spec["noise"])
        B = su2_matrix(rng, n_desc, spec["noise"])
        pa, pb = work / f"su2_check{k}.json", work / f"su2_desc{k}.json"
        write_matrix(pa, "su2", A)
        write_matrix(pb, "su2", B)
        ops.append(
            [
                ("check", ["check", str(pa)], {"group": "su2", "A": A, "consistent": False}),
                ("consistencize", ["consistencize", str(pb), "--method", "riemannian"], {"group": "su2", "A": B}),
            ]
        )
    return ops


def lattice(spec: dict, rng, work: Path) -> list:
    """Near-flat su2 fields on square grids, through ``holopc holonomy``."""
    ops = []
    for k, m in enumerate(spec["m"]):
        K = grid_complex(m)
        field = su2_near_flat_field(rng, K, spec["noise"])
        pk, pf = work / f"grid{k}.json", work / f"field{k}.json"
        pk.write_text(json.dumps(K))
        values = {f"{i}-{j}": element_obj("su2", h) for (i, j), h in field.items()}
        pf.write_text(json.dumps({"group": "su2", "values": values}))
        meta = {"K": K, "field": field}
        ops.append([("holonomy", ["holonomy", str(pk), str(pf)], meta)])
    return ops


def haar_mc(spec: dict, seed: int, work: Path):
    """``holopc montecarlo`` configurations on the full 3-simplex.

    Returns a function of the operation index, because every call gets its
    own Monte Carlo seed.  An operation runs every configuration, each as
    the same call made twice, so the second output can be compared byte for
    byte with the first.
    """
    path = work / "simplex3.json"
    path.write_text(json.dumps(full_simplex(3)))
    configs = spec["configs"]

    def op(k: int) -> list:
        calls = []
        for c, cfg in enumerate(configs):
            mc_seed = seed * 1_000_003 + k * len(configs) + c
            argv = ["montecarlo", "--group", cfg["group"], "-N", str(cfg["N"]), "--seed", str(mc_seed)]
            if "random_pc" in cfg:
                argv += ["--random-pc", str(cfg["random_pc"])]
            else:
                argv += ["--complex", str(path), "--observable", cfg["observable"]]
                if "loop" in cfg:
                    argv += ["--loop", *map(str, cfg["loop"])]
            meta = dict(cfg, seed=mc_seed)
            calls += [("montecarlo", argv, meta), ("montecarlo", argv, dict(meta, repeat=True))]
        return calls

    return op


def build(name: str, spec: dict, seed: int, work: Path):
    """Write the inputs of one workload; return ``op(k)`` giving operation k."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    if name == "haar-mc":
        return haar_mc(spec, seed, work)
    pool = {"ahp-small": ahp_small, "su2-dense": su2_dense, "lattice": lattice}[name](spec, rng, work)
    return lambda k: pool[k % len(pool)]
