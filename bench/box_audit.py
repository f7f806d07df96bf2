"""box-audit: the linear box analysis that `hardybox check` runs.

Each box goes through the call sequence of `cli.cmd_check`, plus the eight
completion round trips for no-signaling boxes.  The workload also draws
random no-signaling boxes and runs `hardybox check` in-process and as a
fresh process.  Quantum searches and trial simulation do no work here.

Slots: op1 = one box audited, op2 = one random no-signaling sample,
op3 = one in-process `cli.main check`, cli = one `hardybox check` process.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from harness import close, expect, run_cli_main, run_cli_process
from hardybox import behavior, bell, boxes, cli, locality, montecarlo, quantum

TOL = 1e-9  # `hardybox check` default --tol
EPS = 1e-6  # `hardybox check` default --eps
EXACT = 1e-12
SIGNAL_N = 1_000_000  # expected counts per block for the signaling cross-check
SIGNAL_ALPHA = 1e-6
# bundled boxes whose audit verdict is cross-checked with the frequency test:
# one signaling table, one no-signaling box (kept rare, so `montecarlo` stays
# about 1% of this workload)
CROSS_CHECKED = ("kwiat_hardy", "mermin")

SIZES = {
    "pool_boxes": 512,
    "mix": {"ns_mixture": 0.40, "born": 0.25, "signaling": 0.15, "json": 0.15, "bundled": 0.05},
    "mixture_components": "1-4 of 16 local vertices and 8 PR boxes",
    "audit_batch": 128,
    "ns_batch": 24,
    "cli_main_batch": 16,
}

SHARES = {"audit": 0.40, "ns": 0.20, "cli_main": 0.10, "cli": 0.30}

QUADS = bell.HARDY_QUADRUPLES
_J = np.array([q.j - 1 for q in QUADS])
_KLM = np.array([[q.k - 1, q.l - 1, q.m - 1] for q in QUADS])
_SIGMA_OF = np.array([q.sigma_index - 1 for q in QUADS])
_PRIMED = np.array([q.primed for q in QUADS])
# CHSH correlation signs (c11, c12, c21, c22) and CH marginal settings,
# written out from the textbook forms as an oracle independent of bell.py
_CHSH_SIGNS = np.array([[1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [-1, 1, 1, 1]])
_CH_MARGINALS = ((0, 0), (0, 1), (1, 0), (1, 1))
SQRT2 = math.sqrt(2.0)


def local_vertices() -> np.ndarray:
    """The 16 deterministic boxes, cells in package order."""
    out = []
    for a1, a2, b1, b2 in itertools.product((0, 1), repeat=4):
        p = np.zeros((2, 2, 2, 2))
        for x, a in enumerate((a1, a2)):
            for y, b in enumerate((b1, b2)):
                p[x, y, a, b] = 1.0
        out.append(p.reshape(16))
    return np.array(out)


def pr_boxes() -> np.ndarray:
    """The 8 PR boxes: each block perfectly (anti)correlated, odd parity."""
    out = []
    for parity in itertools.product((0, 1), repeat=4):
        if sum(parity) % 2 == 0:
            continue
        p = np.zeros((4, 4))
        for g, anti in enumerate(parity):
            if anti:
                p[g, 1] = p[g, 2] = 0.5
            else:
                p[g, 0] = p[g, 3] = 0.5
        out.append(p.reshape(16))
    return np.array(out)


def mixture(rng: np.random.Generator, components: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A random convex mixture of 1-4 of the rows of ``components``."""
    k = int(rng.integers(1, 5))
    idx = rng.choice(len(components), size=k, replace=False)
    # weights summing to 1 + 1ulp must not push a cell past 1
    return np.minimum(rng.dirichlet(np.ones(k)) @ components[idx], 1.0), idx


def born_oracle(psi: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Born-rule cells from dense projectors (I + s n.sigma)/2.

    ``psi`` is (N, 4) amplitudes, ``angles`` (N, 4, 2) polar and azimuthal
    angles of a1, a2, b1, b2; returns (N, 16) cells in package order.
    """
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
    theta, phi = angles[..., 0], angles[..., 1]
    n = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)
    spin = np.einsum("ndc,cij->ndij", n, paulis)
    proj = (np.eye(2) + np.stack([spin, -spin], axis=2)) / 2  # (N, direction, outcome, 2, 2)
    state = psi.reshape(-1, 2, 2)
    cells = np.einsum("nij,nxaik,nybjl,nkl->nxyab", state.conj(), proj[:, :2], proj[:, 2:], state)
    return cells.real.reshape(-1, 16)


def signaling_residual(p: np.ndarray) -> float:
    """Largest change of a one-party marginal with the remote setting."""
    t = p.reshape(2, 2, 2, 2)  # settingA, settingB, outcomeA, outcomeB
    pa = t.sum(axis=3)
    pb = t.sum(axis=2)
    return float(max(np.abs(pa[:, 0] - pa[:, 1]).max(), np.abs(pb[0] - pb[1]).max()))


def generate(seed: int, workdir) -> dict:
    """The seeded input pool: boxes as probability arrays, Born inputs, files."""
    rng = np.random.default_rng([seed, 1])
    n = SIZES["pool_boxes"]
    counts = {k: int(round(v * n)) for k, v in SIZES["mix"].items()}
    counts["ns_mixture"] += n - sum(counts.values())
    kinds = [k for k, c in counts.items() for _ in range(c)]
    rng.shuffle(kinds)
    components = np.vstack([local_vertices(), pr_boxes()])
    names = boxes.BOX_NAMES
    pool = []
    for i, kind in enumerate(kinds):
        if kind == "bundled":
            pool.append({"kind": kind, "name": names[i % len(names)]})
            continue
        if kind == "born":
            pool.append({"kind": kind})
            continue
        source = kind
        if kind == "json":
            source = "ns_mixture" if rng.random() < 0.7 else "signaling"
        if source == "signaling":
            while True:
                p = rng.dirichlet(np.ones(4), size=4).reshape(16)
                if signaling_residual(p) >= 0.05:
                    break
            local = False
        else:
            p, idx = mixture(rng, components)
            local = bool((idx < 16).all())
        entry = {"kind": kind, "probs": p, "signaling": source == "signaling", "local": local}
        if kind == "json":
            path = workdir / f"box{i:04d}.json"
            path.write_text(json.dumps({"probs": p.tolist(), "label": f"box{i}"}), encoding="utf-8")
            entry["path"] = str(path)
        pool.append(entry)
    born = [e for e in pool if e["kind"] == "born"]
    v = rng.normal(size=(len(born), 4)) + 1j * rng.normal(size=(len(born), 4))
    psi = v / np.linalg.norm(v, axis=1, keepdims=True)
    angles = np.stack([rng.uniform(0, math.pi, (len(born), 4)), rng.uniform(0, 2 * math.pi, (len(born), 4))], -1)
    for e, amps, a, cells in zip(born, psi, angles, born_oracle(psi, angles)):
        e["state"] = quantum.TwoQubitState(tuple(amps))
        e["settings"] = quantum.MeasurementSettings(*(quantum.BlochDirection(*d) for d in a))
        e["oracle"] = cells
    files = [e["path"] for e in pool if e["kind"] == "json"]
    return {"pool": pool, "files": files, "rng": np.random.default_rng([seed, 2])}


class CountingGenerator:
    """Wraps the Generator handed to the sampler and counts candidate rows."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.rows = 0

    def _count(self, out):
        arr = np.asarray(out)
        self.rows += arr.size // arr.shape[-1] if arr.ndim else 1
        return out

    def uniform(self, *args, **kwargs):
        return self._count(self._rng.uniform(*args, **kwargs))

    def random(self, *args, **kwargs):
        return self._count(self._rng.random(*args, **kwargs))

    def __getattr__(self, name):
        return getattr(self._rng, name)


def analyse(T, b) -> dict:
    """The `cmd_check` call sequence on one box, each call a span."""
    r = {
        "valid": T("behavior.is_valid", behavior.is_valid, b),
        "normalized": T("behavior.is_normalized", behavior.is_normalized, b, TOL),
        "no_signaling": T("behavior.is_no_signaling", behavior.is_no_signaling, b, TOL),
        "residuals": T("locality.constraint_residuals", locality.constraint_residuals, b),
        "sigma": T("bell.sigma_values", bell.sigma_values, b),
        "delta": T("bell.delta_values", bell.delta_values, b),
        "corr": T("behavior.correlation_vector", behavior.correlation_vector, b),
        "ch4": T("bell.ch_values", bell.ch_values, b),
        "chfull": T("bell.ch_values_full", bell.ch_values_full, b),
        "hardy": T("bell.hardy_check", bell.hardy_check, b, TOL),
        "audit": T("bell.equivalence_audit", bell.equivalence_audit, b, TOL),
        "side": T("locality.nonneg_side_checks", locality.nonneg_side_checks, b, TOL),
    }
    if r["normalized"]:
        r["chsh"] = T("bell.chsh_check", bell.chsh_check, b, TOL)
    if r["normalized"] and r["no_signaling"]:
        wits = T("bell.hardy_witness", bell.hardy_witness, b, EPS)
        r["witnesses"] = wits
        r["shifts"] = [
            T("bell.sigma_shift_of_hardy", bell.sigma_shift_of_hardy, b, q, TOL, EPS) for q in wits
        ]
        r["roundtrips"] = [
            T("locality.completion_roundtrip", locality.completion_roundtrip, b, v, TOL)
            for v in locality.FreeSetId
        ]
    return r


def signaling_test(T, b):
    """Pooled two-proportion test on the box's expected counts."""
    counts = np.rint(np.asarray(b.probs).reshape(4, 4) * SIGNAL_N).astype(np.int64)
    stats = T("montecarlo.SampleStats.from_counts", montecarlo.SampleStats.from_counts, counts)
    return T("montecarlo.test_signaling", montecarlo.test_signaling, stats, SIGNAL_ALPHA)


def check_analysis(p: np.ndarray, r: dict) -> None:
    """Compare the reports with oracles computed here from the 16 cells."""
    t = p.reshape(2, 2, 2, 2)
    valid = bool(((p >= 0) & (p <= 1)).all())
    blocks = p.reshape(4, 4).sum(axis=1)
    normalized = bool((np.abs(blocks - 1) <= TOL).all())
    sig = signaling_residual(p)
    expect(r["valid"] == valid, "is_valid disagrees")
    expect(r["normalized"] == normalized, "is_normalized disagrees")
    expect(r["no_signaling"] == (sig <= TOL), f"is_no_signaling disagrees (residual {sig:.3e})")
    worst = max(sig, float(np.abs(blocks - 1).max()))
    expect(close(r["residuals"].max_abs(), worst), "constraint residuals disagree")
    corr = (t[:, :, 0, 0] + t[:, :, 1, 1] - t[:, :, 0, 1] - t[:, :, 1, 0]).reshape(4)
    expect(np.allclose(r["corr"].as_tuple(), corr, rtol=0, atol=EXACT), "correlations disagree")
    delta = _CHSH_SIGNS @ corr
    expect(np.allclose(r["delta"].delta, delta, rtol=0, atol=EXACT), "CHSH sums disagree")
    sigma = np.array(r["sigma"].sigma)
    prime = np.array(r["sigma"].sigma_prime)
    if normalized:
        expect(np.allclose(sigma, delta / 2 + 2, rtol=0, atol=EXACT), "sigma != delta/2 + 2")
        expect(np.allclose(sigma + prime, 4, rtol=0, atol=EXACT), "sigma + sigma' != 4")
    joints = t[:, :, 0, 0].reshape(4)
    pa = t[:, 0, 0, :].sum(axis=1)  # P(a_j = +) from the block with b1
    pb = t[0, :, :, 0].sum(axis=1)  # P(b_k = +) from the block with a1
    ch_full = [_CHSH_SIGNS[i] @ joints - pa[ja] - pb[kb] for i, (ja, kb) in enumerate(_CH_MARGINALS)]
    expect(np.allclose(r["chfull"].b, ch_full, rtol=0, atol=EXACT), "six-term CH disagrees")

    lower = p[_KLM].sum(axis=1) - p[_J]
    upper = 1.0 + p[_J] - p[_KLM].sum(axis=1)
    got_lower = np.array([c.lower_slack for c in r["hardy"].checks])
    got_upper = np.array([c.upper_slack for c in r["hardy"].checks])
    expect(np.allclose(got_lower, lower, rtol=0, atol=EXACT), "Hardy lower slacks disagree")
    expect(np.allclose(got_upper, upper, rtol=0, atol=EXACT), "Hardy upper slacks disagree")
    expect(
        [c.violated_lower for c in r["hardy"].checks] == list(lower < -TOL)
        and [c.violated_upper for c in r["hardy"].checks] == list(upper < -TOL),
        "Hardy violation flags disagree",
    )
    audit = r["audit"]
    if normalized:
        expect(max(map(abs, audit.delta_sigma + audit.sigma_pair)) <= EXACT, "audit identities fail")
    if "chsh" in r:
        expect(max(map(abs, r["chsh"].consistency_residuals)) <= EXACT, "CHSH consistency fails")
    if not (normalized and sig <= TOL):
        return
    # no-signaling and normalized from here on
    expect(not audit.flagged, "audit flags a no-signaling box")
    ns_lower = np.where(_PRIMED, (prime[_SIGMA_OF] - 1) / 2, (sigma[_SIGMA_OF] - 1) / 2)
    expect(np.allclose(lower, ns_lower, rtol=0, atol=EXACT), "Hardy slacks != (sigma - 1)/2")
    expect(np.allclose(r["ch4"].b, (sigma - 3) / 2, rtol=0, atol=EXACT), "four-term CH != (sigma-3)/2")
    expect(all(c.satisfied for c in r["side"]), "side checks fail on a no-signaling box")
    want = [q for q, j, klm in zip(QUADS, _J, _KLM) if p[klm].max() <= EPS and p[j] > EPS]
    expect(list(r["witnesses"]) == want, "witness list disagrees")
    for q, s in zip(r["witnesses"], r["shifts"]):
        pj = p[q.j - 1]
        predicted = 3 + 2 * pj if q.primed else 1 - 2 * pj
        expect(close(s.predicted, predicted) and abs(s.residual) <= EXACT, "sigma shift fails")
    for rt in r["roundtrips"]:
        expect(np.abs(np.asarray(rt.probs) - p).max() <= EXACT, "completion round trip drifts")


def check_expected(box, r: dict) -> None:
    """Bundled boxes against their `expected` fields."""
    wits = {(q.family, q.j) for q in r.get("witnesses") or ()}
    values = {
        "sigma_1": r["sigma"].sigma[0],
        "sigma_1_prime": r["sigma"].sigma_prime[0],
        "ch_b1": r["ch4"].b[0],
        "ch_b1_four_term": r["ch4"].b[0],
        "ch_b1_full": r["chfull"].b[0],
        "correlation_11": r["corr"].c11,
        "max_signaling_residual": max(abs(x) for x in r["residuals"].signaling),
        "hardy_violations": r["hardy"].n_violated,
    }
    for key, want in box.expected.items():
        if key in values:
            expect(close(values[key], want), f"{box.name}: {key} = {values[key]} != {want}")
    if "witness_j" in box.expected:
        fam, j = box.expected["witness_family"], box.expected["witness_j"]
        expect((fam, j) in wits, f"{box.name}: witness {fam}:{j} missing")
        expect(close(box.behavior.p(j), box.expected["witness_pj"]), f"{box.name}: witness pj")


def steps(inp: dict, rec, T) -> list:
    pool, files = inp["pool"], inp["files"]
    cursor = {"audit": 0, "cli_main": 0}
    stream = inp["rng"]
    rng = CountingGenerator(stream)
    variants = list(locality.FreeSetId)
    cli_docs: dict[str, dict] = {}

    def audit_one(entry):
        def work():
            kind = entry["kind"]
            if kind == "bundled":
                box = T("boxes.load_box", boxes.load_box, entry["name"])
                b = box.behavior
            elif kind == "born":
                box = None
                b = T("quantum.born_behavior", quantum.born_behavior, entry["state"], entry["settings"])
            elif kind == "json":
                box = None
                b, _ = T("behavior.load_behavior", behavior.load_behavior, entry["path"])
            else:
                box = None
                b = T("behavior.Behavior", behavior.Behavior, tuple(entry["probs"]))
            r = analyse(T, b)
            if kind == "bundled" and entry["name"] in CROSS_CHECKED:
                r["signaling_test"] = signaling_test(T, b)
            return box, b, r

        def check(out):
            box, b, r = out
            p = np.asarray(b.probs)
            kind = entry["kind"]
            if kind == "born":
                expect(np.abs(p - entry["oracle"]).max() <= EXACT, "Born cells disagree with projectors")
                lo, hi = 2 - SQRT2 - TOL, 2 + SQRT2 + TOL
                expect(all(lo <= s <= hi for s in r["sigma"].sigma), "Born box beyond Tsirelson")
            elif kind in ("json", "ns_mixture", "signaling"):
                expect(np.array_equal(p, entry["probs"]), f"{kind} box cells changed on the way in")
            check_analysis(p, r)
            if kind == "bundled":
                check_expected(box, r)
            if entry.get("signaling"):
                expect(not r["no_signaling"] and r["audit"].flagged, "signaling box not flagged")
            if entry.get("local"):
                expect(r["hardy"].n_violated == 0, "local mixture violates a Hardy bound")
            if "signaling_test" in r:
                expect(
                    r["signaling_test"].detected == (not r["no_signaling"]),
                    "signaling test disagrees with the audit",
                )
            rec.counts["boxes"] += 1
            rec.counts["signaling_boxes"] += not r["no_signaling"]
            rec.counts["witness_boxes"] += bool(r.get("witnesses"))

        rec.op("audit", work, check)

    def audit_step():
        for _ in range(SIZES["audit_batch"]):
            audit_one(pool[cursor["audit"] % len(pool)])
            cursor["audit"] += 1

    def ns_step():
        for _ in range(SIZES["ns_batch"]):
            ns_one(variants[int(stream.integers(len(variants)))])

    def ns_one(variant):
        before = rng.rows

        def work():
            return T(
                "locality.random_no_signaling_behavior",
                locality.random_no_signaling_behavior,
                rng,
                variant,
            )

        def check(b):
            p = np.asarray(b.probs)
            expect(((p >= 0) & (p <= 1)).all(), "sample is not a probability table")
            expect(np.abs(p.reshape(4, 4).sum(axis=1) - 1).max() <= EXACT, "sample not normalized")
            expect(signaling_residual(p) <= EXACT, "sample signals")

        if rec.op("ns", work, check) is not None:
            rec.counts["ns_accepted"] += 1
            rec.counts["ns_candidate_rows"] += rng.rows - before

    def cli_main_step():
        for _ in range(SIZES["cli_main_batch"]):
            cli_main_one(files[cursor["cli_main"] % len(files)])
            cursor["cli_main"] += 1

    def cli_main_one(path):
        p = np.asarray(json.loads(Path(path).read_text(encoding="utf-8"))["probs"])
        args = ["check", "--input", path]

        def check(doc):
            lower = p[_KLM].sum(axis=1) - p[_J]
            upper = 1.0 + p[_J] - p[_KLM].sum(axis=1)
            violated = int(((lower < -TOL) | (upper < -TOL)).sum())
            ns = signaling_residual(p) <= TOL
            expect(doc["no_signaling"] == ns, "check --input: no_signaling wrong")
            expect(doc["hardy"]["summary"]["violated"] == violated, "check --input: violation count")
            expect(doc["audit"]["flagged"] == (not ns), "check --input: audit flag wrong")
            cli_docs[path] = doc

        rec.op("cli_main", lambda: T("cli.main", run_cli_main, cli.main, args), check)

    def cli_step():
        path = next(reversed(cli_docs), files[0])

        def check(doc):
            expect(path in cli_docs, "no in-process result to compare with")
            expect(doc == cli_docs[path], "check process output differs from in-process cli.main")

        rec.op("cli", lambda: T("cli.process", run_cli_process, ["check", "--input", path]), check)

    return [
        ("audit", SHARES["audit"], audit_step),
        ("ns", SHARES["ns"], ns_step),
        ("cli_main", SHARES["cli_main"], cli_main_step),
        ("cli", SHARES["cli"], cli_step),
    ]


def slots(rec, scaled: bool = True) -> dict:
    """The four workload slots (see module docstring) in their units.

    A CLI process is never scaled: its time is start-up in a new
    interpreter, which the in-process reference kernel does not follow.
    """
    return {
        "op1_ms": 1e3 * rec.median("audit", scaled),
        "op2_ms": 1e3 * rec.median("ns", scaled),
        "op3_ms": 1e3 * rec.median("cli_main", scaled),
        "cli_s": rec.median("cli", scaled=False),
    }


def named(rec, s: dict) -> dict:
    c = rec.counts
    boxes_n = max(c["boxes"], 1)
    return {
        "audit_boxes_per_s": (1e3 / s["op1_ms"], "1/s"),
        "ns_samples_per_s": (1e3 / s["op2_ms"], "1/s"),
        "cli_check_s": (s["cli_s"], "s"),
        "cli.main_check_ms": (s["op3_ms"], "ms"),
        "locality.random_ns_accept_ratio": (c["ns_accepted"] / max(c["ns_candidate_rows"], 1), "ratio"),
        "share_signaling_boxes": (c["signaling_boxes"] / boxes_n, "ratio"),
        "share_witness_boxes": (c["witness_boxes"] / boxes_n, "ratio"),
    }

