"""Ten end-to-end acceptance checks, one verdict line each.

Every check prints ``[acceptance NN] PASS/FAIL ...`` straight to the
terminal (bypassing capture) before asserting, so a plain ``pytest -v``
run shows the verdict for each criterion.  The numeric checks compare
the pipeline against independently written oracles: plain-Python
neighborhood counting, BFS flood fill, dense triple-sum convolution,
dense-matrix Kalman algebra and a hand-written lifecycle automaton.
"""
import time
from collections import Counter, deque

import numpy as np
import pytest

from frontend_reference import Observation, candidates, dense_labels
from photontrack.association import AssociationConfig
from photontrack.cli import main
from photontrack.denoise import DenoiseConfig, Fixed, Scheme, majority_rule, parzen_smooth
from photontrack.errors import EntryEvictedError
from photontrack.kalman import KalmanParams, KalmanState, kf_init, kf_predict, kf_update
from photontrack.labeling import BoundingBox, label_components
from photontrack.pipeline import RunConfig, run_groups
from photontrack.raw_ingest import SensorConfig, group_frames, parse_frames
from photontrack.simulator import SceneSpec, TargetSpec, simulate, write_raw
from photontrack.track_manager import (
    Tracker,
    TrackerConfig,
    TrackState,
    reconstruct_backward,
    reconstruct_forward,
    record_at,
)
from photontrack.voxelizer import build_histogram


@pytest.fixture()
def report(capsys):
    def _report(n, desc, ok, detail=""):
        tag = "PASS" if ok else "FAIL"
        line = f"[acceptance {n:02d}] {tag} {desc}"
        if detail:
            line += f" | {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


# -- 1: default grid shape ---------------------------------------------------


def test_acceptance_01_grid_shape(report):
    t0 = time.perf_counter()
    cfg = SensorConfig()
    frames = np.full((200, 32, 32), cfg.ceiling, dtype=np.uint16)
    grid = build_histogram(frames, cfg)
    ok = grid.shape == (32, 32, 600)
    report(
        1,
        "default sensor yields a 32x32x600 grid",
        ok,
        f"dims={grid.shape}, {time.perf_counter() - t0:.2f}s",
    )


# -- 2: raw file arithmetic --------------------------------------------------


def test_acceptance_02_file_arithmetic(report):
    t0 = time.perf_counter()
    cfg = SensorConfig()
    n_groups, per = 300, cfg.pulses_per_group
    total = n_groups * per * cfg.frame_nbytes
    exact = total == 122_880_000
    close = abs(total - 125e6) / 125e6 <= 0.02
    frames = parse_frames(bytes(total), cfg)
    groups = group_frames(frames, cfg)
    parsed_ok = frames.shape[0] == 60_000 and len(groups) == n_groups
    report(
        2,
        "300 groups of 200 frames occupy 122,880,000 bytes (within 2% of 125 MB)",
        exact and close and parsed_ok,
        f"total={total}, rel_err={abs(total - 125e6) / 125e6:.4f}, "
        f"frames={frames.shape[0]}, {time.perf_counter() - t0:.2f}s",
    )


# -- 3: majority rule vs neighborhood-counting oracle ------------------------


def majority_oracle_counts(mask):
    """Per-voxel 27-cell sum via plain Python indexing (interior only)."""
    nx, ny, nz = mask.shape
    flat = mask.astype(np.uint8).ravel().tolist()
    deltas = [
        dx * ny * nz + dy * nz + dz
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
    ]
    counts = np.zeros((nx, ny, nz), dtype=np.int64)
    for x in range(1, nx - 1):
        for y in range(1, ny - 1):
            base_xy = x * ny * nz + y * nz
            row = counts[x, y]
            for z in range(1, nz - 1):
                base = base_xy + z
                row[z] = sum(flat[base + d] for d in deltas)
    return counts


def test_acceptance_03_majority_oracle(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    thresholds = (0, 2, 13, 26)
    checked, bad = 0, None
    for trial in range(1000):
        mask = rng.random((8, 8, 8)) < rng.uniform(0.1, 0.9)
        counts = majority_oracle_counts(mask)
        for mmin in thresholds:
            expected = counts > mmin
            expected[0, :, :] = expected[-1, :, :] = False
            expected[:, 0, :] = expected[:, -1, :] = False
            expected[:, :, 0] = expected[:, :, -1] = False
            got = majority_rule(mask, mmin)
            checked += 1
            if not np.array_equal(got, expected):
                bad = (trial, mmin)
                break
        if bad:
            break
    report(
        3,
        "majority rule equals the 27-cell counting oracle on 1000 random masks",
        bad is None,
        f"{checked} mask/threshold pairs, first mismatch={bad}, "
        f"{time.perf_counter() - t0:.2f}s",
    )


# -- 4: connected components vs BFS flood fill -------------------------------

_FACE = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
_EDGE = [
    (1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0),
    (1, 0, 1), (1, 0, -1), (-1, 0, 1), (-1, 0, -1),
    (0, 1, 1), (0, 1, -1), (0, -1, 1), (0, -1, -1),
]
_CORNER = [
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
    (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
]
_ADJACENCY = {6: _FACE, 18: _FACE + _EDGE, 26: _FACE + _EDGE + _CORNER}


def flood_partition(mask, connectivity):
    """Components as a set of frozensets of voxel tuples, by BFS."""
    todo = {tuple(c) for c in np.argwhere(mask)}
    offsets = _ADJACENCY[connectivity]
    parts = set()
    while todo:
        seed = todo.pop()
        comp = {seed}
        queue = deque([seed])
        while queue:
            x, y, z = queue.popleft()
            for dx, dy, dz in offsets:
                nb = (x + dx, y + dy, z + dz)
                if nb in todo:
                    todo.remove(nb)
                    comp.add(nb)
                    queue.append(nb)
        parts.add(frozenset(comp))
    return parts


def label_partition(labels):
    comps = {}
    for c in np.argwhere(labels > 0):
        comps.setdefault(int(labels[tuple(c)]), set()).add(tuple(c))
    return {frozenset(v) for v in comps.values()}


def test_acceptance_04_ccl_oracle(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    bad = None
    for trial in range(500):
        mask = rng.random((6, 6, 6)) < rng.uniform(0.05, 0.6)
        n_by_conn = {}
        for conn in (6, 18, 26):
            labels, n = label_components(mask, conn)
            labels = dense_labels(labels, mask.shape)
            n_by_conn[conn] = n
            if label_partition(labels) != flood_partition(mask, conn):
                bad = (trial, conn, "partition")
                break
        if bad:
            break
        if not n_by_conn[26] <= n_by_conn[18] <= n_by_conn[6]:
            bad = (trial, n_by_conn, "monotonicity")
            break
    report(
        4,
        "component partitions equal BFS flood fill for 6/18/26 connectivity",
        bad is None,
        f"500 masks x 3 connectivities, first mismatch={bad}, "
        f"{time.perf_counter() - t0:.2f}s",
    )


# -- 5: separable Parzen vs direct convolution -------------------------------


def direct_smooth(a, sigmas, factor=3.0):
    """Dense 3D Gaussian correlation via an explicit tap loop."""
    kernels = []
    for s in sigmas:
        r = int(np.ceil(factor * s))
        xs = np.arange(-r, r + 1, dtype=float)
        k = np.exp(-(xs**2) / (2.0 * s * s))
        kernels.append(k / k.sum())
    K = np.einsum("i,j,k->ijk", *kernels)
    rx, ry, rz = (len(k) // 2 for k in kernels)
    padded = np.pad(np.asarray(a, dtype=float), ((rx, rx), (ry, ry), (rz, rz)))
    nx, ny, nz = a.shape
    out = np.zeros((nx, ny, nz))
    for i in range(K.shape[0]):
        for j in range(K.shape[1]):
            for k in range(K.shape[2]):
                out += K[i, j, k] * padded[i : i + nx, j : j + ny, k : k + nz]
    return out


def test_acceptance_05_parzen_separability(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        a = rng.integers(0, 20, (8, 8, 8)).astype(float)
        sigmas = tuple(rng.uniform(0.5, 2.0, 3))
        sep = parzen_smooth(a, sigmas)
        ref = direct_smooth(a, sigmas)
        scale = max(np.abs(ref).max(), 1e-30)
        worst = max(worst, np.abs(sep - ref).max() / scale)
    imp = np.zeros((15, 15, 15))
    imp[7, 7, 7] = 1.0
    mass_err = abs(parzen_smooth(imp, (1.0, 1.0, 1.0)).sum() - 1.0)
    ok = worst <= 1e-9 and mass_err <= 1e-6
    report(
        5,
        "separable smoothing equals direct 3D convolution (rel 1e-9, mass 1e-6)",
        ok,
        f"worst_rel={worst:.3g}, mass_err={mass_err:.3g}, "
        f"{time.perf_counter() - t0:.2f}s",
    )


# -- 6: Kalman filter vs dense-matrix reference ------------------------------


def dense_predict(x, P, q, dt):
    d = len(x) // 2
    eye, zero = np.eye(d), np.zeros((d, d))
    F = np.block([[eye, dt * eye], [zero, eye]])
    Q = q * np.block(
        [[dt**4 / 4.0 * eye, dt**3 / 2.0 * eye], [dt**3 / 2.0 * eye, dt**2 * eye]]
    )
    return F @ x, F @ P @ F.T + Q


def dense_update(x, P, z, r):
    d = len(x) // 2
    H = np.hstack([np.eye(d), np.zeros((d, d))])
    S = H @ P @ H.T + r * np.eye(d)
    K = P @ H.T @ np.linalg.inv(S)
    x2 = x + K @ (z - H @ x)
    P2 = P - K @ H @ P
    return x2, 0.5 * (P2 + P2.T)


def test_acceptance_06_kalman_oracle(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst, worst_sym = 0.0, 0.0
    cycles = 0
    while cycles < 1000:
        params = KalmanParams(
            q=float(rng.uniform(0, 0.5)),
            r=float(rng.uniform(0.01, 2.0)),
            p0_pos=float(rng.uniform(0.5, 2.0)),
            p0_vel=float(rng.uniform(5.0, 20.0)),
        )
        s = kf_init(rng.normal(0, 10, 3), params)
        x, P = s.x.copy(), s.P.copy()
        for _ in range(50):
            dt = float(rng.choice([1.0, 1.5, 2.0]))
            s = kf_predict(s, dt)
            x, P = dense_predict(x, P, params.q, dt)
            z = x[:3] + rng.normal(0, 1, 3)
            s = kf_update(s, z)
            x, P = dense_update(x, P, z, params.r)
            worst = max(
                worst, np.abs(s.x - x).max(), np.abs(s.P - P).max()
            )
            worst_sym = max(worst_sym, np.abs(s.P - s.P.T).max())
            cycles += 1
            if cycles >= 1000:
                break

    conv = kf_init(np.zeros(3), KalmanParams())
    err_at_20 = None
    truth_v = np.array([0.7, -0.3, 0.2])
    for step in range(1, 21):
        conv = kf_predict(conv)
        conv = kf_update(conv, truth_v * step)
        err_at_20 = np.abs(conv.position - truth_v * step).max()
    ok = worst <= 1e-9 and worst_sym < 1e-12 and err_at_20 < 1e-3
    report(
        6,
        "block filter equals dense reference (1e-9), symmetric P, CV converges",
        ok,
        f"worst={worst:.3g}, sym={worst_sym:.3g}, pos_err@20={err_at_20:.3g}, "
        f"{time.perf_counter() - t0:.2f}s",
    )


# -- 7: lifecycle state machine vs reference automaton -----------------------


def reference_automaton(script, max_coast):
    """Single-target lifecycle over a hit/miss script.

    Yields (ordinal, state, bad_count) per step, or None when no track
    exists; ordinals count the tracks born so far.
    """
    out = []
    alive, ordinal, state, bad = False, 0, None, 0
    for hit in script:
        if hit:
            if not alive:
                alive, ordinal, state, bad = True, ordinal + 1, "new", 0
            elif state == "coasting":
                state, bad = "reacquired", 0
            else:
                state, bad = "matched", 0
        elif alive:
            if bad >= max_coast:
                alive = False
            else:
                state, bad = "coasting", bad + 1
        out.append((ordinal, state, bad) if alive else None)
    return out


def _single_obs():
    vox = np.array([[x, y, z] for x in (4, 5, 6) for y in (4, 5, 6) for z in (49, 50, 51)])
    return Observation(
        label=1,
        voxels=vox,
        volume=27,
        bbox=BoundingBox((4, 4, 49), (6, 6, 51)),
        centroid=np.array([5.0, 5.0, 50.0]),
        total_photons=60,
        peak_photons=5,
    )


def test_acceptance_07_state_machine(report):
    t0 = time.perf_counter()
    obs = _single_obs()
    names = {
        TrackState.NEW: "new",
        TrackState.MATCHED: "matched",
        TrackState.COASTING: "coasting",
        TrackState.REACQUIRED: "reacquired",
    }
    bad = None
    n_checked = 0
    for max_coast in (1, 2, 3, 7):
        for code in range(64):
            script = [(code >> k) & 1 == 1 for k in range(6)]
            tracker = Tracker(TrackerConfig(max_coast=max_coast))
            got = []
            for hit in script:
                tracker.step(candidates([obs] if hit else []))
                snaps = tracker.ring[-1].tracks
                if snaps:
                    s = snaps[0]
                    got.append((s.track_id, names[s.state], s.bad_count))
                else:
                    got.append(None)
            expected = reference_automaton(script, max_coast)
            n_checked += 1
            if got != expected:
                bad = (max_coast, script, got, expected)
                break
        if bad:
            break
    report(
        7,
        "all 64 hit/miss scripts reproduce the reference lifecycle automaton",
        bad is None,
        f"{n_checked} scripts x max_coast in (1,2,3,7), mismatch={bad}, "
        f"{time.perf_counter() - t0:.2f}s",
    )


# -- 8: forward/backward link consistency ------------------------------------


def _random_stream(rng, n_steps=30):
    """Observation lists with churn: targets blink in and out."""
    anchors = [
        np.array([5.0, 5.0, 60.0]),
        np.array([25.0, 6.0, 160.0]),
        np.array([8.0, 24.0, 320.0]),
        np.array([26.0, 25.0, 480.0]),
    ]
    alive = [rng.random() < 0.5 for _ in anchors]
    steps = []
    for _ in range(n_steps):
        obs = []
        for k, anchor in enumerate(anchors):
            if rng.random() < 0.2:
                alive[k] = not alive[k]
            if not alive[k]:
                continue
            c = anchor + rng.normal(0, 0.3, 3)
            lo = np.rint(c).astype(int) - 1
            vox = np.array(
                [
                    [x, y, z]
                    for x in range(lo[0], lo[0] + 3)
                    for y in range(lo[1], lo[1] + 3)
                    for z in range(lo[2], lo[2] + 3)
                ]
            )
            obs.append(
                Observation(
                    label=len(obs) + 1,
                    voxels=vox,
                    volume=27,
                    bbox=BoundingBox(tuple(lo), tuple(lo + 2)),
                    centroid=c,
                    total_photons=int(rng.integers(30, 90)),
                    peak_photons=6,
                )
            )
        steps.append(obs)
    return steps


def _check_ring(ring):
    entries = list(ring)
    if len(entries) > 10:
        return f"ring holds {len(entries)} entries"
    for e in entries:
        try:
            nxt = record_at(ring, e.step + 1)
        except EntryEvictedError:
            nxt = None
        for s, f in enumerate(e.fwlink):
            if f is None:
                continue
            if nxt is None:
                return f"dangling fwlink at step {e.step}"
            if nxt.bwlink[f] != s:
                return f"fw/bw disagree at step {e.step} slot {s}"
            if nxt.tracks[f].track_id != e.tracks[s].track_id:
                return f"link changes identity at step {e.step} slot {s}"
        if nxt is not None:
            for s2, b in enumerate(nxt.bwlink):
                if b is not None and e.fwlink[b] != s2:
                    return f"bw/fw disagree at step {nxt.step} slot {s2}"
    for e in entries:
        for slot in range(len(e.tracks)):
            if e.bwlink[slot] is None:  # chain head
                fwd = reconstruct_forward(ring, e.step, slot)
                tail_step, tail_slot = fwd[-1]
                bwd = reconstruct_backward(ring, tail_step, tail_slot)
                if list(reversed(bwd)) != fwd:
                    return f"chain mismatch from step {e.step} slot {slot}"
    return None


def test_acceptance_08_link_consistency(report):
    t0 = time.perf_counter()
    problem = None
    for run in range(50):
        rng = np.random.default_rng([901, run])
        tracker = Tracker(TrackerConfig())
        for obs in _random_stream(rng):
            tracker.step(candidates(obs))
            problem = _check_ring(tracker.ring)
            if problem:
                break
        if problem:
            problem = f"run {run}: {problem}"
            break
    report(
        8,
        "FWlink/BWlink stay mutually inverse with matching reconstructions",
        problem is None,
        f"50 runs x 30 steps, {problem or 'no violations'}, "
        f"{time.perf_counter() - t0:.2f}s",
    )


# -- 9: end-to-end tracking of a crossing pair -------------------------------


def _crossing_scene(seed):
    return SceneSpec(
        targets=(
            TargetSpec(
                shape=(3, 3, 3),
                start=(6.0, 10.0, 160.0),
                reflectivity=2.0,
                velocity_segments=((0, (0.2, 0.06, 0.0)),),
            ),
            TargetSpec(
                shape=(3, 3, 3),
                start=(25.0, 15.7, 320.0),
                reflectivity=2.0,
                velocity_segments=((0, (-0.2, -0.06, 0.0)),),
            ),
        ),
        noise_rate=50.0,
        n_groups=100,
        seed=seed,
    )


def _run_crossing(seed):
    sensor = SensorConfig()
    scene = _crossing_scene(seed)
    frames, truth = simulate(scene, sensor)

    # the scene must put a healthy photon count in every group
    min_hits = None
    for n in range(scene.n_groups):
        block = frames[n * 200 : (n + 1) * 200]
        for rec in truth[n]:
            x0, y0, z0 = rec.bbox.min
            x1, y1, _ = rec.bbox.max
            hits = int((block[:, y0 : y1 + 1, x0 : x1 + 1] == z0 + sensor.offset).sum())
            min_hits = hits if min_hits is None else min(min_hits, hits)

    cfg = RunConfig(
        sensor=sensor,
        denoise=DenoiseConfig(
            scheme=Scheme.THRESHOLD_MAJORITY, threshold_mode=Fixed(2.0), majority_min=2
        ),
        tracker=TrackerConfig(t_max=10, assoc=AssociationConfig(expansion_e=2)),
        connectivity=26,
    )
    result = run_groups(group_frames(frames, sensor), cfg)

    covering = {0: [], 1: []}
    for rec in result:
        for k, tr in enumerate(truth[rec.step]):
            if not tr.alive:
                continue
            c = np.asarray(tr.centroid)
            best = None
            for snap in rec.tracks:
                d = float(np.linalg.norm(np.asarray(snap.features[:3]) - c))
                if d <= 4.0 and (best is None or d < best[0]):
                    best = (d, snap.track_id)
            covering[k].append(best[1] if best else None)

    presence = Counter(
        snap.track_id for rec in result for snap in rec.tracks
    )
    coverage, modal_ids = {}, set()
    for k, ids in covering.items():
        hits = Counter(i for i in ids if i is not None)
        modal_id, modal_n = hits.most_common(1)[0] if hits else (None, 0)
        coverage[k] = modal_n / len(ids)
        modal_ids.add(modal_id)
    spurious = [
        i for i, n in presence.items() if n > 3 and i not in modal_ids
    ]
    return min_hits, coverage, spurious


def test_acceptance_09_end_to_end_crossing(report):
    t0 = time.perf_counter()
    failures = []
    details = []
    for seed in range(5):
        t_run = time.perf_counter()
        min_hits, coverage, spurious = _run_crossing(seed)
        elapsed = time.perf_counter() - t_run
        details.append(
            f"seed {seed}: cov=({coverage[0]:.2f},{coverage[1]:.2f}) "
            f"hits>={min_hits} spur={len(spurious)} {elapsed:.1f}s"
        )
        if min_hits < 20:
            failures.append(f"seed {seed}: only {min_hits} photons in a group")
        if coverage[0] < 0.9 or coverage[1] < 0.9:
            failures.append(f"seed {seed}: coverage {coverage}")
        if len(spurious) > 1:
            failures.append(f"seed {seed}: {len(spurious)} spurious tracks")
        if elapsed >= 60.0:
            failures.append(f"seed {seed}: run took {elapsed:.1f}s")
    report(
        9,
        "crossing targets keep one identity >=90% with <=1 spurious track",
        not failures,
        "; ".join(failures or details) + f", total {time.perf_counter() - t0:.1f}s",
    )


# -- 10: byte-identical reruns -----------------------------------------------


def test_acceptance_10_determinism(report, tmp_path):
    t0 = time.perf_counter()
    sensor = SensorConfig()
    scene = SceneSpec(
        targets=(
            TargetSpec(
                shape=(3, 3, 3),
                start=(10.0, 12.0, 240.0),
                reflectivity=2.0,
                velocity_segments=((0, (0.3, -0.1, 1.0)),),
            ),
        ),
        noise_rate=40.0,
        n_groups=20,
        seed=99,
    )
    frames, _ = simulate(scene, sensor)
    raw = tmp_path / "run.raw"
    write_raw(frames, raw)
    config = tmp_path / "run.cfg"
    config.write_text(
        "scheme threshold_majority\nthreshold 2\nmajority_min 2\n"
        "connectivity 26\nt_max 10\nmax_coast 3\nexpansion 2\n"
    )
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(
            [
                "track",
                "--raw", str(raw),
                "--config", str(config),
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        outputs.append(
            (
                (out / "tracks.csv").read_bytes(),
                (out / "links.csv").read_bytes(),
            )
        )
    same = outputs[0] == outputs[1]
    n_rows = outputs[0][0].count(b"\n") - 1
    report(
        10,
        "repeated runs produce byte-identical tracks.csv and links.csv",
        same,
        f"{n_rows} track rows compared, {time.perf_counter() - t0:.2f}s",
    )
