"""Synthetic generator tests.

The generator is itself the oracle for the rest of the suite, so these
tests pin its guarantees directly: closed-form regime geometry, exact
dropout/mislabel bookkeeping, boundary/label agreement, determinism, and
file round-trips.
"""

import numpy as np
import pytest

from microact import io, load_config, pipeline
from microact.records import ActionClass, InstrumentClass, SkillLevel
from microact.synth import (ActionSpec, ProcedureScript, SLOPPINESS_BY_LEVEL,
                            SLOT_CLASSES, SyntheticProcedure, generate,
                            paper_shaped_script, write_procedure)
from microact.tracking import localize_tip

from test_io import same_table


def one_step(action, seconds=6.0, **kw):
    return ProcedureScript(steps=[ActionSpec(action, seconds)], **kw)


class TestRegimes:
    def test_cutting_slots_and_motion(self):
        proc = generate(one_step(ActionClass.CUTTING, noise=0.0))
        present = [tr for tr in proc.trajectories
                   if any(p is not None for p in tr.points)]
        assert [tr.instrument_id for tr in present] == [0]
        assert SLOT_CLASSES[present[0].instrument_id] == \
            InstrumentClass.SCISSORS_C
        pts = np.array(present[0].points, dtype=float)
        # oscillation stays within the regime envelope around its center
        c = pts.mean(axis=0)
        assert np.abs(pts - c).max() < 16.5

    def test_needle_driving_constant_separation(self):
        proc = generate(one_step(ActionClass.NEEDLE_DRIVING, noise=0.0))
        p1 = np.array(proc.trajectories[1].points, dtype=float)
        p2 = np.array(proc.trajectories[2].points, dtype=float)
        d = np.linalg.norm(p1 - p2, axis=1)
        assert d == pytest.approx(np.full(len(d), 24.0), abs=1e-9)
        assert all(p is not None for p in proc.trajectories[3].points)
        assert all(p is None for p in proc.trajectories[0].points)

    def test_knot_tying_opposed_about_center(self):
        proc = generate(one_step(ActionClass.KNOT_TYING, noise=0.0))
        p1 = np.array(proc.trajectories[1].points, dtype=float)
        p2 = np.array(proc.trajectories[2].points, dtype=float)
        mid = (p1 + p2) / 2
        # drivers sit symmetrically about a fixed center
        assert np.ptp(mid, axis=0) == pytest.approx([0, 0], abs=1e-9)
        d = np.linalg.norm(p1 - p2, axis=1)
        assert d.min() >= 49.9 and d.max() <= 90.1
        assert d.std() > 1.0  # the pulsation is there

    def test_no_action_all_absent(self):
        proc = generate(one_step(ActionClass.NO_ACTION))
        assert all(p is None for tr in proc.trajectories for p in tr.points)
        assert proc.detections == []

    def test_zero_noise_boxes_centered_on_tips(self):
        proc = generate(one_step(ActionClass.NEEDLE_DRIVING, noise=0.0))
        tips = {(tr.instrument_id, f): p
                for tr in proc.trajectories
                for f, p in enumerate(tr.points) if p is not None}
        assert proc.detections
        for det in proc.detections:
            x, y, w, h = det.bbox
            slot = next(s for s, cls in enumerate(
                [InstrumentClass.SCISSORS_C, InstrumentClass.NEEDLE_DRIVER_C,
                 InstrumentClass.NEEDLE_DRIVER_S, InstrumentClass.NEEDLE])
                if cls == det.class_id)
            tip = tips[(slot, det.frame)]
            assert x + w / 2 == pytest.approx(tip[0], abs=1e-9)
            assert y + h / 2 == pytest.approx(tip[1], abs=1e-9)

    def test_jerk_ordering_across_regimes(self):
        # cutting must be far jerkier than tying, tying than driving
        from microact.kinematics import derivatives

        def mean_jerk(action, slot):
            proc = generate(one_step(action, seconds=20.0, noise=0.0))
            d = derivatives(proc.trajectories[slot], proc.fps)
            return d.jerk_mag[d.mask > 0].mean()

        cutting = mean_jerk(ActionClass.CUTTING, 0)
        tying = mean_jerk(ActionClass.KNOT_TYING, 1)
        driving = mean_jerk(ActionClass.NEEDLE_DRIVING, 1)
        assert cutting > 5 * tying > 5 * driving


class TestLabelsAndBoundaries:
    def test_paper_shaped_counts(self):
        script = paper_shaped_script()
        actions = [s.action for s in script.steps]
        assert actions.count(ActionClass.CUTTING) == 11  # 3 + 8
        assert actions.count(ActionClass.NEEDLE_DRIVING) == 8
        assert actions.count(ActionClass.KNOT_TYING) == 8
        assert sum(a != ActionClass.NO_ACTION for a in actions) == 27
        proc = generate(script)
        assert len(proc.segments) == 55
        assert len(proc.boundaries) == 54
        assert len(proc.labels) == proc.n_frames

    def test_boundaries_are_exactly_label_switches(self):
        proc = generate(paper_shaped_script(seed=3))
        switches = [t for t in range(1, proc.n_frames)
                    if proc.labels[t] != proc.labels[t - 1]]
        assert proc.boundaries == switches

    def test_segments_tile_the_stream(self):
        proc = generate(paper_shaped_script(seed=5))
        assert proc.segments[0][0] == 0
        assert proc.segments[-1][1] == proc.n_frames
        for (a, b, act), (c, _, _) in zip(proc.segments, proc.segments[1:]):
            assert b == c
        for s0, s1, act in proc.segments:
            assert all(l == act for l in proc.labels[s0:s1])

    def test_duration_jitter_only_with_sloppiness(self):
        clean = generate(paper_shaped_script(seed=1, sloppiness=0.0))
        lengths = [s1 - s0 for s0, s1, _ in clean.segments]
        again = generate(paper_shaped_script(seed=99, sloppiness=0.0))
        assert lengths == [s1 - s0 for s0, s1, _ in again.segments]
        sloppy = generate(paper_shaped_script(seed=1, sloppiness=0.9))
        assert [s1 - s0 for s0, s1, _ in sloppy.segments] != lengths


class TestInjections:
    def test_dropout_fraction_over_ten_thousand_frames(self):
        # one long driving block: 3 slots x 3400 frames > 10,000
        script = one_step(ActionClass.NEEDLE_DRIVING, seconds=680.0,
                          dropout_rate=0.1, seed=11)
        proc = generate(script)
        total = sum(p is not None
                    for tr in proc.trajectories for p in tr.points)
        assert total >= 10_000
        frac = len(proc.dropped) / total
        assert 0.08 <= frac <= 0.12

    def test_dropout_runs_bounded_and_separated(self):
        script = one_step(ActionClass.NEEDLE_DRIVING, seconds=400.0,
                          dropout_rate=0.1, seed=2)
        proc = generate(script)
        by_slot = {}
        for f, slot in proc.dropped:
            by_slot.setdefault(slot, set()).add(f)
        assert by_slot
        for frames in by_slot.values():
            runs = []
            for f in sorted(frames):
                if runs and f == runs[-1][1]:
                    runs[-1] = (runs[-1][0], f + 1)
                else:
                    runs.append((f, f + 1))
            assert max(b - a for a, b in runs) <= script.dropout_max_run
            # separated: no two runs touch
            for (a1, b1), (a2, b2) in zip(runs, runs[1:]):
                assert a2 > b1

    def test_dropped_frames_have_no_detection(self):
        script = one_step(ActionClass.NEEDLE_DRIVING, seconds=200.0,
                          dropout_rate=0.1, seed=7)
        proc = generate(script)
        emitted = {(d.frame, d.class_id) for d in proc.detections}
        slots = [InstrumentClass.SCISSORS_C, InstrumentClass.NEEDLE_DRIVER_C,
                 InstrumentClass.NEEDLE_DRIVER_S, InstrumentClass.NEEDLE]
        assert proc.dropped
        for f, slot in proc.dropped:
            assert (f, slots[slot]) not in emitted

    def test_mislabels_single_frame_and_recorded(self):
        script = one_step(ActionClass.NEEDLE_DRIVING, seconds=300.0,
                          mislabel_rate=0.05, seed=13)
        proc = generate(script)
        assert proc.mislabeled
        slots = [InstrumentClass.SCISSORS_C, InstrumentClass.NEEDLE_DRIVER_C,
                 InstrumentClass.NEEDLE_DRIVER_S, InstrumentClass.NEEDLE]
        flips_by_slot = {}
        for f, slot, wrong in proc.mislabeled:
            assert wrong != slots[slot]
            flips_by_slot.setdefault(slot, set()).add(f)
        for frames in flips_by_slot.values():
            fs = sorted(frames)
            assert all(b - a > 1 for a, b in zip(fs, fs[1:]))
        # the emitted class on a flipped frame matches the record; infer
        # the slot from box geometry since the class itself was flipped
        det_cls = {}
        tips = {(tr.instrument_id, f): p for tr in proc.trajectories
                for f, p in enumerate(tr.points) if p is not None}
        for d in proc.detections:
            cx = d.bbox[0] + d.bbox[2] / 2
            cy = d.bbox[1] + d.bbox[3] / 2
            slot = min((s for s in range(4) if (s, d.frame) in tips),
                       key=lambda s: (tips[(s, d.frame)][0] - cx) ** 2
                       + (tips[(s, d.frame)][1] - cy) ** 2)
            det_cls[(d.frame, slot)] = d.class_id
        for f, slot, wrong in proc.mislabeled:
            assert det_cls[(f, slot)] == wrong

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            one_step(ActionClass.CUTTING, dropout_rate=1.5)
        with pytest.raises(ValueError):
            one_step(ActionClass.CUTTING, mislabel_rate=-0.1)
        with pytest.raises(ValueError):
            ActionSpec(ActionClass.CUTTING, 0.0)


class TestDeterminismAndFiles:
    def test_same_seed_bit_identical(self):
        script = paper_shaped_script(seed=21, dropout_rate=0.05,
                                     mislabel_rate=0.03, sloppiness=0.4)
        a = generate(script)
        b = generate(script)
        assert a.labels == b.labels
        assert a.boundaries == b.boundaries
        assert a.dropped == b.dropped and a.mislabeled == b.mislabeled
        assert len(a.detections) == len(b.detections)
        for da, db in zip(a.detections, b.detections):
            assert (da.frame, da.class_id, da.bbox, da.confidence) == \
                   (db.frame, db.class_id, db.bbox, db.confidence)
            assert np.array_equal(da.appearance, db.appearance)
        assert same_table(a.tip_candidates, b.tip_candidates)
        assert [s.score for s in a.scores] == [s.score for s in b.scores]

    def test_different_seed_differs(self):
        a = generate(paper_shaped_script(seed=1))
        b = generate(paper_shaped_script(seed=2))
        assert any(x.bbox != y.bbox for x, y in zip(a.detections, b.detections))

    def test_candidates_recover_exact_tip(self):
        proc = generate(one_step(ActionClass.NEEDLE_DRIVING, seconds=10.0,
                                 noise=1.0, seed=9))
        tips = {(tr.instrument_id, f): p for tr in proc.trajectories
                for f, p in enumerate(tr.points) if p is not None}
        dets = {}
        for d in proc.detections:
            cx = d.bbox[0] + d.bbox[2] / 2
            cy = d.bbox[1] + d.bbox[3] / 2
            slot = min((s for s in range(4) if (s, d.frame) in tips),
                       key=lambda s: (tips[(s, d.frame)][0] - cx) ** 2
                       + (tips[(s, d.frame)][1] - cy) ** 2)
            dets[(d.frame, slot)] = d
        # the first 40 sets, each against its detection's reference, in
        # one batched call
        table = proc.tip_candidates
        keys = [tuple(key) for key in table.set_keys[:40].tolist()]
        boxes = table.boxes[:40]
        classes = list(proc.reference_descriptors)
        ref_of = []
        for key, box in zip(keys, boxes.tolist()):
            assert tuple(box) == dets[key].bbox
            ref_of.append(classes.index(dets[key].class_id))
        got = localize_tip(
            table, np.arange(40),
            [proc.reference_descriptors[c] for c in classes], ref_of)
        want = [tips[(slot, f)] for f, slot in keys]
        assert got.shape == (40, 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_write_procedure_round_trips(self, tmp_path):
        proc = generate(paper_shaped_script(seed=4, dropout_rate=0.05,
                                            mislabel_rate=0.02))
        paths = write_procedure(proc, tmp_path / "proc")
        dets = io.load_detections(paths["detections"])
        assert len(dets) == len(proc.detections)
        labels = io.load_labels(paths["labels"])
        assert labels == proc.labels
        taus, _ = io.load_boundaries(paths["boundaries_truth"])
        assert taus == proc.boundaries
        tips = io.load_tips(paths["tips_truth"])
        assert len(tips) == len(proc.trajectories)
        for got, want in zip(tips, proc.trajectories):
            assert [p is not None for p in got.points] == \
                [p is not None for p in want.points]
        # synth makes the sets in (frame, slot) order, the file's order
        assert same_table(io.load_tip_candidates(paths["candidates"]),
                          proc.tip_candidates)
        refs = io.load_reference_descriptors(paths["references"])
        assert set(refs) == set(proc.reference_descriptors)
        truth = io.load_truth_instances(paths["truth"])
        assert len(truth) == len(proc.truth)
        scores = io.load_scores(paths["scores"])
        assert len(scores) == 2
        # the track stage counts the detector's gaps and repeated classes:
        # runs of empty frames between frames with detections, and (frame,
        # class) pairs detected more than once
        io.save_json({"fps": proc.fps, "n_frames": proc.n_frames},
                     tmp_path / "proc" / "meta.json")
        summary = pipeline.stage_track(tmp_path / "proc",
                                       load_config(environ={}))
        by_frame = {}
        for d in dets:
            by_frame.setdefault(d.frame, []).append(d.class_id)
        seen = [f in by_frame for f in range(min(by_frame), max(by_frame) + 1)]
        gaps = sum(1 for a, b in zip(seen, seen[1:]) if a and not b)
        anomalies = sum(1 for classes in by_frame.values()
                        for c in set(classes) if classes.count(c) > 1)
        assert gaps > 0 and anomalies > 0
        assert (summary["detection_gaps"], summary["detection_anomalies"]) \
            == (gaps, anomalies)

    def test_write_procedure_keys_follow_artifact_table(self, tmp_path):
        paths = write_procedure(generate(one_step(ActionClass.CUTTING)), tmp_path)
        synth_keys = [key for key, (_, stage, *_) in io.ARTIFACTS.items()
                      if stage == "synth" and key != "meta"]
        assert list(paths) == synth_keys
        for key, path in paths.items():
            assert path == str(tmp_path / io.ARTIFACTS[key][0])

    def test_scores_track_sloppiness(self):
        means = {}
        for level, s in SLOPPINESS_BY_LEVEL.items():
            vals = []
            for seed in range(6):
                proc = generate(paper_shaped_script(seed=seed, sloppiness=s))
                vals.extend(sc.score for sc in proc.scores)
            means[level] = float(np.mean(vals))
        assert means[SkillLevel.GOOD] > means[SkillLevel.MODERATE] \
            > means[SkillLevel.POOR]
        assert means[SkillLevel.GOOD] > 3.5
        assert means[SkillLevel.POOR] <= 2.5
