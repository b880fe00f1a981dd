import dataclasses
import enum
import json
import math
import pickle
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microact import (
    ActionClass,
    Detection,
    InstrumentClass,
    Provenance,
    RefinedTrack,
    SkillScore,
    TipTrajectory,
    TruthInstance,
)
from microact import io, load_config, pipeline
from microact.io import (
    ParseError,
    load_boundaries,
    load_detections,
    load_labels,
    load_matrix,
    load_novelty,
    load_refined_tracks,
    load_reference_descriptors,
    load_scores,
    load_segments,
    load_tip_candidates,
    load_tips,
    load_track_rows,
    load_truth_instances,
    save_boundaries,
    save_detections,
    save_labels,
    save_matrix,
    save_novelty,
    save_refined_tracks,
    save_reference_descriptors,
    save_scores,
    save_segments,
    save_tip_candidates,
    save_tips,
    save_track_rows,
    save_truth_instances,
)
from microact.records import SkillLevel, TipCandidateTable, TrackObservation
from microact.segmentation import enhance, ssm
from microact.skill import SkillGradientBoosting


def det(frame, cls=InstrumentClass.NEEDLE, bbox=(0.0, 0.0, 10.0, 10.0), conf=0.9,
        appearance=None):
    return Detection(frame=frame, class_id=cls, bbox=bbox, confidence=conf,
                     appearance=appearance)


class TestLoadDetections:
    def test_empty_file_gives_empty_stream(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        p.write_text("")
        assert load_detections(p) == []

    def test_three_records_sorted_by_frame(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        lines = [
            '{"frame": 1, "class": "needle", "x": 0, "y": 0, "w": 5, "h": 5, "conf": 0.5}',
            '{"frame": 0, "class": "needle", "x": 1, "y": 0, "w": 5, "h": 5, "conf": 0.5}',
            '{"frame": 0, "class": "needle", "x": 2, "y": 0, "w": 5, "h": 5, "conf": 0.5}',
        ]
        p.write_text("\n".join(lines) + "\n")
        stream = load_detections(p)
        assert len(stream) == 3
        assert [d.frame for d in stream] == [0, 0, 1]
        # stable: the two frame-0 records keep file order
        assert stream[0].bbox[0] == 1.0 and stream[1].bbox[0] == 2.0

    def test_confidence_out_of_bounds_rejected(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        p.write_text('{"frame": 0, "class": "needle", "x": 0, "y": 0, "w": 5, "h": 5, "conf": 1.2}\n')
        with pytest.raises(ParseError, match="confidence"):
            load_detections(p)

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        good = '{"frame": 0, "class": "needle", "x": 0, "y": 0, "w": 5, "h": 5, "conf": 0.5}'
        p.write_text(good + "\n{not json\n")
        with pytest.raises(ParseError) as exc:
            load_detections(p)
        assert exc.value.line_no == 2

    def test_frames_out_of_order_are_sorted(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        lines = [
            '{"frame": 5, "class": "needle", "x": 0, "y": 0, "w": 5, "h": 5, "conf": 0.5}',
            '{"frame": 2, "class": "needle", "x": 0, "y": 0, "w": 5, "h": 5, "conf": 0.5}',
        ]
        p.write_text("\n".join(lines) + "\n")
        assert [d.frame for d in load_detections(p)] == [2, 5]

    def test_unknown_class_rejected(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        p.write_text('{"frame": 0, "class": "forceps", "x": 0, "y": 0, "w": 5, "h": 5, "conf": 0.5}\n')
        with pytest.raises(ParseError):
            load_detections(p)

    def test_zero_width_rejected(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        p.write_text('{"frame": 0, "class": "needle", "x": 0, "y": 0, "w": 0, "h": 5, "conf": 0.5}\n')
        with pytest.raises(ParseError, match="positive width"):
            load_detections(p)

    def test_appearance_must_be_unit_norm(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        p.write_text('{"frame": 0, "class": "needle", "x": 0, "y": 0, "w": 5, "h": 5, '
                     '"conf": 0.5, "appearance": [3.0, 4.0]}\n')
        with pytest.raises(ParseError, match="norm"):
            load_detections(p)

    @pytest.mark.parametrize("vec", ["[NaN, 0.0]", "[Infinity, 0.0]"])
    def test_non_finite_appearance_rejected(self, tmp_path, vec):
        # a NaN norm fails no "> tolerance" test, so it must fail "<="
        p = tmp_path / "dets.jsonl"
        p.write_text('{"frame": 0, "class": "needle", "x": 0, "y": 0, "w": 5, "h": 5, '
                     '"conf": 0.5, "appearance": ' + vec + '}\n')
        with pytest.raises(ParseError, match=":1: appearance norm"):
            load_detections(p)


finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                         allow_infinity=False)
positive_size = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False,
                          allow_infinity=False)

detection_strategy = st.builds(
    det,
    frame=st.integers(min_value=0, max_value=5000),
    cls=st.sampled_from(list(InstrumentClass)),
    bbox=st.tuples(finite_coord, finite_coord, positive_size, positive_size),
    conf=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestDetectionProperties:
    @settings(max_examples=50, deadline=None)
    @given(dets=st.lists(detection_strategy, max_size=30))
    def test_round_trip_bit_exact(self, tmp_path_factory, dets):
        p = tmp_path_factory.mktemp("io") / "dets.jsonl"
        save_detections(sorted(dets, key=lambda d: d.frame), p)
        first = p.read_bytes()
        loaded = load_detections(p)
        save_detections(loaded, p)
        assert p.read_bytes() == first

    @settings(max_examples=50, deadline=None)
    @given(dets=st.lists(detection_strategy, max_size=30))
    def test_loading_is_order_stabilizing(self, tmp_path_factory, dets):
        p = tmp_path_factory.mktemp("io") / "dets.jsonl"
        save_detections(dets, p)  # arbitrary order on disk
        frames = [d.frame for d in load_detections(p)]
        assert frames == sorted(frames)


class TestValidateStream:
    """The detection-stream counts of the track stage's summary: a gap is
    a run of frames with no detection between two frames that have some,
    an anomaly a (frame, class) pair detected more than once."""

    @staticmethod
    def counts(tmp_path, stream) -> tuple[int, int]:
        # the stream as load_detections returns it, through the memo
        stream = sorted(stream, key=lambda d: d.frame)
        summary = pipeline.stage_track(tmp_path, load_config(environ={}), memo={
            "meta": {"fps": 5.0, "n_frames": 12}, "detections": stream})
        return summary["detection_gaps"], summary["detection_anomalies"]

    def test_contiguous_frames_zero_gaps(self, tmp_path):
        assert self.counts(tmp_path, [det(f) for f in range(10)]) == (0, 0)

    def test_gap_detected(self, tmp_path):
        assert self.counts(tmp_path, [det(0), det(1), det(5)]) == (1, 0)
        assert self.counts(tmp_path, [det(7), det(0), det(2), det(3)]) == (2, 0)

    def test_two_simultaneous_needles_flagged(self, tmp_path):
        stream = [det(3, InstrumentClass.NEEDLE), det(3, InstrumentClass.NEEDLE)]
        assert self.counts(tmp_path, stream) == (0, 1)

    def test_each_repeated_pair_counts_once(self, tmp_path):
        sc = InstrumentClass.SCISSORS_C
        stream = [det(3), det(3), det(3), det(4), det(4, sc), det(4, sc),
                  det(4)]
        assert self.counts(tmp_path, stream) == (0, 3)

    def test_distinct_classes_not_flagged(self, tmp_path):
        stream = [det(3, InstrumentClass.NEEDLE), det(3, InstrumentClass.SCISSORS_C)]
        assert self.counts(tmp_path, stream) == (0, 0)

    def test_never_mutates(self, tmp_path):
        stream = [det(0), det(2)]
        before = [(d.frame, d.bbox) for d in stream]
        self.counts(tmp_path, stream)
        assert [(d.frame, d.bbox) for d in stream] == before

    def test_empty_stream(self, tmp_path):
        assert self.counts(tmp_path, []) == (0, 0)


class TestMeta:
    @staticmethod
    def _rejected(tmp_path, fps, n_frames, line_no, reason):
        p = tmp_path / "meta.json"
        p.write_text(f'{{\n "fps": {fps},\n "n_frames": {n_frames}\n}}\n')
        with pytest.raises(ParseError, match=reason) as exc:
            io.load_meta(p)
        assert str(exc.value).startswith(f"{p}:{line_no}: ")

    def test_fps_required_positive(self, tmp_path):
        for fps in ("0", "-5.0", '"x"', '"5"', "true", "NaN", "Infinity",
                    "null", "[5]"):
            self._rejected(tmp_path, fps, 10, 2, "fps must be a positive "
                           "finite number")
        p = tmp_path / "meta.json"
        io.save_json({"fps": 5, "n_frames": 0}, p)
        assert io.load_meta(p) == {"fps": 5, "n_frames": 0}

    def test_n_frames_must_be_a_non_negative_integer(self, tmp_path):
        for n_frames in ('"abc"', "-1", "10.0", "false", "null"):
            self._rejected(tmp_path, 30.0, n_frames, 3, "n_frames must be "
                           "a non-negative integer")


class TestTips:
    def test_round_trip(self, tmp_path):
        trajs = [
            TipTrajectory(0, [(0.0, 1.0), None, (2.5, 3.125)]),
            TipTrajectory(1, [None, (7.0, 8.0), None]),
        ]
        p = tmp_path / "tips.csv"
        save_tips(trajs, p)
        assert load_tips(p) == trajs

    def test_bad_header(self, tmp_path):
        p = tmp_path / "tips.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(ParseError):
            load_tips(p)

    def test_classes_round_trip(self, tmp_path):
        p = tmp_path / "tips_classes.json"
        classes = {0: InstrumentClass.SCISSORS_C, 2: InstrumentClass.NEEDLE}
        io.save_tips_classes(classes, p)
        assert p.read_text() == '{\n "0": "scissors_c",\n "2": "needle"\n}\n'
        assert io.load_tips_classes(p) == classes

    @pytest.mark.parametrize("doc, line_no, reason", [
        ('{\n "0": "scissors_c",\n "one": "needle"\n}\n', 3, "slot 'one'"),
        ('{\n "0": "scalpel"\n}\n', 2, "'scalpel'"),
        ('["scissors_c"]\n', 1, "expected an object"),
    ], ids=["non-integer-key", "unknown-class", "not-an-object"])
    def test_classes_rejected(self, tmp_path, doc, line_no, reason):
        p = tmp_path / "tips_classes.json"
        p.write_text(doc)
        with pytest.raises(ParseError, match=reason) as exc:
            io.load_tips_classes(p)
        assert str(exc.value).startswith(f"{p}:{line_no}: ")


class TestLabelsScores:
    def test_labels_round_trip(self, tmp_path):
        labels = [ActionClass.CUTTING, ActionClass.NO_ACTION, ActionClass.KNOT_TYING]
        p = tmp_path / "labels.csv"
        save_labels(labels, p)
        assert load_labels(p) == labels

    def test_labels_must_cover_all_frames(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("frame,action\n0,Cutting\n2,Cutting\n")
        with pytest.raises(ValueError, match="cover"):
            load_labels(p)

    def test_scores_round_trip(self, tmp_path):
        scores = [
            SkillScore("proc01", ActionClass.NEEDLE_DRIVING, 3.5),
            SkillScore("proc01", ActionClass.KNOT_TYING, 1.25),
        ]
        p = tmp_path / "scores.csv"
        save_scores(scores, p)
        assert load_scores(p) == scores

    def test_score_out_of_range(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("procedure_id,action_type,score\np,KnotTying,5.5\n")
        with pytest.raises(ParseError, match="score"):
            load_scores(p)

    def test_score_for_unscored_action(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("procedure_id,action_type,score\np,Cutting,3.0\n")
        with pytest.raises(ParseError):
            load_scores(p)


class TestTracks:
    def test_track_rows_round_trip(self, tmp_path):
        rows = [
            TrackObservation(0, 1, InstrumentClass.NEEDLE, (0.0, 0.0, 5.0, 5.0), 0),
            TrackObservation(1, 1, InstrumentClass.NEEDLE, (1.0, 0.0, 5.0, 5.0), None),
        ]
        p = tmp_path / "tracks.jsonl"
        save_track_rows(rows, p)
        assert load_track_rows(p) == rows

    def test_refined_round_trip(self, tmp_path):
        tracks = [
            RefinedTrack(1, InstrumentClass.SCISSORS_C,
                         boxes={0: (0.0, 0.0, 4.0, 4.0), 1: (1.0, 0.0, 4.0, 4.0)},
                         provenance={0: Provenance.DETECTED, 1: Provenance.RECOVERED}),
            RefinedTrack(2, InstrumentClass.NEEDLE,
                         boxes={1: (9.0, 9.0, 2.0, 2.0)},
                         provenance={1: Provenance.CORRECTED}),
        ]
        p = tmp_path / "refined.jsonl"
        save_refined_tracks(tracks, p)
        assert load_refined_tracks(p) == tracks

    def test_refined_conflicting_class_rejected(self, tmp_path):
        p = tmp_path / "refined.jsonl"
        p.write_text(
            '{"frame": 0, "object_id": 1, "class": "needle", "x": 0, "y": 0, '
            '"w": 2, "h": 2, "provenance": "detected"}\n'
            '{"frame": 1, "object_id": 1, "class": "scissors_c", "x": 0, "y": 0, '
            '"w": 2, "h": 2, "provenance": "detected"}\n')
        with pytest.raises(ParseError, match="conflicting"):
            load_refined_tracks(p)

    def test_truth_round_trip(self, tmp_path):
        rows = [TruthInstance(0, 1, InstrumentClass.NEEDLE, (0.0, 0.0, 3.0, 3.0))]
        p = tmp_path / "truth.jsonl"
        save_truth_instances(rows, p)
        assert load_truth_instances(p) == rows


class CandidateSet(NamedTuple):
    """One crop's tip candidates, (x, y, descriptor) each, and its box."""

    candidates: list
    bbox: Optional[tuple] = None


def candidate_table(sets: dict) -> TipCandidateTable:
    """The table of ``{(frame, object_id): CandidateSet}``, sets in the
    dict's order; a set without a box gets a NaN row, which the writer
    refuses."""
    keys = list(sets)
    cands = [c for key in keys for c in sets[key].candidates]
    return TipCandidateTable(
        set_keys=np.array(keys, dtype=np.int64).reshape(-1, 2),
        boxes=np.array([sets[k].bbox or (math.nan,) * 4 for k in keys],
                       dtype=np.float64).reshape(-1, 4),
        offsets=np.cumsum([0] + [len(sets[k].candidates) for k in keys],
                          dtype=np.int64),
        points=np.array([c[:2] for c in cands],
                        dtype=np.float64).reshape(-1, 2),
        descriptors=(np.array([c[2] for c in cands], dtype=np.float64)
                     if cands else np.empty((0, 0))))


def oracle_save_tip_candidates(sets: dict, path) -> None:
    """The candidate writer over a dict of CandidateSets, one record per
    key in sorted key order, with no checks: it writes the sets that the
    loader refuses too, and a set without a box as a record without one."""
    def record(key):
        cset = sets[key]
        rec = {"frame": key[0], "object_id": key[1], "candidates": [
            {"x": float(x), "y": float(y), "descriptor": [float(v) for v in d]}
            for x, y, d in cset.candidates]}
        if cset.bbox is not None:
            rec.update(io._box_fields(cset.bbox))
        return rec

    io._write_jsonl(path, map(record, sorted(sets)))


def same_table(a: TipCandidateTable, b: TipCandidateTable) -> bool:
    """Whether two tables hold the same sets in the same order; NaN equals
    NaN, so NaN descriptors compare equal."""
    return all(
        x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
        for x, y in ((a.set_keys, b.set_keys), (a.boxes, b.boxes),
                     (a.offsets, b.offsets), (a.points, b.points),
                     (a.descriptors, b.descriptors)))


def set_rows(table, i) -> slice:
    """Set ``i``'s rows of ``points`` and ``descriptors``."""
    return slice(int(table.offsets[i]), int(table.offsets[i + 1]))


_coord = st.floats(allow_nan=False, allow_infinity=False)
_crop = st.tuples(_coord, _coord, st.floats(1e-3, 1e6), st.floats(1e-3, 1e6))


def _nonzero_norm(d: np.ndarray) -> bool:
    """Whether ``d``'s norm, as ``localize_tip`` computes it, is not zero
    (NaN counts as not zero)."""
    with np.errstate(over="ignore"):
        return not math.sqrt(d @ d) == 0.0


@st.composite
def candidate_sets(draw) -> dict:
    """Random ``{(frame, object_id): CandidateSet}`` that the writer takes:
    unsorted keys, every set boxed and holding one to four candidates,
    NaN descriptor values but no zero-norm descriptor."""
    width = draw(st.integers(1, 4))
    keys = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 6)),
                         unique=True, max_size=12))
    descriptor = st.lists(st.floats(allow_infinity=False), min_size=width,
                          max_size=width).map(np.array).filter(_nonzero_norm)
    return {key: CandidateSet(
        candidates=draw(st.lists(st.tuples(_coord, _coord, descriptor),
                                 min_size=1, max_size=4)),
        bbox=draw(_crop)) for key in keys}


class TestCandidatesDescriptors:
    def test_candidates_round_trip(self, tmp_path):
        cands = {
            (0, 1): CandidateSet(
                candidates=[(1.0, 2.0, np.array([0.5, 0.5])),
                            (3.0, 4.0, np.array([1.0, 0.0]))],
                bbox=(10.0, 20.0, 40.0, 40.0)),
            (1, 1): CandidateSet(
                candidates=[(0.0, 0.0, np.array([0.0, 1.0]))],
                bbox=(0.5, 0.0, 8.0, 4.0)),
        }
        p = tmp_path / "cands.jsonl"
        save_tip_candidates(candidate_table(cands), p)
        loaded = load_tip_candidates(p)
        keys = [tuple(key) for key in loaded.set_keys.tolist()]
        assert keys == sorted(cands)
        for i, key in enumerate(keys):
            assert tuple(loaded.boxes[i].tolist()) == cands[key].bbox
            rows = set_rows(loaded, i)
            got = list(zip(loaded.points[rows].tolist(),
                           loaded.descriptors[rows]))
            assert len(got) == len(cands[key].candidates)
            for (x0, y0, d0), ((x1, y1), d1) in zip(cands[key].candidates, got):
                assert (x0, y0) == (x1, y1)
                assert np.array_equal(d0, d1)

    @settings(max_examples=200, deadline=None)
    @given(sets=candidate_sets())
    def test_table_round_trip_and_oracle_bytes(self, tmp_path_factory, sets):
        d = tmp_path_factory.mktemp("cands")
        save_tip_candidates(candidate_table(sets), d / "table.jsonl")
        oracle_save_tip_candidates(sets, d / "oracle.jsonl")
        assert (d / "table.jsonl").read_bytes() == \
            (d / "oracle.jsonl").read_bytes()
        # the sets come back in (frame, object_id) order
        assert same_table(load_tip_candidates(d / "table.jsonl"),
                          candidate_table(dict(sorted(sets.items()))))

    def test_candidates_load_as_columns(self, tmp_path):
        cands = {
            (3, 2): CandidateSet(
                candidates=[(1.0, 2.0, np.array([0.5, 0.5])),
                            (3.0, 4.0, np.array([1.0, 0.0]))],
                bbox=(10.0, 20.0, 40.0, 40.0)),
            (3, 1): CandidateSet(
                candidates=[(5.0, 6.0, np.array([0.25, 0.0]))],
                bbox=(0.0, 0.0, 1.0, 2.0)),
            (0, 7): CandidateSet(
                candidates=[(0.0, 0.0, np.array([0.0, 1.0]))],
                bbox=(1.0, 1.0, 3.0, 3.0)),
        }
        p = tmp_path / "cands.jsonl"
        save_tip_candidates(candidate_table(cands), p)
        table = load_tip_candidates(p)
        # file order, which is sorted key order
        assert table.set_keys.tolist() == [[0, 7], [3, 1], [3, 2]]
        assert table.offsets.tolist() == [0, 1, 2, 4]
        assert table.points.tolist() == [[0.0, 0.0], [5.0, 6.0], [1.0, 2.0],
                                         [3.0, 4.0]]
        assert table.descriptors.tolist() == [[0.0, 1.0], [0.25, 0.0],
                                              [0.5, 0.5], [1.0, 0.0]]
        assert table.boxes.tolist() == [[1.0, 1.0, 3.0, 3.0],
                                        [0.0, 0.0, 1.0, 2.0],
                                        [10.0, 20.0, 40.0, 40.0]]

    @pytest.mark.parametrize("fault, reason", [
        ({"bbox": None},
         "has no finite crop box of positive width and height"),
        ({"bbox": (0.0, 0.0, 0.0, 2.0)},
         "has no finite crop box of positive width and height"),
        ({"candidates": []}, "has no tip candidates"),
        ({"candidates": [(0.0, 0.0, np.array([1.0, 0.0])),
                         (1.0, 1.0, np.array([0.0, 0.0]))]},
         "has a zero-norm descriptor"),
        ({"candidates": [(0.0, 0.0, np.array([1e-200, 0.0]))]},
         "has a zero-norm descriptor"),
        ({"candidates": [(math.inf, 0.0, np.array([1.0, 0.0]))]},
         "has a candidate point that is not finite"),
    ], ids=["no-box", "zero-width-box", "empty", "zero-descriptor",
            "underflowing-descriptor", "infinite-point"])
    def test_writer_refuses_what_the_loader_refuses(self, tmp_path, fault,
                                                    reason):
        # a good set first, so the refused one is the second written
        good = CandidateSet(candidates=[(0.0, 0.0, np.array([1.0, 0.0]))],
                            bbox=(0.0, 0.0, 2.0, 2.0))
        cands = {(0, 1): good, (2, 5): good._replace(**fault)}
        p = tmp_path / "cands.jsonl"
        with pytest.raises(ValueError) as caught:
            save_tip_candidates(candidate_table(cands), p)
        assert str(caught.value) == f"tip candidate set (frame 2, object 5) {reason}"
        assert list(tmp_path.iterdir()) == []
        # the loader refuses the same set at its line
        oracle_save_tip_candidates(cands, p)
        with pytest.raises(ParseError) as caught:
            load_tip_candidates(p)
        assert caught.value.line_no == 2

    @pytest.mark.parametrize("lines, line_no, reason", [
        (["good", "zero", "not json"], 2, "zero-norm descriptor at candidate 1"),
        (["good", "not json", "zero"], 2, "invalid JSON"),
        # a set refused while it is read is not one of the sets read
        (["good", "zero with a bad point", "zero"], 2,
         "candidate point (inf, 0.0) is not finite"),
        (["good", "zero", "good again"], 2,
         "zero-norm descriptor at candidate 1"),
    ])
    def test_loader_names_the_first_bad_line(self, tmp_path, lines, line_no,
                                             reason):
        def record(frame, descriptors, x=0.0):
            return json.dumps({
                "frame": frame, "object_id": 1, "x": 0.0, "y": 0.0, "w": 2.0,
                "h": 2.0, "candidates": [{"x": x, "y": 0.0, "descriptor": d}
                                         for d in descriptors]})

        text = {"good": record(0, [[1.0, 0.0]]),
                "zero": record(1, [[1.0, 0.0], [0.0, 0.0]]),
                "not json": "{",
                "zero with a bad point": record(2, [[0.0, 0.0]], math.inf),
                "good again": record(3, [[0.0, 1.0]])}
        p = tmp_path / "cands.jsonl"
        p.write_text("".join(text[name] + "\n" for name in lines))
        with pytest.raises(ParseError) as caught:
            load_tip_candidates(p)
        assert caught.value.line_no == line_no
        assert caught.value.reason.startswith(reason)

    def test_writer_refuses_a_repeated_key(self, tmp_path):
        good = CandidateSet(candidates=[(0.0, 0.0, np.array([1.0]))],
                            bbox=(0.0, 0.0, 2.0, 2.0))
        table = candidate_table({(0, 1): good, (2, 5): good})
        table.set_keys[1] = (0, 1)
        with pytest.raises(ValueError, match=r"^tip candidate set \(frame 0, "
                           r"object 1\) has a repeated \(frame, object_id\)$"):
            save_tip_candidates(table, tmp_path / "cands.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_descriptors_round_trip(self, tmp_path):
        refs = {
            InstrumentClass.NEEDLE: np.array([1.0, 2.0, 3.0]),
            InstrumentClass.SCISSORS_S: np.array([0.0, 0.125, 0.0]),
        }
        p = tmp_path / "refs.json"
        save_reference_descriptors(refs, p)
        loaded = load_reference_descriptors(p)
        assert set(loaded) == set(refs)
        for cls in refs:
            assert np.array_equal(loaded[cls], refs[cls])

    def test_zero_descriptor_rejected(self, tmp_path):
        # 1e-200 is nonzero, but its square underflows to a zero norm
        p = tmp_path / "refs.json"
        for vector in ("[0.0, 0.0]", "[1e-200, 0.0]", "[]"):
            p.write_text('{\n "needle": ' + vector + '\n}\n')
            with pytest.raises(ParseError) as caught:
                load_reference_descriptors(p)
            assert str(caught.value) == (
                f"{p}:2: class 'needle': the descriptor must be a vector of "
                "nonzero norm")


BOX = '"y": 0, "w": 2, "h": 2'
TRUTH = '{"frame": 0, "object_id": 1, "class": "needle", "x": 0, ' + BOX + '}'
TRACK_ROW = '{"frame": 0, "object_id": 1, "class": "needle", "x": 0, ' + BOX + ', "det_index": 0}'
# a candidate set without its crop box, and with it
CANDS_NO_BOX = ('{"frame": 0, "object_id": 1, "candidates": [{"x": 0, "y": 0, '
                '"descriptor": [0.0, 1.0]}, {"x": 1, "y": 1, '
                '"descriptor": [1.0, 0.0]}]}')
CANDS = CANDS_NO_BOX[:-1] + ', "x": 0, ' + BOX + '}'


SEGMENTS = "index,start_frame,end_frame,cluster,action,duration_s\n"


@pytest.mark.parametrize("load, text, line_no", [
    (load_matrix, "a,b\n1.0,2.0\n3.0\n", 3),
    (load_matrix, "a,b\n1.0,abc\n", 2),
    # a field over csv.field_size_limit(); load_matrix falls back to the
    # checked reader for a line that long
    (load_matrix, "a,b\n1.0,2.0\n" + "0" * 140_000 + "1,2\n", 3),
    (load_boundaries, "tau,prominence\n" + "0" * 140_000 + "10,0.5\n", 2),
    (load_novelty, "frame,N\n0,0.5\n\n2\n", 4),
    (load_boundaries, "tau,prominence\n10,0.5\nx,0.1\n", 3),
    (load_segments, SEGMENTS + "0,0,50,2\n", 2),
    (load_segments, SEGMENTS + "0,0,5,0,Cutting,1.0\n1,5,3,0,Cutting,0.4\n", 3),
    (load_segments, SEGMENTS + "0,0,5,0,Cutting,1.0\n1,4,9,0,Cutting,1.0\n", 3),
    (load_segments, SEGMENTS + "0,0,5,0,Cutting,1.0\n2,5,9,0,Cutting,0.8\n", 3),
    (load_segments, SEGMENTS + "0,1,5,0,Cutting,0.8\n", 2),
    (load_boundaries, "tau,prominence\n10,0.5\n5,0.1\n", 3),
    (load_boundaries, "tau,prominence\n10,0.5\n10,0.1\n", 3),
    (load_boundaries, "tau,prominence\n0,0.5\n", 2),
    (load_truth_instances, TRUTH + "\n" + TRUTH.replace('"x": 0', '"x": [0]') + "\n", 2),
    (load_track_rows, TRACK_ROW.replace('"x": 0', '"x": [0, 1]') + "\n", 1),
    (load_tip_candidates, CANDS + "\n" + CANDS.replace("[1.0, 0.0]", "[1.0]")
     + "\n", 2),
    (load_tip_candidates, CANDS + "\n" + CANDS.replace('"frame": 0', '"frame": 1')
     + "\n" + CANDS + "\n", 3),
], ids=["matrix-truncated", "matrix-non-numeric", "matrix-field-too-long",
        "boundaries-field-too-long", "novelty-truncated",
        "boundaries-non-numeric", "segments-truncated",
        "segments-end-before-start", "segments-overlap", "segments-index-gap",
        "segments-not-from-0", "boundaries-out-of-order",
        "boundaries-repeated", "boundaries-at-0", "truth-list-x",
        "track-rows-list-x", "candidates-descriptor-length",
        "candidates-repeated-key"])
def test_malformed_row_names_file_and_line(tmp_path, load, text, line_no):
    p = tmp_path / "artifact"
    p.write_text(text)
    with pytest.raises(ParseError) as exc:
        load(p)
    assert exc.value.line_no == line_no
    assert str(exc.value).startswith(f"{p}:{line_no}: ")


@pytest.mark.parametrize("load, line", [
    (load_detections, '{"frame": 0, "class": "needle", "conf": 0.5, BOX}'),
    (load_truth_instances, TRUTH.replace('"x": 0, ' + BOX, "BOX")),
    (load_track_rows, TRACK_ROW.replace('"x": 0, ' + BOX, "BOX")),
    (load_refined_tracks, '{"frame": 0, "object_id": 1, "class": "needle", '
                          'BOX, "provenance": "detected"}'),
    (load_tip_candidates, CANDS_NO_BOX[:-1] + ", BOX}"),
], ids=["detections", "truth", "track-rows", "refined", "candidate-crop"])
@pytest.mark.parametrize("box", [
    '"x": NaN, "y": 0, "w": 2, "h": 2', '"x": 0, "y": Infinity, "w": 2, "h": 2',
    '"x": 0, "y": 0, "w": NaN, "h": 2', '"x": 0, "y": 0, "w": 0, "h": 2',
    '"x": 0, "y": 0, "w": 2, "h": -1',
], ids=["nan-x", "inf-y", "nan-w", "zero-w", "negative-h"])
def test_every_box_loader_applies_the_box_rule(tmp_path, load, line, box):
    # the good line first, so the error must name line 2
    p = tmp_path / "artifact"
    good = line.replace("BOX", '"x": 0, "y": 0, "w": 2, "h": 2')
    p.write_text(good + "\n" + line.replace("BOX", box).replace(
        '"frame": 0', '"frame": 1') + "\n")
    with pytest.raises(ParseError, match="bbox") as exc:
        load(p)
    assert exc.value.line_no == 2
    p.write_text(good + "\n")
    load(p)


@pytest.mark.parametrize("load, text", [
    (load_detections, '{"frame": 0, "class": "needle", "conf": 0.5, '
                      '"x": 0, "y": 0, "w": 2, "h": 2}\n' * 400),
    (load_labels, "frame,action\n" + "".join(f"{i},Cutting\n"
                                              for i in range(400))),
    (load_matrix, "a,b\n" + "1.0,2.0\n" * 400),
    (load_reference_descriptors,
     json.dumps({"needle": [1.0] + [0.0] * 400}, indent=1)),
], ids=["jsonl", "csv", "matrix", "json"])
@pytest.mark.parametrize("line_no", [3, 300])
def test_invalid_utf8_names_file_and_line(tmp_path, load, text, line_no):
    # a lone 0xff, or a multi-byte sequence cut short; at line 300 it lies
    # past the first 8 KiB that a streaming decoder takes in one chunk
    p = tmp_path / "artifact"
    lines = text.encode("utf-8").split(b"\n")
    at = line_no - 1
    for bad, reason in ((b"\xff", "invalid start byte"),
                        (b"\xc3(", "invalid continuation byte")):
        lines_bad = lines[:at] + [lines[at][:1] + bad + lines[at][1:]]
        p.write_bytes(b"\n".join(lines_bad + lines[at + 1:]))
        with pytest.raises(ParseError) as exc:
            load(p)
        assert str(exc.value) == (f"{p}:{line_no}: not UTF-8: "
                                  f"byte 0x{bad[0]:02x} ({reason})")


def test_unknown_action_is_the_enum_error(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("frame,action\n0,Cutting\n1,Sewing\n")
    with pytest.raises(ParseError) as exc:
        load_labels(p)
    with pytest.raises(ValueError) as enum_error:
        ActionClass("Sewing")
    assert str(exc.value) == (f"{p}:3: bad row ['1', 'Sewing']: "
                              f"{enum_error.value}")


def test_parse_error_pickles_intact():
    err = pickle.loads(pickle.dumps(ParseError("a/detections.jsonl", 2, "bad")))
    assert type(err) is ParseError
    assert (err.path, err.line_no, err.reason) == ("a/detections.jsonl", 2, "bad")
    assert err.stage is None
    assert str(err) == "a/detections.jsonl:2: bad"
    err = pickle.loads(pickle.dumps(ParseError("a/features.csv", 3, "bad",
                                               "features")))
    assert err.stage == "features"
    assert str(err) == ("a/features.csv:3: bad "
                        "(written by the 'features' stage)")


class TestMatrixCurves:
    def test_matrix_round_trip_with_meta(self, tmp_path):
        X = np.array([[1.0, -2.5], [math.pi, 1e-17]])
        p = tmp_path / "features.csv"
        save_matrix(X, ["a", "b"], p)
        X2, names = load_matrix(p)
        assert np.array_equal(X, X2)
        assert names == ["a", "b"]
        meta = {"native_fps": 30.0, "effective_fps": 5.0, "downsample": 6,
                "n_frames_native": 12, "instrument_ids": [0, 4],
                "mask_classes": ["scissors_c", None]}
        io.save_json(meta, tmp_path / "features.csv.meta.json")
        loaded = io.load_features_meta(tmp_path / "features.csv.meta.json")
        assert loaded == meta
        assert list(loaded) == sorted(meta)  # the file holds keys sorted

    def test_writers_match_per_value_format(self, tmp_path):
        # the writers format X.tolist() with repr; the bytes must be what
        # formatting every float64 with _fmt gave, special values included
        values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300,
                  5e-324, -2.5e-320, 2.2250738585072014e-308, 1.0 / 3.0,
                  0.1, 1e-17, 123456789.0, 2.0 ** 53, -7.0]
        X = np.array(values).reshape(4, 4)
        names = ["a", "b", "c", "d"]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_matrix(X, names, got)
        io._write_csv(want, names, ([io._fmt(v) for v in row] for row in X))
        assert got.read_bytes() == want.read_bytes()
        back = load_matrix(got)[0]
        assert np.array_equal(back, X, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(X))

        curve = np.array(values)
        save_novelty(curve, got)
        io._write_csv(want, ["frame", "N"],
                      ([f, io._fmt(v)] for f, v in enumerate(curve)))
        assert got.read_bytes() == want.read_bytes()

    def test_matrix_shape_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            save_matrix(np.zeros((2, 3)), ["a", "b"], tmp_path / "X.csv")

    def test_novelty_round_trip(self, tmp_path):
        n = np.array([0.0, 0.5, 1.0 / 3.0, 0.0])
        p = tmp_path / "nov.csv"
        save_novelty(n, p)
        assert np.array_equal(load_novelty(p), n)

    def test_boundaries_round_trip(self, tmp_path):
        p = tmp_path / "bnd.csv"
        save_boundaries([10, 25], [0.7, 0.3], p)
        assert load_boundaries(p) == ([10, 25], [0.7, 0.3])

    def test_segments_round_trip(self, tmp_path):
        rows = [
            {"index": 0, "start_frame": 0, "end_frame": 50, "cluster": 2,
             "action": "Cutting", "duration_s": 10.0},
            {"index": 1, "start_frame": 50, "end_frame": 80, "cluster": 0,
             "action": "NoAction", "duration_s": 6.0},
        ]
        p = tmp_path / "segs.csv"
        save_segments(rows, p)
        assert load_segments(p) == rows


# The writers below format their lines themselves.  Each oracle is the
# writer's earlier body, which built a record per row and handed it to
# the stdlib JSON encoder or csv.writer; the bytes must be the same.


def _oracle_save_track_rows(rows, path):
    io._write_jsonl(path, ({"frame": r.frame, "object_id": r.object_id,
                            "class": r.class_id.value,
                            **io._box_fields(r.bbox),
                            "det_index": r.det_index} for r in rows))


def _oracle_save_refined_tracks(tracks, path):
    rows = [{"frame": frame, "object_id": tr.object_id,
             "class": tr.class_id.value, **io._box_fields(tr.boxes[frame]),
             "provenance": tr.provenance[frame].value}
            for tr in tracks for frame in tr.frames()]
    rows.sort(key=lambda r: (r["frame"], r["object_id"]))
    io._write_jsonl(path, rows)


def _oracle_save_tips(trajectories, path):
    T = max((len(tr) for tr in trajectories), default=0)

    def rows():
        for frame in range(T):
            for tr in trajectories:
                p = tr.points[frame] if frame < len(tr) else None
                if p is None:
                    yield [frame, tr.instrument_id, 0, "0.0", "0.0"]
                else:
                    yield [frame, tr.instrument_id, 1, io._fmt(p[0]),
                           io._fmt(p[1])]

    io._write_csv(path, io.TIPS_HEADER, rows())


def _oracle_save_matrix(X, feature_names, path):
    X = np.asarray(X, dtype=np.float64)
    io._write_csv(path, list(feature_names),
                  (map(repr, row) for row in X.tolist()))


_edge_float = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0 / 3.0,
                     math.nan, math.inf, -math.inf, 1e308, 2.0 ** 53]))
# a box component as the pipeline may hold it: a float, a float64 or an int
_box_value = st.one_of(_edge_float, _edge_float.map(np.float64),
                       st.integers(-10 ** 6, 10 ** 6))
_box = st.tuples(_box_value, _box_value, _box_value, _box_value)
# a box the track loaders take: finite, with positive width and height
_finite = _box_value.filter(math.isfinite)
_positive = _finite.filter(lambda v: v > 0)
_valid_box = st.tuples(_finite, _finite, _positive, _positive)
_ids = st.integers(-5, 10 ** 9)


def _track_rows(box):
    return st.lists(st.builds(
        TrackObservation, frame=_ids, object_id=_ids,
        class_id=st.sampled_from(list(InstrumentClass)), bbox=box,
        det_index=st.one_of(st.none(), st.just(0), st.integers(0, 10 ** 6))),
        max_size=8)


@st.composite
def _refined_tracks(draw, box=_valid_box, unique_ids=False):
    tracks = []
    # object ids repeat unless ``unique_ids``, so the sort's tie order is
    # checked too
    for oid in draw(st.lists(st.integers(0, 4), max_size=4,
                             unique=unique_ids)):
        frames = draw(st.lists(st.integers(0, 12), unique=True,
                               min_size=int(unique_ids), max_size=6))
        tracks.append(RefinedTrack(
            oid, draw(st.sampled_from(list(InstrumentClass))),
            boxes={f: draw(box) for f in frames},
            provenance={f: draw(st.sampled_from(list(Provenance)))
                        for f in frames}))
    return tracks


_tip_point = st.one_of(st.none(), st.tuples(_box_value, _box_value))
_trajectories = st.lists(st.builds(
    TipTrajectory, instrument_id=st.integers(0, 20),
    points=st.lists(_tip_point, max_size=8)),
    max_size=4)
# header names holding what csv quotes
_name = st.one_of(st.text(st.characters(blacklist_categories=("Cs",)),
                          max_size=6),
                  st.sampled_from(["a,b", 'say "x"', '"', ",", "a\nb", ""]))


@st.composite
def _named_matrices(draw):
    n, k = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    X = np.array(draw(st.lists(_edge_float, min_size=n * k, max_size=n * k)),
                 dtype=np.float64).reshape(n, k)
    return X, draw(st.lists(_name, min_size=k, max_size=k))


class TestWritersMatchTheirOracles:
    @staticmethod
    def _same_bytes(tmp_path_factory, write, oracle, *args):
        d = tmp_path_factory.mktemp("writer")
        write(*args, d / "got")
        oracle(*args, d / "want")
        assert (d / "got").read_bytes() == (d / "want").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(rows=_track_rows(_valid_box))
    def test_track_rows(self, tmp_path_factory, rows):
        self._same_bytes(tmp_path_factory, save_track_rows,
                         _oracle_save_track_rows, rows)

    @settings(max_examples=200, deadline=None)
    @given(tracks=_refined_tracks())
    def test_refined_tracks(self, tmp_path_factory, tracks):
        self._same_bytes(tmp_path_factory, save_refined_tracks,
                         _oracle_save_refined_tracks, tracks)

    @settings(max_examples=200, deadline=None)
    @given(trajectories=_trajectories)
    def test_tips(self, tmp_path_factory, trajectories):
        self._same_bytes(tmp_path_factory, save_tips, _oracle_save_tips,
                         trajectories)

    @settings(max_examples=200, deadline=None)
    @given(matrix=_named_matrices())
    def test_matrix(self, tmp_path_factory, matrix):
        self._same_bytes(tmp_path_factory, save_matrix, _oracle_save_matrix,
                         *matrix)

    def test_every_enum_value_and_no_rows(self, tmp_path_factory):
        box = (-0.0, 5e-324, 1e300, 1.0 / 3.0)
        rows = [TrackObservation(i, i, cls, box, det)
                for i, cls in enumerate(InstrumentClass)
                for det in (None, 0)]
        tracks = [RefinedTrack(i, cls, boxes={0: box, 1: box},
                               provenance={0: prov, 1: prov})
                  for i, (cls, prov) in enumerate(
                      zip(InstrumentClass, [*Provenance, *Provenance]))]
        for write, oracle, value in [
                (save_track_rows, _oracle_save_track_rows, rows),
                (save_track_rows, _oracle_save_track_rows, []),
                (save_refined_tracks, _oracle_save_refined_tracks, tracks),
                (save_refined_tracks, _oracle_save_refined_tracks, []),
                (save_tips, _oracle_save_tips, []),
                (save_tips, _oracle_save_tips,
                 [TipTrajectory(0, [])])]:
            self._same_bytes(tmp_path_factory, write, oracle, value)
        self._same_bytes(tmp_path_factory, save_matrix, _oracle_save_matrix,
                         np.zeros((0, 2)), ["a,b", 'c"d'])


def _loadable(box) -> bool:
    x, y, w, h = map(float, box)
    return all(map(math.isfinite, (x, y, w, h))) and w > 0 and h > 0


def _floats(box) -> tuple:
    return tuple(map(float, box))


class TestTrackWritersRoundTrip:
    """What a track writer writes, its loader reads back; a box the loader
    would refuse is a ValueError, and the previous file stays."""

    @staticmethod
    def _check(tmp_path_factory, save, load, value, loadable, want):
        p = tmp_path_factory.mktemp("tracks") / "tracks.jsonl"
        p.write_bytes(b"previous\n")
        if loadable:
            save(value, p)
            assert load(p) == want
        else:
            with pytest.raises(ValueError, match="bbox"):
                save(value, p)
            assert [q.name for q in p.parent.iterdir()] == [p.name]
            assert p.read_bytes() == b"previous\n"

    @settings(max_examples=200, deadline=None)
    @given(rows=_track_rows(st.one_of(_valid_box, _box)))
    def test_track_rows(self, tmp_path_factory, rows):
        want = sorted((dataclasses.replace(r, bbox=_floats(r.bbox))
                       for r in rows), key=lambda r: r.frame)
        self._check(tmp_path_factory, save_track_rows, load_track_rows, rows,
                    all(_loadable(r.bbox) for r in rows), want)

    @settings(max_examples=200, deadline=None)
    @given(tracks=_refined_tracks(st.one_of(_valid_box, _box),
                                  unique_ids=True))
    def test_refined_tracks(self, tmp_path_factory, tracks):
        want = [RefinedTrack(tr.object_id, tr.class_id,
                             {f: _floats(b) for f, b in tr.boxes.items()},
                             tr.provenance)
                for tr in sorted(tracks, key=lambda tr: tr.object_id)]
        self._check(tmp_path_factory, save_refined_tracks,
                    load_refined_tracks, tracks,
                    all(_loadable(b) for tr in tracks
                        for b in tr.boxes.values()), want)


# load_matrix parses with numpy's C reader and falls back to the checked
# row-by-row reader, _load_matrix_checked, which is the oracle here.
_matrix_value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0,
                     5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308,
                     -1.7976931348623157e308, 1e-308]))
# tokens on which float() and numpy's reader could disagree: whitespace,
# case, digit separators, quotes, comments, other scripts' digits
_odd_token = st.sampled_from([
    "1_0", '"1"', "", " ", "#", "#1", "\u0661", "\uff11", "1\u0663",
    "0x10", "nan(1)", "+inf", "-Infinity", "NAN", "1e-400", "1e400", " 1 ",
    "\t2", "\x0c1", "1\x0b", "\xa03", "4\u2003", "1\x1c", "\x1f1",
    "1\x1c\xa0", "1\x00", "1.", ".5", "1e5", "1E+05", "- 1", "1 2", "--1",
    "1,", "\r", "\"1\n2\"", "\u22121", "1d5", "1e", "e1", ".", "inf1"])
_matrix_line = st.one_of(
    st.just(""),
    st.sampled_from([" ", "\t", "#", "#x,y", '""']),
    st.lists(st.one_of(_matrix_value.map(repr), _odd_token),
             min_size=0, max_size=5).map(",".join))


@st.composite
def _matrix_files(draw, valid_only=False):
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(_matrix_value, min_size=width, max_size=width).map(
            lambda row: ",".join(map(repr, row))), max_size=6))
    if not valid_only:
        for _ in range(draw(st.integers(0, 3))):
            rows.insert(draw(st.integers(0, len(rows))), draw(_matrix_line))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from([newline, ""]))
    header = ",".join(f"c{i}" for i in range(width))
    return newline.join([header] + rows) + end


def _check_matrix_against_oracle(path, text):
    io._MATRIX_MEMO.clear()  # per hypothesis example: parse, not recall
    path.write_bytes(text.encode("utf-8"))
    try:
        want = io._load_matrix_checked(path)
    except Exception as exc:  # a ParseError
        with pytest.raises(type(exc)) as got:
            load_matrix(path)
        assert str(got.value) == str(exc)
        assert getattr(got.value, "line_no", None) == getattr(exc, "line_no",
                                                              None)
        return
    X, header = load_matrix(path)
    assert header == want[1]
    assert X.shape == want[0].shape and X.dtype == want[0].dtype
    assert X.tobytes() == want[0].tobytes()


class TestMatrixFastPath:
    @settings(max_examples=300, deadline=None)
    @given(text=_matrix_files())
    def test_agrees_with_the_checked_reader(self, tmp_path_factory, text):
        _check_matrix_against_oracle(
            tmp_path_factory.mktemp("matrix") / "X.csv", text)

    @settings(max_examples=100, deadline=None)
    @given(text=_matrix_files(valid_only=True))
    def test_valid_files_never_fall_back(self, tmp_path_factory, text):
        io._MATRIX_MEMO.clear()  # per hypothesis example: parse, not recall
        p = tmp_path_factory.mktemp("matrix") / "X.csv"
        p.write_bytes(text.encode("utf-8"))
        want = io._load_matrix_checked(p)
        if len(want[0]) == 0:
            return  # a header alone has no data for numpy's reader
        with pytest.MonkeyPatch.context() as m:
            m.setattr(io, "_load_matrix_checked", None)
            X, header = load_matrix(p)
        assert header == want[1] and X.tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("text", [
        "", "\n", "a,b\n", "a,b\n1\n", "a,b\n1\n2\n", "a\n1_0\n",
        "a\n1\x1c\n", "a\n\x1e1\n", "a,b\n1,2\n#3,4\n",
        "a\n" + "0" * 140_000 + "1\n", "a\n1\n\n \n", "a\r\n1\r\n\r\n",
        "\n1\n", '"a,b"\n1,2\n', "a\n\uff11\n", "a\n1\x85\n"])
    def test_edge_files(self, tmp_path, text):
        _check_matrix_against_oracle(tmp_path / "X.csv", text)


# load_labels and load_novelty split a file as their writers lay it out at
# C speed and fall back to the csv module's reader; the oracles are their
# csv bodies.  The writers' oracles are their csv.writer bodies.


def _oracle_save_labels(labels, path):
    io._write_csv(path, ["frame", "action"],
                  ([frame, ActionClass(action).value]
                   for frame, action in enumerate(labels)))


def _oracle_save_novelty(novelty, path):
    values = np.asarray(novelty, dtype=np.float64).tolist()
    io._write_csv(path, ["frame", "N"], enumerate(map(repr, values)))


def _oracle_load_labels(path):
    _, rows = io._read_csv(path, ["frame", "action"],
                           lambda row: (int(row[0]), ActionClass(row[1])))
    rows.sort(key=lambda r: r[0])
    frames = [f for f, _ in rows]
    if frames != list(range(len(frames))):
        raise ValueError(f"{path}: labels must cover frames 0..T-1 exactly once")
    return [a for _, a in rows]


def _oracle_load_novelty(path):
    values = []

    def parse(row):
        if int(row[0]) != len(values):
            raise ValueError(f"frame {row[0]} where frame {len(values)} "
                             f"belongs")
        values.append(float(row[1]))

    io._read_csv(path, ["frame", "N"], parse)
    return np.asarray(values, dtype=np.float64)


_label_text = st.one_of(
    st.sampled_from([a.value for a in ActionClass]),
    st.sampled_from(["Sewing", "", " Cutting", "cutting", "NoAction ",
                     '"KnotTying"', "Cutting\x00", "No,Action", "\xe9"]))
_novelty_text = st.one_of(_matrix_value.map(repr), _odd_token)
_frame_text = st.sampled_from(["01", " 1", "+1", "1_0", "x", "-1", "", "1.0",
                               "\uff11", "1 "])


@st.composite
def _frame_files(draw, header, value):
    """Bytes of a `frame, value` file: mostly as its writer lays it out,
    sometimes with rows out of order, odd frames or fields, blank lines,
    another header or line ending, or a byte that is not UTF-8."""
    rows = [[str(i), draw(value)] for i in range(draw(st.integers(0, 8)))]
    if rows and draw(st.booleans()):
        rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            at = draw(st.integers(0, len(rows) - 1))
            change = draw(st.sampled_from(["frame", "extra", "short", "blank",
                                           "quote"]))
            if change == "frame":
                rows[at][:1] = [draw(_frame_text)]
            elif change == "extra":
                rows[at].append(draw(value))
            elif change == "short":
                rows[at] = rows[at][:1]
            elif change == "blank":
                rows.insert(at, [])
            else:
                rows[at] = [f'"{f}"' for f in rows[at]]
    head = draw(st.sampled_from([",".join(header), " ,".join(header),
                                 ",".join(header).upper(), header[0]]))
    newline = draw(st.sampled_from(["\r\n", "\r\n", "\n", "\r"]))
    end = draw(st.sampled_from([newline, newline, "", "\n\r\n"]))
    raw = (newline.join([head] + [",".join(r) for r in rows]) + end
           ).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3("])) + raw[at:]
    return raw


def _same_outcome(load, oracle, path, raw, same):
    path.write_bytes(raw)
    try:
        want = oracle(path)
    except ValueError as exc:  # a ParseError, or labels not covering 0..T-1
        with pytest.raises(ValueError) as got:
            load(path)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    assert same(load(path), want)


def _same_curve(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestFrameTables:
    @settings(max_examples=400, deadline=None)
    @given(raw=_frame_files(["frame", "action"], _label_text))
    def test_labels_reader_agrees_with_csv(self, tmp_path_factory, raw):
        _same_outcome(load_labels, _oracle_load_labels,
                      tmp_path_factory.mktemp("labels") / "labels.csv", raw,
                      lambda got, want: got == want and all(
                          type(a) is ActionClass for a in got))

    @settings(max_examples=400, deadline=None)
    @given(raw=_frame_files(["frame", "N"], _novelty_text))
    def test_novelty_reader_agrees_with_csv(self, tmp_path_factory, raw):
        _same_outcome(load_novelty, _oracle_load_novelty,
                      tmp_path_factory.mktemp("novelty") / "novelty.csv", raw,
                      _same_curve)

    @pytest.mark.parametrize("load, oracle, text", [
        (load_labels, _oracle_load_labels, "frame,action\n0,Cutting\n"),
        (load_labels, _oracle_load_labels,
         "frame,action\r\n1,Cutting\r\n0,NoAction\r\n"),
        (load_labels, _oracle_load_labels,
         "frame,action\r\n0,Cutting\r\n1,Sewing\r\n"),
        (load_labels, _oracle_load_labels,
         "frame,action\r\n0,Cutting,1\r\nNoAction\r\n"),
        (load_labels, _oracle_load_labels, "frame,action\r\n"),
        (load_novelty, _oracle_load_novelty, "frame,N\r\n0,0.5\r\n2,1.0\r\n"),
        (load_novelty, _oracle_load_novelty, "frame,N\r\n0,0.5,1\r\n2\r\n"),
        (load_novelty, _oracle_load_novelty, "frame,N\r\n0,1.5\n\r\n"),
        (load_novelty, _oracle_load_novelty, "frame,N\r\n0,\n1.5\r\n"),
        (load_novelty, _oracle_load_novelty,
         "frame,N\r\n0," + "0" * 140_000 + "1\r\n"),
        (load_novelty, _oracle_load_novelty, "frame,N\r\n0,x\r\n"),
    ], ids=["labels-lf", "labels-shuffled", "labels-unknown-action",
            "labels-width-realigned", "labels-empty", "novelty-gap",
            "novelty-width-realigned", "novelty-bare-lf", "novelty-split-row",
            "novelty-field-too-long", "novelty-not-a-float"])
    def test_edge_files(self, tmp_path, load, oracle, text):
        same = _same_curve if load is load_novelty else (
            lambda got, want: got == want)
        _same_outcome(load, oracle, tmp_path / "artifact",
                      text.encode("utf-8"), same)

    @settings(max_examples=100, deadline=None)
    @given(labels=st.lists(st.sampled_from(
               [*ActionClass, *(a.value for a in ActionClass)]), max_size=30),
           curve=st.lists(_matrix_value, max_size=30))
    def test_written_files_never_fall_back(self, tmp_path_factory, labels,
                                           curve):
        d = tmp_path_factory.mktemp("frames")
        save_labels(labels, d / "labels.csv")
        save_novelty(curve, d / "novelty.csv")
        with pytest.MonkeyPatch.context() as m:
            m.setattr(io, "_read_csv", None)
            got_labels = load_labels(d / "labels.csv")
            got_curve = load_novelty(d / "novelty.csv")
        assert got_labels == [ActionClass(a) for a in labels]
        assert _same_curve(got_curve, _oracle_load_novelty(d / "novelty.csv"))

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.sampled_from(
               [*ActionClass, *(a.value for a in ActionClass)]), max_size=30),
           curve=st.lists(_matrix_value, max_size=30))
    def test_writers_match_csv_writer(self, tmp_path_factory, labels, curve):
        for write, oracle, value in [
                (save_labels, _oracle_save_labels, labels),
                (save_novelty, _oracle_save_novelty, curve),
                (save_novelty, _oracle_save_novelty,
                 np.array(curve, dtype=np.float64))]:
            TestWritersMatchTheirOracles._same_bytes(
                tmp_path_factory, write, oracle, value)

    def test_unknown_label_is_the_enum_error(self, tmp_path):
        for write in (save_labels, _oracle_save_labels):
            with pytest.raises(ValueError) as exc:
                write([ActionClass.CUTTING, "Sewing"], tmp_path / "labels.csv")
            assert "'Sewing' is not a valid ActionClass" in str(exc.value)
        assert not (tmp_path / "labels.csv").exists()


def test_novelty_frames_out_of_order_name_the_segment_stage(tmp_path):
    # frames are checked, so a curve shifted by a lost row is refused, at
    # the row that shows it, as the 'segment' stage's file
    p = tmp_path / "novelty.csv"
    p.write_bytes(b"frame,N\r\n0,0.5\r\n2,0.25\r\n1,0.75\r\n")
    with pytest.raises(ParseError) as exc:
        pipeline._load(tmp_path, "novelty", None)
    assert (exc.value.line_no, exc.value.stage) == (3, "segment")
    assert str(exc.value) == (f"{p}:3: bad row ['2', '0.25']: frame 2 where "
                              f"frame 1 belongs (written by the 'segment' "
                              f"stage)")


def test_fallback_parses_the_bytes_it_read(tmp_path, monkeypatch):
    # numpy's reader rejects the quotes, so the checked reader parses; the
    # file is replaced before it does, and the matrix is still the one read
    p = tmp_path / "X.csv"
    p.write_text('a\n"1"\n')
    checked = io._load_matrix_checked

    def replaced_first(path, raw=None):
        p.write_text('a\n"2"\n')
        return checked(path, raw)

    monkeypatch.setattr(io, "_load_matrix_checked", replaced_first)
    X, header = load_matrix(p)
    assert header == ["a"] and X.tolist() == [[1.0]]


class TestMatrixMemo:
    """io.load_matrix parses each distinct content once per process."""

    def test_returns_copies(self, tmp_path, matrix_parses):
        p = tmp_path / "X.csv"
        save_matrix(np.arange(6.0).reshape(3, 2), ["a", "b"], p)
        X, header = load_matrix(p)
        X[0, 0] = 99.0
        header[0] = "z"
        header.append("c")
        X, header = load_matrix(p)
        assert X.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        assert header == ["a", "b"] and X.flags.writeable
        X[0, 0] = 99.0
        assert load_matrix(p)[0][0, 0] == 0.0
        assert matrix_parses == [p]

    def test_same_bytes_under_two_paths_parse_once(self, tmp_path,
                                                   matrix_parses):
        p, q = tmp_path / "p.csv", tmp_path / "q.csv"
        save_matrix(np.eye(3), ["a", "b", "c"], p)
        q.write_bytes(p.read_bytes())
        X, header = load_matrix(p)
        Y, header_q = load_matrix(q)
        assert matrix_parses == [p]
        assert header == header_q and X.tobytes() == Y.tobytes()

    def test_rewritten_file_parses_again(self, tmp_path, matrix_parses):
        p = tmp_path / "X.csv"
        save_matrix(np.zeros((2, 2)), ["a", "b"], p)
        load_matrix(p)
        save_matrix(np.ones((2, 2)), ["a", "b"], p)
        assert load_matrix(p)[0].tolist() == [[1.0, 1.0], [1.0, 1.0]]
        assert matrix_parses == [p, p]

    @pytest.mark.parametrize("text", ["a,b\n1.0,abc\n", "a\n1\x1c\n"],
                             ids=["numpy-rejects", "checked-only"])
    def test_parse_error_is_never_kept(self, tmp_path, matrix_parses, text):
        p, q = tmp_path / "p.csv", tmp_path / "q.csv"
        for path in (p, q):
            path.write_text(text)
        errors = []
        for path in (p, q, p):
            with pytest.raises(ParseError) as exc:
                load_matrix(path)
            assert str(exc.value).startswith(f"{path}:2: ")
            errors.append(exc.value)
        assert matrix_parses == [p, q, p]
        assert len(io._MATRIX_MEMO) == 0 and io._MATRIX_MEMO.size == 0
        assert str(errors[0]) == str(errors[2])
        assert {e.reason for e in errors} == {errors[0].reason}

    def test_least_recently_used_goes_at_the_cap(self, tmp_path, monkeypatch,
                                                 matrix_parses):
        a, b, c = (tmp_path / f"{n}.csv" for n in "abc")
        for value, path in enumerate((a, b, c)):
            save_matrix(np.full((50, 4), float(value)), list("wxyz"), path)
        load_matrix(a)
        one = io._MATRIX_MEMO.size  # the three entries are one size
        monkeypatch.setattr(io, "_MATRIX_MEMO",
                            io._LruMemo(2 * one + one // 2))
        load_matrix(a)
        load_matrix(b)
        load_matrix(a)  # now b is the least recently used
        load_matrix(c)  # and is dropped
        assert len(io._MATRIX_MEMO) == 2
        assert io._MATRIX_MEMO.size == 2 * one
        del matrix_parses[:]
        for path in (a, c, b):
            assert load_matrix(path)[0][0, 0] == "abc".index(path.stem)
        assert matrix_parses == [b]

    def test_tiny_files_are_capped_too(self, tmp_path, monkeypatch):
        # a header-only file has no data, yet each entry counts against the
        # cap; and a matrix larger than the cap is not kept at all
        monkeypatch.setattr(io, "_MATRIX_MEMO",
                            io._LruMemo(3 * io._ENTRY_BYTES))
        for i in range(10):
            p = tmp_path / f"{i}.csv"
            p.write_text(f"c{i}\n")
            assert load_matrix(p)[0].shape == (0, 1)
        assert 0 < len(io._MATRIX_MEMO) < 3
        assert io._MATRIX_MEMO.size <= 3 * io._ENTRY_BYTES
        io._MATRIX_MEMO.clear()
        p = tmp_path / "big.csv"
        save_matrix(np.zeros((100, 4)), list("wxyz"), p)
        load_matrix(p)
        assert len(io._MATRIX_MEMO) == 0


def _dies_midway(items):
    yield from items
    raise RuntimeError("writer died")


def _save_unserializable_model(path):
    model = SkillGradientBoosting()
    model.to_dict = lambda: {"a": list(range(5000)), "z": object()}
    model.save(path)


@pytest.mark.parametrize("write", [
    lambda p: io._write_jsonl(p, _dies_midway([{"a": 1}] * 5000)),
    lambda p: io._write_csv(p, ["a"], _dies_midway([[1.5]] * 5000)),
    lambda p: io.save_json({"a": list(range(5000)), "z": object()}, p),
    _save_unserializable_model,
], ids=["jsonl", "csv", "json", "model"])
def test_failed_write_keeps_the_previous_file(tmp_path, write):
    # the writer fails after thousands of records; the file it would
    # replace keeps its bytes, and no temp file is left beside it
    p = tmp_path / "artifact"
    p.write_bytes(b"previous\n")
    with pytest.raises((RuntimeError, TypeError)):
        write(p)
    assert p.read_bytes() == b"previous\n"
    assert [q.name for q in tmp_path.iterdir()] == ["artifact"]


class _Sep(str, enum.Enum):
    COMMA = "a, b"  # the C encoder's item separator inside a value


_json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, 1e300, -1e300, math.nan, -math.inf]),
    st.text(), st.sampled_from(["a, b", ", ", '"', "\\", "é, ü", " "]),
    st.sampled_from([*ActionClass, *SkillLevel, *_Sep]))
_json_key = st.one_of(st.text(), st.sampled_from(["a, b", ": ", '"']))
_json_doc = st.recursive(
    _json_scalar,
    lambda kids: st.one_of(
        st.lists(kids, max_size=6), st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(_json_key, kids, max_size=5),
        st.dictionaries(st.integers() | st.floats() | st.booleans(), kids,
                        max_size=3),
        # what JSON cannot hold: a set, bytes, mixed or tuple keys
        st.sets(st.integers(), min_size=1, max_size=2),
        st.just(b"bytes"), st.just({1: 1, "a": 1}), st.just({(1,): 1})),
    max_leaves=25)


class TestJsonWriter:
    @staticmethod
    def _stdlib(obj):
        try:
            return json.dumps(obj, sort_keys=True, indent=1) + "\n"
        except (TypeError, ValueError) as exc:
            return type(exc)

    @staticmethod
    def _written(path, obj):
        try:
            io.save_json(obj, path)
        except (TypeError, ValueError) as exc:
            return type(exc)
        return path.read_text(encoding="utf-8")

    @settings(max_examples=400, deadline=None)
    @given(obj=_json_doc)
    def test_matches_the_stdlib_encoder(self, tmp_path_factory, obj):
        p = tmp_path_factory.mktemp("json") / "doc.json"
        assert self._written(p, obj) == self._stdlib(obj)

    def test_cycle_is_refused_like_the_stdlib(self, tmp_path):
        loop = {"a": [1]}
        loop["a"].append(loop)
        assert self._written(tmp_path / "doc.json", loop) is ValueError
        assert self._stdlib(loop) is ValueError


def _round_cases(digits: int):
    # near-ties: k + 1/2 units of the last kept digit, nudged by a few ulps
    tie = st.builds(lambda k, ulps: np.nextafter(
                        (k + 0.5) / 10 ** digits, math.inf * ulps)
                    if ulps else (k + 0.5) / 10 ** digits,
                    st.integers(-10 ** 9, 10 ** 9), st.integers(-1, 1))
    return st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True) | tie
                    | st.sampled_from([0.0, -0.0, 2.0 ** 52, -2.0 ** 60,
                                       1e300, -5e-324]),
                    max_size=40)


class TestReportRounding:
    @staticmethod
    def _check(values, digits):
        got = pipeline._rounded(np.asarray(values, dtype=np.float64),
                                digits).tolist()
        want = [round(float(v), digits) for v in values]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g) is float
            assert (g == w and math.copysign(1, g) == math.copysign(1, w)
                    or math.isnan(g) and math.isnan(w)), (g, w)

    @settings(max_examples=300, deadline=None)
    @given(values=_round_cases(4))
    def test_four_digits_match_round(self, values):
        self._check(values, 4)

    @settings(max_examples=300, deadline=None)
    @given(values=_round_cases(6))
    def test_six_digits_match_round(self, values):
        self._check(values, 6)

    def test_dense_ties_and_rows(self):
        rng = np.random.default_rng(5)
        for digits in (4, 6):
            ties = (rng.integers(-10 ** 7, 10 ** 7, 20_000) + 0.5) / 10 ** digits
            near = np.nextafter(ties, rng.choice([-np.inf, np.inf], ties.size))
            self._check(np.concatenate([ties, near, -ties]), digits)
        S = rng.random((40, 40)) ** 2
        assert pipeline._rounded(S, 4).tolist() == [
            [round(float(v), 4) for v in row] for row in S]


class TestSsmPreview:
    """The report's SSM preview, joined from a repr table, against the
    stdlib encoder writing the rounded values."""

    @staticmethod
    def _check(tmp_path, S, encoded):
        rows = pipeline._preview_rows(S)
        assert all(isinstance(r, io.EncodedList) for r in rows) is encoded
        doc = {"ssm_preview": {"stride": 1, "values": rows}, "z": [0.5]}
        want = {"ssm_preview": {"stride": 1, "values": [
            [round(float(v), 4) for v in row] for row in S]}, "z": [0.5]}
        io.save_json(doc, tmp_path / "report.json")
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == (
            json.dumps(want, indent=1, sort_keys=True) + "\n")

    def test_grid_is_every_repr(self):
        grid = pipeline._preview_grid()
        assert [g.decode("ascii") for g in grid.tolist()] == [
            repr(k / 1e4) for k in range(10 ** 4 + 1)]

    @pytest.mark.parametrize("values, encoded", [
        ([0.0, 1e-4, 0.5, 1.0], True),
        ([0.0, 1e-4, 0.5, 1.0 + 1e-4], False),  # off the [0, 1] grid
        ([0.0, 1e-4, 0.5, -0.0], False),
        ([0.0, 1e-4, 0.5, math.nan], False),
        ([0.12344999999999999, 0.00005, 0.99995, 0.3], True),
    ], ids=["grid", "above-one", "negative-zero", "nan", "ties"])
    def test_edge_values(self, tmp_path, values, encoded):
        self._check(tmp_path, np.array(values).reshape(2, 2), encoded)
        self._check(tmp_path, np.array(values).reshape(1, 4), encoded)
        self._check(tmp_path, np.array(values).reshape(4, 1), encoded)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
           m=st.integers(1, 12))
    def test_random_squares(self, tmp_path_factory, seed, n, m):
        S = np.random.default_rng(seed).uniform(-1, 1, (n, m)) ** 2
        self._check(tmp_path_factory.mktemp("preview"), S, True)

    def test_enhanced_ssm(self, tmp_path):
        X = np.cumsum(np.random.default_rng(8).normal(size=(300, 6)), axis=0)
        X[::7] = 0.0
        preview = pipeline._ssm_preview(X, max_side=64)
        assert preview["stride"] == 5
        S = enhance(ssm(X[::5]))
        self._check(tmp_path, S, True)
