import math
import pickle

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
from microact import io
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
    validate_stream,
)
from microact.records import TipCandidateSet, TrackObservation


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

    def test_strict_order_rejects_non_monotone(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        lines = [
            '{"frame": 5, "class": "needle", "x": 0, "y": 0, "w": 5, "h": 5, "conf": 0.5}',
            '{"frame": 2, "class": "needle", "x": 0, "y": 0, "w": 5, "h": 5, "conf": 0.5}',
        ]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="non-monotone"):
            load_detections(p, strict_order=True)
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
    def test_contiguous_frames_zero_gaps(self):
        stream = [det(f) for f in range(10)]
        report = validate_stream(stream)
        assert report.gaps == []
        assert report.frame_range == (0, 9)

    def test_gap_detected(self):
        stream = [det(0), det(1), det(5)]
        report = validate_stream(stream)
        assert report.gaps == [(1, 3)]

    def test_two_simultaneous_needles_flagged(self):
        stream = [det(3, InstrumentClass.NEEDLE), det(3, InstrumentClass.NEEDLE)]
        report = validate_stream(stream)
        assert len(report.anomalies) == 1
        assert "needle" in report.anomalies[0]

    def test_distinct_classes_not_flagged(self):
        stream = [det(3, InstrumentClass.NEEDLE), det(3, InstrumentClass.SCISSORS_C)]
        assert validate_stream(stream).anomalies == []

    def test_never_mutates(self):
        stream = [det(0), det(2)]
        before = [(d.frame, d.bbox) for d in stream]
        validate_stream(stream)
        assert [(d.frame, d.bbox) for d in stream] == before

    def test_empty_stream(self):
        report = validate_stream([])
        assert report.n_records == 0 and report.frame_range is None


class TestTips:
    def test_round_trip(self, tmp_path):
        trajs = [
            TipTrajectory(0, [(0.0, 1.0), None, (2.5, 3.125)], fps=5.0),
            TipTrajectory(1, [None, (7.0, 8.0), None], fps=5.0),
        ]
        p = tmp_path / "tips.csv"
        save_tips(trajs, p)
        loaded = load_tips(p, fps=5.0)
        assert len(loaded) == 2
        for orig, back in zip(trajs, loaded):
            assert back.instrument_id == orig.instrument_id
            assert back.points == orig.points
            assert back.fps == 5.0

    def test_fps_required_positive(self, tmp_path):
        p = tmp_path / "tips.csv"
        save_tips([TipTrajectory(0, [(0.0, 0.0)], fps=5.0)], p)
        with pytest.raises(ValueError, match="fps"):
            load_tips(p, fps=0)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "tips.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(ParseError):
            load_tips(p, fps=5.0)


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


class TestCandidatesDescriptors:
    def test_candidates_round_trip(self, tmp_path):
        cands = {
            (0, 1): TipCandidateSet(
                candidates=[(1.0, 2.0, np.array([0.5, 0.5])),
                            (3.0, 4.0, np.array([1.0, 0.0]))],
                bbox=(10.0, 20.0, 40.0, 40.0)),
            (1, 1): TipCandidateSet(
                candidates=[(0.0, 0.0, np.array([0.0, 1.0]))]),
        }
        p = tmp_path / "cands.jsonl"
        save_tip_candidates(cands, p)
        loaded = load_tip_candidates(p)
        assert set(loaded) == set(cands)
        for key in cands:
            assert loaded[key].bbox == cands[key].bbox
            for (x0, y0, d0), (x1, y1, d1) in zip(cands[key].candidates,
                                                  loaded[key].candidates):
                assert (x0, y0) == (x1, y1)
                assert np.array_equal(d0, d1)

    def test_candidates_load_as_columns(self, tmp_path):
        cands = {
            (3, 2): TipCandidateSet(
                candidates=[(1.0, 2.0, np.array([0.5, 0.5])),
                            (3.0, 4.0, np.array([1.0, 0.0]))],
                bbox=(10.0, 20.0, 40.0, 40.0)),
            (3, 1): TipCandidateSet(candidates=[]),
            (0, 7): TipCandidateSet(
                candidates=[(0.0, 0.0, np.array([0.0, 1.0]))]),
        }
        p = tmp_path / "cands.jsonl"
        save_tip_candidates(cands, p)
        table = load_tip_candidates(p)
        # file order, which is sorted key order
        assert table.set_keys.tolist() == [[0, 7], [3, 1], [3, 2]]
        assert table.offsets.tolist() == [0, 1, 1, 3]
        assert table.points.tolist() == [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]]
        assert table.descriptors.tolist() == [[0.0, 1.0], [0.5, 0.5],
                                              [1.0, 0.0]]
        assert table.crop_boxes == [None, None, (10.0, 20.0, 40.0, 40.0)]
        assert table.sets_by_frame() == {0: [0], 3: [1, 2]}
        assert table.rows(2) == slice(1, 3)

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
        p = tmp_path / "refs.json"
        p.write_text('{"needle": [0.0, 0.0]}\n')
        with pytest.raises(ValueError, match="nonzero"):
            load_reference_descriptors(p)


BOX = '"y": 0, "w": 2, "h": 2'
TRUTH = '{"frame": 0, "object_id": 1, "class": "needle", "x": 0, ' + BOX + '}'
TRACK_ROW = '{"frame": 0, "object_id": 1, "class": "needle", "x": 0, ' + BOX + ', "det_index": 0}'
CANDS = ('{"frame": 0, "object_id": 1, "candidates": [{"x": 0, "y": 0, '
         '"descriptor": [0.0, 1.0]}, {"x": 1, "y": 1, "descriptor": [1.0, 0.0]}]}')


@pytest.mark.parametrize("load, text, line_no", [
    (load_matrix, "a,b\n1.0,2.0\n3.0\n", 3),
    (load_matrix, "a,b\n1.0,abc\n", 2),
    (load_novelty, "frame,N\n0,0.5\n\n2\n", 4),
    (load_boundaries, "tau,prominence\n10,0.5\nx,0.1\n", 3),
    (load_segments, "index,start_frame,end_frame,cluster,action,duration_s\n"
                    "0,0,50,2\n", 2),
    (load_truth_instances, TRUTH + "\n" + TRUTH.replace('"x": 0', '"x": [0]') + "\n", 2),
    (load_track_rows, TRACK_ROW.replace('"x": 0', '"x": [0, 1]') + "\n", 1),
    (load_tip_candidates, CANDS + "\n" + CANDS.replace("[1.0, 0.0]", "[1.0]")
     + "\n", 2),
    (load_tip_candidates, CANDS + "\n" + CANDS.replace('"frame": 0', '"frame": 1')
     + "\n" + CANDS + "\n", 3),
], ids=["matrix-truncated", "matrix-non-numeric", "novelty-truncated",
        "boundaries-non-numeric", "segments-truncated", "truth-list-x",
        "track-rows-list-x", "candidates-descriptor-length",
        "candidates-repeated-key"])
def test_malformed_row_names_file_and_line(tmp_path, load, text, line_no):
    p = tmp_path / "artifact"
    p.write_text(text)
    with pytest.raises(ParseError) as exc:
        load(p)
    assert exc.value.line_no == line_no
    assert str(exc.value).startswith(f"{p}:{line_no}: ")


def test_parse_error_pickles_intact():
    err = pickle.loads(pickle.dumps(ParseError("a/detections.jsonl", 2, "bad")))
    assert type(err) is ParseError
    assert (err.path, err.line_no, err.reason) == ("a/detections.jsonl", 2, "bad")
    assert str(err) == "a/detections.jsonl:2: bad"


class TestMatrixCurves:
    def test_matrix_round_trip_with_meta(self, tmp_path):
        X = np.array([[1.0, -2.5], [math.pi, 1e-17]])
        p = tmp_path / "X.csv"
        save_matrix(X, ["a", "b"], p, meta={"fps": 5.0, "downsample": 6})
        X2, names, meta = load_matrix(p)
        assert np.array_equal(X, X2)
        assert names == ["a", "b"]
        assert meta == {"fps": 5.0, "downsample": 6}

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
