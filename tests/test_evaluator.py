"""Metric suite: cepstra, DTW, MCD, WER and ASV, plus the correlation study's
metrics rows, tables and matrix."""

import dataclasses
import re
import shlex

import numpy as np
import pytest
import scipy.fft

from recsynvc.errors import (
    AdapterError,
    CorrelationFileError,
    VoiceConversionError,
)
from recsynvc.audioio import save_waveform
from recsynvc.benchmark import (
    METRIC_LABELS,
    MetricsRow,
    correlation_matrix,
    read_metrics_table,
)
from recsynvc import evaluator
from recsynvc.converter import average_embedding
from recsynvc.evaluator import (
    MCD_CONSTANT,
    asv_accept_rate,
    calibrate_asv_threshold,
    cosine_similarity,
    dtw_align,
    eer_threshold,
    mcd,
    mel_cepstra,
    normalize_text,
    transcribe_adapter,
    wer,
)
from recsynvc.recognizer import extract_mel
from recsynvc.types import SpeakerEmbedding, Waveform

from helpers import path_cost, pearson, sphere_embedding, write_metrics_table


def _noise_wave(seed=424242, n=7200, amp=0.3):
    rng = np.random.default_rng(seed)
    return Waveform((amp * rng.standard_normal(n)).clip(-1, 1), 24000)


# --- cepstra ----------------------------------------------------------------------

def test_mel_cepstra_golden_values(audio):
    # frozen from a seeded run; guards the DCT/ordering conventions
    ceps = mel_cepstra(_noise_wave(), 24, audio)
    assert ceps.frames.shape == (26, 24)
    assert ceps.frames.dtype == np.float32
    assert ceps.frame_shift_ms == 10.0
    np.testing.assert_allclose(
        ceps.frames[0, :4],
        [-7.7363944, -0.09567691, -0.84067732, 0.05668432],
        atol=1e-4,
    )
    np.testing.assert_allclose(
        ceps.frames[10, :4],
        [-6.8363595, 0.37328905, -0.79624557, -0.15264972],
        atol=1e-4,
    )
    assert abs(float(np.mean(np.abs(ceps.frames))) - 0.6439111) < 1e-4


def test_mel_cepstra_gain_invariant(audio):
    # uniform gain shifts every log-mel bin equally, landing entirely in the
    # excluded DC term
    wave = _noise_wave()
    half = Waveform(wave.samples * 0.5, wave.sample_rate)
    np.testing.assert_allclose(
        mel_cepstra(wave, 24, audio).frames, mel_cepstra(half, 24, audio).frames,
        atol=1e-4,
    )


def test_mel_cepstra_silence_is_zero(audio):
    ceps = mel_cepstra(Waveform(np.zeros(7200), 24000), 24, audio)
    assert np.all(ceps.frames == 0.0)


def test_mel_cepstra_match_scipy_dct(audio):
    """The basis product is scipy's orthonormal DCT-II to within a float32 step."""
    wave = _noise_wave()
    frames = extract_mel(wave, audio).frames
    reference = scipy.fft.dct(frames, type=2, norm="ortho", axis=1)[:, 1:25]
    ceps = mel_cepstra(wave, 24, audio).frames
    np.testing.assert_allclose(ceps, reference.astype(np.float32), rtol=0, atol=4e-6)


def test_mel_cepstra_order_truncates(audio):
    wave = _noise_wave()
    full = mel_cepstra(wave, 24, audio)
    low = mel_cepstra(wave, 5, audio)
    assert low.frames.shape == (26, 5)
    assert np.array_equal(low.frames, full.frames[:, :5])


# --- alignment --------------------------------------------------------------------

def test_dtw_align_identity_is_diagonal():
    a = np.random.default_rng(0).standard_normal((6, 3))
    path = dtw_align(a, a)
    assert path == [(i, i) for i in range(6)]
    assert path_cost(a, a, path) == 0.0


def test_dtw_align_single_frame_vs_two():
    path = dtw_align(np.array([[0.0]]), np.array([[0.0], [0.0]]))
    assert path == [(0, 0), (0, 1)]


def test_dtw_align_stretched_copy():
    a = np.array([[0.0], [1.0], [2.0]])
    b = np.array([[0.0], [0.0], [1.0], [2.0], [2.0]])
    path = dtw_align(a, b)
    assert path[0] == (0, 0) and path[-1] == (2, 4)
    assert path_cost(a, b, path) == 0.0


def test_dtw_align_prefers_diagonal_on_ties():
    zeros = np.zeros((3, 2))
    assert dtw_align(zeros, zeros) == [(0, 0), (1, 1), (2, 2)]


def test_dtw_align_path_validity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ta, tb = rng.integers(1, 9, size=2)
        a = rng.standard_normal((ta, 4))
        b = rng.standard_normal((tb, 4))
        path = dtw_align(a, b)
        assert path[0] == (0, 0)
        assert path[-1] == (ta - 1, tb - 1)
        steps = {(path[k + 1][0] - path[k][0], path[k + 1][1] - path[k][1])
                 for k in range(len(path) - 1)}
        assert steps <= {(1, 0), (0, 1), (1, 1)}


def test_dtw_align_beats_corner_path():
    # the returned path must cost no more than the go-right-then-down path
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((7, 3))
    best = path_cost(a, b, dtw_align(a, b))
    corner = [(0, j) for j in range(7)] + [(i, 6) for i in range(1, 5)]
    assert best <= path_cost(a, b, corner) + 1e-12


def _reference_dtw_align(a, b):
    """The row-by-row double loop first written, kept as the bit-identity reference."""
    fa, fb = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    ta, tb = fa.shape[0], fb.shape[0]
    cost = ((fa * fa).sum(axis=1)[:, None] + (fb * fb).sum(axis=1)[None, :]
            - 2.0 * (fa @ fb.T))
    np.maximum(cost, 0.0, out=cost)
    dist = np.empty((ta, tb))
    move = np.zeros((ta, tb), dtype=np.uint8)
    dist[0, 0] = cost[0, 0]
    for j in range(1, tb):
        dist[0, j] = dist[0, j - 1] + cost[0, j]
        move[0, j] = 2
    for i in range(1, ta):
        dist[i, 0] = dist[i - 1, 0] + cost[i, 0]
        move[i, 0] = 1
        for j in range(1, tb):
            best = dist[i - 1, j - 1]
            code = 0
            if dist[i - 1, j] < best:
                best = dist[i - 1, j]
                code = 1
            if dist[i, j - 1] < best:
                best = dist[i, j - 1]
                code = 2
            dist[i, j] = best + cost[i, j]
            move[i, j] = code
    path = [(ta - 1, tb - 1)]
    i, j = ta - 1, tb - 1
    while (i, j) != (0, 0):
        code = move[i, j]
        if code == 0:
            i, j = i - 1, j - 1
        elif code == 1:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    return path[::-1]


@pytest.mark.parametrize("rounded", [False, True], ids=["raw", "rounded"])
@pytest.mark.parametrize("ta, tb", [(1, 1), (1, 7), (7, 1), (46, 48), (300, 296)])
def test_dtw_align_matches_double_loop_reference(ta, tb, rounded):
    rng = np.random.default_rng(ta * 1000 + tb)
    a, b = rng.standard_normal((ta, 3)), rng.standard_normal((tb, 3))
    if rounded:  # integer frames make equal costs, so the tie order decides
        a, b = np.round(a), np.round(b)
    assert dtw_align(a, b) == _reference_dtw_align(a, b)


def test_dtw_align_errors():
    with pytest.raises(VoiceConversionError, match="^cannot align empty sequences$"):
        dtw_align(np.empty((0, 3)), np.zeros((2, 3)))
    with pytest.raises(VoiceConversionError, match="^sequence dims disagree: 3 vs 4$"):
        dtw_align(np.zeros((2, 3)), np.zeros((2, 4)))


def test_dtw_align_refuses_a_grid_above_the_cap(monkeypatch):
    monkeypatch.setattr(evaluator, "MAX_DTW_CELLS", 100)
    assert len(dtw_align(np.zeros((10, 3)), np.zeros((10, 3)))) == 10
    with pytest.raises(VoiceConversionError, match="cannot align 10 x 11 frames: "
                                                   "DTW is capped at 100 cells"):
        dtw_align(np.zeros((10, 3)), np.zeros((11, 3)))


# --- mcd --------------------------------------------------------------------------

def test_mcd_identical_is_zero():
    a = np.random.default_rng(3).standard_normal((8, 24))
    assert mcd(a, a) == 0.0


def test_mcd_unit_offset_closed_form():
    a = np.random.default_rng(4).standard_normal((5, 24))
    b = a.copy()
    b[:, 3] += 1.0
    assert abs(mcd(a, b) - MCD_CONSTANT) < 1e-9


def test_mcd_constant_value():
    assert abs(MCD_CONSTANT - 6.141851463713754) < 1e-12


def test_mcd_errors():
    with pytest.raises(VoiceConversionError, match="^cannot align empty sequences$"):
        mcd(np.empty((0, 24)), np.zeros((2, 24)))
    with pytest.raises(VoiceConversionError, match="^sequence dims disagree: 24 vs 23$"):
        mcd(np.zeros((2, 24)), np.zeros((2, 23)))


# --- text and wer ------------------------------------------------------------------

def test_normalize_text():
    assert normalize_text("Hello, world!") == ["HELLO", "WORLD"]
    assert normalize_text("don't stop_me now.") == ["DON'T", "STOP", "ME", "NOW"]
    assert normalize_text("  spaced\tout\n") == ["SPACED", "OUT"]
    assert normalize_text("") == []


def test_wer_examples():
    assert wer(["A", "B", "C"], ["A", "B", "C"]) == 0.0
    assert abs(wer(["A", "B", "C"], ["A", "X", "C"]) - 100.0 / 3.0) < 1e-12
    assert wer(["A", "B"], []) == 100.0
    assert wer(["A"], ["A", "B", "C"]) == 200.0
    # substitution beats delete+insert
    assert wer(["A", "B"], ["A", "C"]) == 50.0


def test_wer_empty_reference():
    with pytest.raises(VoiceConversionError, match="^reference token list is empty$"):
        wer([], ["A"])


def _noise_wav(tmp_path):
    save_waveform(tmp_path / "u.wav", _noise_wave(n=2400))
    return tmp_path / "u.wav"


def test_transcribe_adapter_stub(stub_asr, tmp_path):
    assert transcribe_adapter(_noise_wav(tmp_path), stub_asr) == ["PA", "KO"]


def test_transcribe_adapter_failure(failing_adapter, tmp_path):
    with pytest.raises(AdapterError) as err:
        transcribe_adapter(_noise_wav(tmp_path), failing_adapter)
    assert "stub exploded" in err.value.stderr


def test_transcribe_adapter_rejects_non_utf8_output(tmp_path):
    printer = shlex.join(["sh", "-c", r"printf '\377\376'; printf '\377' >&2"])
    with pytest.raises(AdapterError, match="non-UTF-8"):
        transcribe_adapter(_noise_wav(tmp_path), printer)


# --- speaker verification ----------------------------------------------------------

def _unit(theta):
    return SpeakerEmbedding(np.array([np.cos(theta), np.sin(theta)]))


def test_cosine_similarity_basics():
    def emb(*vector):
        return SpeakerEmbedding.from_raw(np.array(vector, dtype=np.float64))

    assert abs(cosine_similarity(emb(1, 0), emb(0, 1))) < 1e-12
    assert abs(cosine_similarity(emb(1, 2), emb(2, 4)) - 1.0) < 1e-12
    assert abs(cosine_similarity(emb(1, 0), emb(-1, 0)) + 1.0) < 1e-12


def test_asv_accept_rate():
    ref = _unit(0.0)
    converted = [_unit(np.arccos(c)) for c in (0.9, 0.4, 0.6, 0.2)]
    assert asv_accept_rate(converted, ref, 0.5) == 50.0
    assert asv_accept_rate(converted, ref, 0.1) == 100.0
    assert asv_accept_rate(converted, ref, 0.95) == 0.0
    with pytest.raises(VoiceConversionError, match="^no verification trials$"):
        asv_accept_rate([], ref, 0.5)


def test_asv_accept_rate_matches_per_pair_cosines():
    converted = [sphere_embedding(f"conv{k}") for k in range(40)]
    for target in (sphere_embedding(f"tgt{k}") for k in range(3)):
        scores = np.array([cosine_similarity(conv, target) for conv in converted])
        for threshold in np.linspace(-0.5, 0.5, 21):
            assert np.min(np.abs(scores - threshold)) > 1e-12
            expected = 100.0 * int(np.count_nonzero(scores >= threshold)) / len(converted)
            assert asv_accept_rate(converted, target, threshold) == expected


@pytest.mark.parametrize("call", [
    lambda narrow, wide: average_embedding([narrow, wide]),
    lambda narrow, wide: cosine_similarity(narrow, wide),
    lambda narrow, wide: asv_accept_rate([narrow], wide, 0.5),
    lambda narrow, wide: calibrate_asv_threshold({"a": [narrow, narrow], "b": [wide]}),
], ids=["average_embedding", "cosine_similarity", "asv_accept_rate",
        "calibrate_asv_threshold"])
def test_one_width_rule(call):
    narrow, wide = sphere_embedding("narrow", dim=8), sphere_embedding("wide", dim=16)
    with pytest.raises(VoiceConversionError, match="^embedding dims disagree: 8 vs 16$"):
        call(narrow, wide)


def test_eer_threshold_separable():
    assert eer_threshold([0.7, 0.8, 0.9], [0.1, 0.2, 0.3]) == 0.7


def test_eer_threshold_overlapping():
    assert eer_threshold([0.4, 0.6, 0.8], [0.2, 0.5, 0.7]) == 0.6


def _eer_threshold_by_loop(genuine_scores, impostor_scores):
    """The candidate loop ``eer_threshold`` replaced: O(n) work per candidate."""
    genuine = np.asarray(sorted(genuine_scores), dtype=np.float64)
    impostor = np.asarray(sorted(impostor_scores), dtype=np.float64)
    candidates = np.unique(np.concatenate([genuine, impostor]))
    best_t = float(candidates[0])
    best_gap = np.inf
    for t in candidates:
        frr = float(np.mean(genuine < t))
        far = float(np.mean(impostor >= t))
        gap = abs(far - frr)
        if gap < best_gap:
            best_gap = gap
            best_t = float(t)
    return best_t


def test_eer_threshold_matches_candidate_loop():
    rng = np.random.default_rng(11)
    for trial in range(300):
        genuine = rng.normal(0.6, 0.2, rng.integers(1, 60))
        impostor = rng.normal(0.3, 0.2, rng.integers(1, 200))
        if trial % 2:  # coarse scores: ties within and across the two sets
            genuine, impostor = np.round(genuine, 1), np.round(impostor, 1)
        assert eer_threshold(genuine, impostor) == _eer_threshold_by_loop(genuine, impostor)


def test_eer_threshold_empty():
    with pytest.raises(VoiceConversionError, match="^need both genuine and impostor scores$"):
        eer_threshold([], [0.5])


def test_calibrate_asv_threshold():
    rng = np.random.default_rng(5)

    def _cluster(center, n=4):
        return [SpeakerEmbedding.from_raw(center + 0.05 * rng.standard_normal(8))
                for _ in range(n)]

    ca, cb = rng.standard_normal(8), rng.standard_normal(8)
    table = {"spk_a": _cluster(ca), "spk_b": _cluster(cb)}
    threshold = calibrate_asv_threshold(table)
    # per-pair cosines are the oracle; the Gram matrix sums in another order
    genuine = [cosine_similarity(a, b)
               for group in table.values()
               for i, a in enumerate(group) for b in group[i + 1:]]
    impostor = [cosine_similarity(a, b)
                for a in table["spk_a"] for b in table["spk_b"]]
    assert abs(threshold - eer_threshold(genuine, impostor)) < 1e-12
    # within-speaker pairs sit near 1; the threshold must separate the clusters
    assert max(impostor) < threshold <= min(genuine) + 1e-12


def test_calibrate_asv_threshold_needs_two_speakers():
    emb = SpeakerEmbedding.from_raw(np.ones(4))
    with pytest.raises(VoiceConversionError, match="needs >= 2 speakers"):
        calibrate_asv_threshold({"only": [emb, emb]})


def test_calibrate_asv_threshold_needs_embeddings():
    with pytest.raises(VoiceConversionError,
                       match="^threshold calibration needs embeddings$"):
        calibrate_asv_threshold({"a": [], "b": []})


# --- correlation -------------------------------------------------------------------

def _table(**columns):
    n = len(columns["mcd"])
    return [MetricsRow(f"sys{k}", **{key: values[k] for key, values in columns.items()})
            for k in range(n)]


def test_pearson_exact():
    x = [1.0, 2.0, 3.0, 4.0]
    matrix = correlation_matrix(_table(
        mcd=x, wer=[2 * v + 1 for v in x], asv=[50 - 3 * v for v in x],
        naturalness=[1.0, 2.0, 4.0, 5.0], similarity=[10.0, 30.0, 20.0, 40.0]))
    assert abs(matrix[0, 1] - 1.0) < 1e-12
    assert abs(matrix[0, 2] + 1.0) < 1e-12
    matrix = correlation_matrix(_table(
        mcd=[1.0, 2.0, 3.0], wer=[1.0, 2.0, 4.0], asv=[60.0, 50.0, 40.0],
        naturalness=[2.0, 3.0, 4.0], similarity=[30.0, 20.0, 50.0]))
    assert abs(matrix[0, 1] - 9.0 / np.sqrt(84.0)) < 1e-12


def test_metrics_row_validation():
    scores = dict(mcd=7.0, wer=20.0, asv=60.0, naturalness=3.5, similarity=70.0)
    row = MetricsRow("sys", **scores)
    assert row.naturalness == 3.5
    for key, bad in (("mcd", -1.0), ("asv", 120.0), ("naturalness", 0.5),
                     ("similarity", 150.0)):
        with pytest.raises(VoiceConversionError):
            MetricsRow("sys", **{**scores, key: bad})
    for bad in (float("nan"), float("inf")):
        with pytest.raises(VoiceConversionError, match="finite"):
            MetricsRow("sys", **{**scores, "mcd": bad})
        with pytest.raises(VoiceConversionError, match="finite"):
            MetricsRow("sys", **{**scores, "wer": bad})
        for key in ("asv", "naturalness", "similarity"):
            with pytest.raises(VoiceConversionError):
                MetricsRow("sys", **{**scores, key: bad})


def _demo_rows():
    rng = np.random.default_rng(9)
    rows = []
    for k in range(6):
        quality = rng.uniform(0.0, 1.0)
        rows.append(MetricsRow(
            system=f"sys{k}",
            mcd=6.0 + 4.0 * (1 - quality) + rng.uniform(0, 0.3),
            wer=5.0 + 60.0 * (1 - quality) + rng.uniform(0, 2.0),
            asv=30.0 + 65.0 * quality,
            naturalness=1.5 + 3.0 * quality,
            similarity=20.0 + 75.0 * quality + rng.uniform(0, 3.0),
        ))
    return rows


def test_correlation_matrix_structure():
    rows = _demo_rows()
    matrix = correlation_matrix(rows)
    assert matrix.shape == (len(METRIC_LABELS),) * 2
    np.testing.assert_allclose(np.diag(matrix), 1.0)
    np.testing.assert_allclose(matrix, matrix.T)
    assert np.all(np.abs(matrix) <= 1.0)
    # every entry against the hand-summed coefficient
    columns = [[r.mcd, r.wer, r.asv, r.naturalness, r.similarity] for r in rows]
    columns = np.array(columns).T
    for i in range(len(METRIC_LABELS)):
        for j in range(len(METRIC_LABELS)):
            assert abs(matrix[i, j] - pearson(columns[i], columns[j])) < 1e-12
    # quality-driven rows: distortion anticorrelates with naturalness
    assert matrix[0, 3] < -0.8


def test_correlation_matrix_errors():
    rows = _demo_rows()
    with pytest.raises(CorrelationFileError, match="need at least 3 rows .* got 2"):
        correlation_matrix(rows[:2])
    flat = [MetricsRow(f"f{k}", mcd=7.0, wer=20.0 + k, asv=60.0 - k,
                       naturalness=3.0, similarity=50.0 + k)
            for k in range(3)]
    with pytest.raises(CorrelationFileError, match="column MCD has zero variance"):
        correlation_matrix(flat)


# --- table io ----------------------------------------------------------------------

def test_metrics_table_round_trip(tmp_path):
    rows = _demo_rows()[:4]
    path = tmp_path / "metrics.tsv"
    write_metrics_table(path, rows)
    back = read_metrics_table(path)
    assert [r.system for r in back] == [r.system for r in rows]
    for orig, loaded in zip(rows, back):
        for key in ("mcd", "wer", "asv", "naturalness", "similarity"):
            assert abs(getattr(orig, key) - getattr(loaded, key)) < 1e-4


@pytest.mark.parametrize("row, error", [
    ("partial\t8.0\t30.0\t55.0\t-\t-", "column 'naturalness' value '-' is not a number"),
    ("partial\t8.0\t30.0\t55.0\tna\t40.0", "column 'naturalness' value 'na' is not a number"),
    ("partial\t8.0\t30.0\t55.0\t3.0\t", "column 'similarity' value '' is not a number"),
    ("partial\t8.0\t30.0\t55.0", "4 cells for 6 columns"),
], ids=["dash", "na", "empty", "short"])
def test_metrics_table_partial_row_names_the_line(tmp_path, row, error):
    path = tmp_path / "metrics.tsv"
    write_metrics_table(path, _demo_rows()[:3])
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(CorrelationFileError,
                       match=f"^{re.escape(str(path))}: line 5: {re.escape(error)}$"):
        read_metrics_table(path)


@pytest.mark.parametrize("names, error", [
    (["", "A", "B"], "line 2: empty system name"),
    (["A", " ", "B"], "line 3: empty system name"),
    (["A", "B", "A"], "line 4: system 'A' already named on line 2"),
    (["mel", "B", " mel"], "line 4: system 'mel' already named on line 2"),
], ids=["empty", "blank", "repeated", "repeated_after_strip"])
def test_metrics_table_rows_name_distinct_systems(tmp_path, names, error):
    path = tmp_path / "metrics.tsv"
    rows = _demo_rows()[:3]
    write_metrics_table(path, [dataclasses.replace(r, system=name)
                               for r, name in zip(rows, names)])
    with pytest.raises(CorrelationFileError,
                       match=f"^{re.escape(str(path))}: {re.escape(error)}$"):
        read_metrics_table(path)


def test_metrics_table_comments_and_blanks(tmp_path):
    path = tmp_path / "metrics.tsv"
    path.write_text(
        "# a comment\n"
        "\n"
        "similarity\tsystem\tmcd\twer\tasv\tnaturalness\n"
        "70.0\tsys0\t7.0\t20.0\t60.0\t3.5\n"
        "\n"
        "# trailing note\n"
    )
    rows = read_metrics_table(path)
    assert rows == [MetricsRow("sys0", mcd=7.0, wer=20.0, asv=60.0, naturalness=3.5,
                               similarity=70.0)]


def test_metrics_table_missing_column(tmp_path):
    path = tmp_path / "metrics.tsv"
    path.write_text("system\tmcd\twer\tasv\nsys0\t7.0\t20.0\t60.0\n")
    with pytest.raises(CorrelationFileError,
                       match=r"line 1: missing columns \['naturalness', 'similarity'\]"):
        read_metrics_table(path)


def test_metrics_table_unknown_column(tmp_path):
    path = tmp_path / "metrics.tsv"
    path.write_text("system\tmcd\twer\tasv\tbogus\n")
    with pytest.raises(CorrelationFileError, match="line 1: unknown or repeated column 'bogus'"):
        read_metrics_table(path)


def test_metrics_table_bad_number(tmp_path):
    path = tmp_path / "metrics.tsv"
    path.write_text("system\tmcd\twer\tasv\tnaturalness\tsimilarity\n"
                    "sys0\tseven\t20.0\t60.0\t3.0\t50.0\n")
    with pytest.raises(CorrelationFileError,
                       match="line 2: column 'mcd' value 'seven' is not a number"):
        read_metrics_table(path)
