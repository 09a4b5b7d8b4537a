"""Metric suite: cepstra, DTW, MCD, WER, ASV, and correlation analysis."""

import numpy as np
import pytest

from recsynvc.errors import (
    AdapterError,
    DegenerateVarianceError,
    DimensionMismatchError,
    EmptyInputError,
    InsufficientRowsError,
    LengthMismatchError,
    MissingFieldError,
    VoiceConversionError,
)
from recsynvc.evaluator import (
    MCD_CONSTANT,
    METRIC_LABELS,
    MetricsRow,
    asv_accept_rate,
    calibrate_asv_threshold,
    correlation_matrix,
    cosine_similarity,
    dtw_align,
    eer_threshold,
    mcd,
    mel_cepstra,
    normalize_text,
    path_cost,
    pearson,
    read_metrics_table,
    transcribe_adapter,
    wer,
    write_metrics_table,
)
from recsynvc.types import SpeakerEmbedding, Waveform


def _noise_wave(seed=424242, n=7200, amp=0.3):
    rng = np.random.default_rng(seed)
    return Waveform((amp * rng.standard_normal(n)).clip(-1, 1), 24000)


# --- cepstra ----------------------------------------------------------------------

def test_mel_cepstra_golden_values():
    # frozen from a seeded run; guards the DCT/ordering conventions
    ceps = mel_cepstra(_noise_wave())
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


def test_mel_cepstra_gain_invariant():
    # uniform gain shifts every log-mel bin equally, landing entirely in the
    # excluded DC term
    wave = _noise_wave()
    half = Waveform(wave.samples * 0.5, wave.sample_rate)
    np.testing.assert_allclose(
        mel_cepstra(wave).frames, mel_cepstra(half).frames, atol=1e-4
    )


def test_mel_cepstra_silence_is_zero():
    ceps = mel_cepstra(Waveform(np.zeros(7200), 24000))
    assert np.all(ceps.frames == 0.0)


def test_mel_cepstra_order_truncates():
    wave = _noise_wave()
    full = mel_cepstra(wave)
    low = mel_cepstra(wave, order=5)
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


def test_dtw_align_errors():
    with pytest.raises(EmptyInputError):
        dtw_align(np.empty((0, 3)), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        dtw_align(np.zeros((2, 3)), np.zeros((2, 4)))


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
    with pytest.raises(EmptyInputError):
        mcd(np.empty((0, 24)), np.zeros((2, 24)))
    with pytest.raises(DimensionMismatchError):
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
    with pytest.raises(EmptyInputError):
        wer([], ["A"])


def test_transcribe_adapter_stub(stub_asr, tmp_path):
    wave = _noise_wave(n=2400)
    assert transcribe_adapter(wave, stub_asr) == ["PA", "KO"]

    from recsynvc.audioio import save_waveform

    wav_path = tmp_path / "u.wav"
    save_waveform(wav_path, wave)
    assert transcribe_adapter(wav_path, stub_asr) == ["PA", "KO"]


def test_transcribe_adapter_failure(failing_adapter):
    with pytest.raises(AdapterError) as err:
        transcribe_adapter(_noise_wave(n=2400), failing_adapter)
    assert "stub exploded" in err.value.stderr


def test_transcribe_adapter_rejects_non_utf8_output():
    printer = ["sh", "-c", r"printf '\377\376'; printf '\377' >&2"]
    with pytest.raises(AdapterError, match="non-UTF-8"):
        transcribe_adapter(_noise_wave(n=2400), printer)


# --- speaker verification ----------------------------------------------------------

def _unit(theta):
    return np.array([np.cos(theta), np.sin(theta)])


def test_cosine_similarity_basics():
    assert abs(cosine_similarity([1, 0], [0, 1])) < 1e-12
    assert abs(cosine_similarity([1, 2], [2, 4]) - 1.0) < 1e-12
    assert abs(cosine_similarity([1, 0], [-1, 0]) + 1.0) < 1e-12
    emb = SpeakerEmbedding.from_raw(np.array([3.0, 4.0, 0.0]))
    assert abs(cosine_similarity(emb, [3, 4, 0]) - 1.0) < 1e-12


def test_cosine_similarity_zero_norm():
    with pytest.raises(EmptyInputError):
        cosine_similarity([0, 0], [1, 0])


def test_asv_accept_rate():
    ref = _unit(0.0)
    trials = [(_unit(np.arccos(c)), ref) for c in (0.9, 0.4, 0.6, 0.2)]
    assert asv_accept_rate(trials, 0.5) == 50.0
    assert asv_accept_rate(trials, 0.1) == 100.0
    assert asv_accept_rate(trials, 0.95) == 0.0
    with pytest.raises(EmptyInputError):
        asv_accept_rate([], 0.5)


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
    with pytest.raises(EmptyInputError):
        eer_threshold([], [0.5])


def test_calibrate_asv_threshold():
    rng = np.random.default_rng(5)

    def _cluster(center, n=4):
        return [SpeakerEmbedding.from_raw(center + 0.05 * rng.standard_normal(8))
                for _ in range(n)]

    ca, cb = rng.standard_normal(8), rng.standard_normal(8)
    table = {"spk_a": _cluster(ca), "spk_b": _cluster(cb)}
    threshold = calibrate_asv_threshold(table)
    # within-speaker pairs sit near 1; the threshold must separate the clusters
    genuine = [cosine_similarity(a, b)
               for group in table.values()
               for i, a in enumerate(group) for b in group[i + 1:]]
    impostor = [cosine_similarity(a, b)
                for a in table["spk_a"] for b in table["spk_b"]]
    assert max(impostor) < threshold <= min(genuine)


def test_calibrate_asv_threshold_needs_two_speakers():
    emb = SpeakerEmbedding.from_raw(np.ones(4))
    with pytest.raises(EmptyInputError):
        calibrate_asv_threshold({"only": [emb, emb]})


# --- correlation -------------------------------------------------------------------

def test_pearson_exact():
    x = [1.0, 2.0, 3.0, 4.0]
    assert abs(pearson(x, [2 * v + 1 for v in x]) - 1.0) < 1e-12
    assert abs(pearson(x, [-3 * v for v in x]) + 1.0) < 1e-12
    assert abs(pearson([1, 2, 3], [1, 2, 4]) - 9.0 / np.sqrt(84.0)) < 1e-12


def test_pearson_errors():
    with pytest.raises(LengthMismatchError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(InsufficientRowsError):
        pearson([1], [2])
    with pytest.raises(DegenerateVarianceError):
        pearson([1, 1, 1], [1, 2, 3])


def test_metrics_row_validation():
    row = MetricsRow("sys", mcd=7.0, wer=20.0, asv=60.0,
                     naturalness=3.5, similarity=70.0)
    assert row.naturalness == 3.5
    with pytest.raises(VoiceConversionError):
        MetricsRow("sys", mcd=-1.0, wer=20.0, asv=60.0)
    with pytest.raises(VoiceConversionError):
        MetricsRow("sys", mcd=7.0, wer=20.0, asv=120.0)
    with pytest.raises(VoiceConversionError):
        MetricsRow("sys", mcd=7.0, wer=20.0, asv=60.0, naturalness=0.5)
    with pytest.raises(VoiceConversionError):
        MetricsRow("sys", mcd=7.0, wer=20.0, asv=60.0, similarity=150.0)
    with pytest.raises(VoiceConversionError):
        MetricsRow("sys", mcd=None, wer=20.0, asv=60.0)


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
    result = correlation_matrix(_demo_rows())
    assert result.labels == METRIC_LABELS
    matrix = result.matrix
    assert matrix.shape == (5, 5)
    np.testing.assert_allclose(np.diag(matrix), 1.0)
    np.testing.assert_allclose(matrix, matrix.T)
    assert np.all(np.abs(matrix) <= 1.0)
    # spot-check one entry against a direct computation
    rows = _demo_rows()
    direct = pearson([r.mcd for r in rows], [r.naturalness for r in rows])
    assert abs(matrix[0, 3] - direct) < 1e-12
    # quality-driven rows: distortion anticorrelates with naturalness
    assert matrix[0, 3] < -0.8


def test_correlation_matrix_to_dict():
    d = correlation_matrix(_demo_rows()).to_dict()
    assert d["labels"] == list(METRIC_LABELS)
    assert len(d["matrix"]) == 5 and len(d["matrix"][0]) == 5


def test_correlation_matrix_errors():
    rows = _demo_rows()
    with pytest.raises(InsufficientRowsError):
        correlation_matrix(rows[:2])
    bare = MetricsRow("bare", mcd=7.0, wer=20.0, asv=60.0)
    with pytest.raises(MissingFieldError):
        correlation_matrix([bare, rows[0], rows[1]])
    flat = [MetricsRow(f"f{k}", mcd=7.0, wer=20.0 + k, asv=60.0 - k,
                       naturalness=3.0, similarity=50.0 + k)
            for k in range(3)]
    with pytest.raises(DegenerateVarianceError):
        correlation_matrix(flat)


# --- table io ----------------------------------------------------------------------

def test_metrics_table_round_trip(tmp_path):
    rows = _demo_rows()[:3] + [MetricsRow("partial", mcd=8.0, wer=30.0, asv=55.0)]
    path = tmp_path / "metrics.tsv"
    write_metrics_table(path, rows)
    back = read_metrics_table(path)
    assert [r.system for r in back] == [r.system for r in rows]
    for orig, loaded in zip(rows, back):
        for key in ("mcd", "wer", "asv"):
            assert abs(getattr(orig, key) - getattr(loaded, key)) < 1e-4
    assert back[-1].naturalness is None
    assert back[-1].similarity is None


def test_metrics_table_comments_and_blanks(tmp_path):
    path = tmp_path / "metrics.tsv"
    path.write_text(
        "# a comment\n"
        "\n"
        "system\tmcd\twer\tasv\n"
        "sys0\t7.0\t20.0\t60.0\n"
        "\n"
        "# trailing note\n"
    )
    rows = read_metrics_table(path)
    assert len(rows) == 1
    assert rows[0].system == "sys0"
    assert rows[0].naturalness is None


def test_metrics_table_unknown_column(tmp_path):
    path = tmp_path / "metrics.tsv"
    path.write_text("system\tmcd\twer\tasv\tbogus\n")
    with pytest.raises(MissingFieldError):
        read_metrics_table(path)


def test_metrics_table_bad_number(tmp_path):
    path = tmp_path / "metrics.tsv"
    path.write_text("system\tmcd\twer\tasv\nsys0\tseven\t20.0\t60.0\n")
    with pytest.raises(MissingFieldError):
        read_metrics_table(path)
