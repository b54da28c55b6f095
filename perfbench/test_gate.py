"""The benchmark's correctness gate must report a wrong answer or a failed exit as a failure."""

import pytest

import run as bench

WORKLOAD = bench.WORKLOADS["desk-orbit"]


@pytest.fixture
def orbit(tmp_path, monkeypatch):
    monkeypatch.setenv("LFE_VERBOSITY", "0")
    stored = bench.load_reference()
    reference = {"x0": stored["x0"]["desk-orbit"], "tolerance": stored["tolerance"]}
    config = bench.write_config(WORKLOAD, WORKLOAD.default_seed, tmp_path)
    return config, tmp_path / "out", reference


def planted(reference):
    x0 = list(reference["x0"])
    x0[2] += 100 * reference["tolerance"]
    return {"x0": x0, "tolerance": reference["tolerance"]}


def test_gate_accepts_the_reference_and_rejects_a_planted_x0(orbit):
    config, out, reference = orbit
    _, reason = bench.invoke(WORKLOAD, config, out, reference)
    assert reason is None
    reason = bench.check(WORKLOAD, out, 0, planted(reference))
    assert reason is not None and "from the reference" in reason


def test_planted_x0_counts_every_call_as_failed(orbit):
    config, out, reference = orbit
    tally = bench.Tally()
    samples = bench.measure_wall(WORKLOAD, config, out, planted(reference), 0.0, tally)
    assert len(samples["seconds"]) == 1
    assert tally.attempted == 2 and tally.failed == 2
    assert all("from the reference" in r for r in tally.reasons)


def test_nonzero_exit_and_crash_are_failures(orbit, tmp_path):
    _, out, reference = orbit
    tally = bench.Tally()
    bench.measure_wall(WORKLOAD, tmp_path / "missing.ini", out, reference, 0.0, tally)
    assert tally.attempted == 2 and tally.failed == 2
    assert tally.reasons == ["exit code 4", "exit code 4"]

    def crash(argv):
        raise RuntimeError("planted")

    _, reason = bench.invoke(WORKLOAD, tmp_path / "missing.ini", out, reference, call=crash)
    assert reason is not None and "planted" in reason


def test_probe_rescales_and_restores_the_signal_handler():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.Probe(speed.python_kernel(), speed.PYTHON_REFERENCE_S, interval_s=0.01)
    with probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.probe_s) >= 3
    assert 0 < probe.own_s < probe.raw_s
    assert probe.seconds == probe.own_s / probe.slowdown
