"""Tests for the live-progress tracker and its terminal renderer."""

import io

from repro.observability import (
    MetricsRegistry,
    ProgressRenderer,
    ProgressSnapshot,
    ProgressTracker,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def tracker(clock, registry=None, on_update=None, min_interval=0.5):
    return ProgressTracker(
        registry=registry,
        on_update=on_update,
        min_interval=min_interval,
        clock=clock,
    )


class TestProgressTracker:
    def test_rate_and_eta_extrapolate_from_fresh_work(self):
        clock = FakeClock()
        progress = tracker(clock)
        progress.set_total_cubes(4)
        clock.advance(2.0)
        progress.add_scenarios(100)
        progress.cube_done()
        snap = progress.snapshot()
        assert snap.scenarios == 100
        assert snap.rate == 50.0
        assert snap.cubes_done == 1
        assert snap.cubes_total == 4
        # 1 of 4 cubes in 2s -> 3 more cubes -> 6s to go
        assert snap.eta_seconds == 6.0

    def test_eta_unknown_until_first_cube_and_zero_when_done(self):
        clock = FakeClock()
        progress = tracker(clock)
        progress.set_total_cubes(2)
        clock.advance(1.0)
        assert progress.snapshot().eta_seconds is None
        progress.cube_done()
        progress.cube_done()
        assert progress.snapshot().eta_seconds == 0.0

    def test_preseeded_checkpoint_work_excluded_from_rate(self):
        clock = FakeClock()
        progress = tracker(clock)
        progress.set_total_cubes(4, done=2)
        progress.preseed_scenarios(1000)
        clock.advance(2.0)
        progress.add_scenarios(50)
        progress.cube_done()
        snap = progress.snapshot()
        # shown: resumed + fresh; rated: fresh only
        assert snap.scenarios == 1050
        assert snap.cubes_done == 3
        assert snap.rate == 25.0
        # 1 fresh cube of 2 fresh in 2s -> 2s remaining
        assert snap.eta_seconds == 2.0

    def test_eta_extrapolates_over_scenarios_with_unequal_cubes(self):
        clock = FakeClock()
        progress = tracker(clock)
        # a 900-scenario cube dispatched first, then nine of 100
        progress.set_total_cubes(10, scenarios=1800)
        clock.advance(3.0)
        progress.add_scenarios(900)
        progress.cube_done()
        # half the scenarios in 3s -> 3s to go (the cube ratio says 27s)
        assert progress.snapshot().eta_seconds == 3.0
        clock.advance(1.0)
        progress.add_scenarios(300)
        assert progress.snapshot().eta_seconds == 2.0
        progress.add_scenarios(600)
        progress.cube_done(9)
        assert progress.snapshot().eta_seconds == 0.0

    def test_scenario_eta_excludes_resumed_scenarios(self):
        clock = FakeClock()
        progress = tracker(clock)
        progress.set_total_cubes(4, done=2, scenarios=1000)
        progress.preseed_scenarios(600)
        clock.advance(2.0)
        progress.add_scenarios(200)
        # 200 fresh scenarios in 2s, 200 left
        assert progress.snapshot().eta_seconds == 2.0

    def test_scenario_eta_covers_the_current_sweep_only(self):
        clock = FakeClock()
        progress = tracker(clock)
        progress.set_total_cubes(2, scenarios=100)
        clock.advance(1.0)
        progress.add_scenarios(100)
        progress.cube_done(2)
        # a second sweep fed to the same tracker
        progress.set_total_cubes(4, scenarios=400)
        clock.advance(2.0)
        progress.add_scenarios(100)
        # 100 of its 400 in the 2s since its layout was declared
        assert progress.snapshot().eta_seconds == 6.0

    def test_updates_throttled_by_min_interval(self):
        clock = FakeClock()
        seen = []
        progress = tracker(clock, on_update=seen.append, min_interval=0.5)
        for _ in range(10):
            progress.add_scenarios(1)
        assert seen == []  # no time passed: throttled
        clock.advance(0.6)
        progress.add_scenarios(1)
        assert len(seen) == 1
        progress.add_scenarios(1)
        assert len(seen) == 1  # throttled again until the next window

    def test_export_publishes_progress_gauges(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        progress = tracker(clock, registry=registry)
        progress.set_total_cubes(8)
        clock.advance(1.0)
        progress.add_scenarios(40)
        progress.cube_done(2)
        progress.export()
        assert registry.gauge("repro_progress_scenarios").value == 40
        assert (
            registry.gauge("repro_progress_scenarios_per_second").value
            == 40.0
        )
        assert registry.gauge("repro_progress_cubes_done").value == 2
        assert registry.gauge("repro_progress_cubes_total").value == 8
        assert registry.gauge("repro_progress_eta_seconds").value == 3.0
        assert registry.gauge("repro_progress_elapsed_seconds").value == 1.0

    def test_unknown_eta_exports_minus_one(self):
        registry = MetricsRegistry()
        progress = tracker(FakeClock(), registry=registry)
        progress.export()
        assert registry.gauge("repro_progress_eta_seconds").value == -1.0

    def test_finish_forces_update_and_export(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        seen = []
        progress = tracker(clock, registry=registry, on_update=seen.append)
        progress.add_scenarios(3)  # below the throttle window
        snap = progress.finish()
        assert seen == [snap]
        assert snap.scenarios == 3
        assert registry.gauge("repro_progress_scenarios").value == 3


class TestProgressRenderer:
    def _snapshot(self, **overrides):
        defaults = dict(
            scenarios=120,
            rate=60.0,
            cubes_done=2,
            cubes_total=4,
            elapsed=2.0,
            eta_seconds=2.0,
        )
        defaults.update(overrides)
        return ProgressSnapshot(**defaults)

    def test_renders_carriage_return_line(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream)
        renderer.update(self._snapshot())
        out = stream.getvalue()
        assert out.startswith("\r")
        assert "120 scenarios" in out
        assert "60/s" in out
        assert "cubes 2/4" in out
        assert "ETA 0:02" in out

    def test_shorter_line_padded_over_previous(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream)
        renderer.update(self._snapshot(scenarios=1000000))
        long_width = len(stream.getvalue()) - 1  # minus the \r
        renderer.update(self._snapshot(scenarios=1))
        # the second write blanks the leftovers of the first
        second = stream.getvalue().split("\r")[2]
        assert len(second) == long_width

    def test_close_ends_the_line_once(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream)
        renderer.update(self._snapshot())
        renderer.close()
        renderer.close()
        assert stream.getvalue().endswith("\n")
        assert stream.getvalue().count("\n") == 1

    def test_close_without_render_writes_nothing(self):
        stream = io.StringIO()
        ProgressRenderer(stream=stream).close()
        assert stream.getvalue() == ""

    def test_broken_stream_goes_silent(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream)
        renderer.update(self._snapshot())
        stream.close()
        renderer.update(self._snapshot())  # must not raise
        renderer.close()

    def test_snapshot_render_skips_unknown_parts(self):
        text = self._snapshot(
            cubes_total=0, cubes_done=0, eta_seconds=None
        ).render()
        assert "cubes" not in text
        assert "ETA" not in text
        assert "120 scenarios" in text
