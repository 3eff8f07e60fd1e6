"""The unified logging namespace (repro.telemetry.logbridge)."""

import io
import logging

from repro.telemetry import configure_logging, get_logger


def test_loggers_land_under_the_repro_namespace():
    assert get_logger("beam.engine").name == "repro.beam.engine"
    assert get_logger("repro.beam.engine").name == "repro.beam.engine"
    assert get_logger().name == "repro"
    assert get_logger("repro").name == "repro"


def test_instrumented_modules_share_the_namespace():
    """The six unified call sites all hang off the ``repro`` root logger."""
    import importlib

    for name in (
        "repro.faultsim.target",
        "repro.beam.experiment",
        "repro.beam.exposure",
        "repro.beam.cross_sections",
        "repro.predict.model",
        "repro.experiments.fig3",
    ):
        module = importlib.import_module(name)
        assert module._log.name.startswith("repro."), name


def test_configure_logging_routes_to_stream():
    stream = io.StringIO()
    configure_logging(logging.DEBUG, stream=stream)
    try:
        get_logger("beam.engine").debug("hello %d", 7)
        out = stream.getvalue()
        assert "repro.beam.engine" in out
        assert "hello 7" in out
        assert "DEBUG" in out
    finally:
        logging.getLogger("repro").setLevel(logging.WARNING)


def test_configure_logging_is_idempotent():
    first, second = io.StringIO(), io.StringIO()
    configure_logging(logging.INFO, stream=first)
    configure_logging(logging.INFO, stream=second)  # replaces, never stacks
    try:
        get_logger("beam").info("once")
        assert first.getvalue() == ""
        assert second.getvalue().count("once") == 1
    finally:
        logging.getLogger("repro").setLevel(logging.WARNING)


def test_configure_logging_accepts_level_names():
    stream = io.StringIO()
    root = configure_logging("DEBUG", stream=stream)
    try:
        assert root.level == logging.DEBUG
    finally:
        root.setLevel(logging.WARNING)


def test_quiet_by_default():
    """Library best practice: importing repro must not emit to stderr
    (a NullHandler sits on the root; handlers appear only on opt-in)."""
    root = logging.getLogger("repro")
    assert any(isinstance(h, logging.NullHandler) for h in root.handlers)
