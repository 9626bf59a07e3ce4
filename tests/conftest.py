import logging

import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def pipeline_out(tmp_path_factory, sf_dir, ray_session):
    """One shared flagship run on sf0.001 for all view/count tests."""
    from hypertrace_ingester_ray.pipelines.ingest import PipelineConfig, run_pipeline
    from hypertrace_ingester_ray.sources.transcripts import transcripts_from_events

    out = str(tmp_path_factory.mktemp("run"))
    summary = run_pipeline(
        transcripts_from_events(sf_dir),
        out,
        PipelineConfig(num_partitions=8),
    )
    return out, summary
