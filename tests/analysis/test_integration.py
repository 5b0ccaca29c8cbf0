"""Analyzer wired into the pipeline: client runner refusal, portal
rejection, and warning passthrough."""

import json
from pathlib import Path

import pytest

from repro.analysis import CnxValidationError
from repro.cn import Cluster
from repro.cn.client import ClientRunner
from repro.cn.portal import Portal
from repro.cn.registry import TaskRegistry
from repro.core.cnx import parse
from repro.core.xmi import write_graph

DATA = Path(__file__).parent.parent / "data"
DEFECTS = DATA / "defects"


@pytest.fixture(scope="module")
def cluster():
    from repro.apps.montecarlo import register_pi_tasks

    with Cluster(3, registry=register_pi_tasks(TaskRegistry())) as c:
        yield c


class TestClientRunnerRefusal:
    def test_defective_descriptor_refused_with_diagnostics(self, cluster):
        doc = parse((DEFECTS / "cycle.cnx").read_text())
        runner = ClientRunner(cluster)
        with pytest.raises(CnxValidationError) as excinfo:
            runner.run(doc)
        assert any("dependency cycle" in p for p in excinfo.value.problems)
        codes = {d.code for d in excinfo.value.diagnostics}
        assert "CN104" in codes
        # the cluster context also resolves archives: t.jar isn't registered
        assert "CN801" in codes

    def test_deadlocked_descriptor_never_reaches_cluster(self, cluster):
        doc = parse((DEFECTS / "deadlock.cnx").read_text())
        with pytest.raises(CnxValidationError) as excinfo:
            ClientRunner(cluster).run(doc)
        assert any(d.code == "CN504" for d in excinfo.value.diagnostics)

    def test_clean_run_collects_warnings(self, cluster):
        from repro.apps.montecarlo import build_pi_model
        from repro.core.transform.xmi2cnx import graph_to_cnx

        doc = graph_to_cnx(build_pi_model(samples=2000, seed=3, n_workers=2))
        result = ClientRunner(cluster).run(doc)
        assert result.warnings == []
        assert result.results["pijoin"]["samples"] == 2000

    def test_analyze_exposes_full_report(self, cluster):
        from repro.apps.montecarlo import build_pi_model
        from repro.core.transform.xmi2cnx import graph_to_cnx

        doc = graph_to_cnx(build_pi_model(n_workers=2))
        report = ClientRunner(cluster).analyze(doc)
        assert report.ok


class TestPortalRejection:
    @pytest.fixture(scope="class")
    def portal(self):
        from repro.apps.montecarlo import register_pi_tasks

        portal = Portal(
            Cluster(3, registry=register_pi_tasks(TaskRegistry()),
                    memory_per_node=64000),
            transform="native",
        )
        yield portal
        portal.close()
        portal.cluster.shutdown()

    def test_defective_model_rejected_before_pipeline(self, portal):
        submission = portal.submit((DEFECTS / "missing_class.xmi").read_text())
        assert submission.status == "rejected"
        assert submission.cnx_text == ""  # pipeline never ran
        codes = {d["code"] for d in submission.diagnostics}
        assert "CN202" in codes
        assert "CN001" in codes
        assert "static analysis" in submission.error

    def test_rejection_diagnostics_downloadable(self, portal):
        submission = portal.submit((DEFECTS / "missing_class.xmi").read_text())
        artifact = submission.artifacts()["diagnostics"]
        findings = json.loads(artifact)
        assert any(f["code"] == "CN202" for f in findings)
        assert all(
            {"code", "severity", "message", "location", "hint"} <= set(f)
            for f in findings
        )

    def test_clean_submission_still_done(self, portal):
        from repro.apps.montecarlo import build_pi_model

        submission = portal.submit(
            write_graph(build_pi_model(samples=2000, seed=1, n_workers=2))
        )
        assert submission.status == "done"
        assert submission.diagnostics == []

    def test_http_rejection_is_422(self, portal):
        import urllib.error
        import urllib.request

        from repro.cn.portal import PortalHTTPServer

        server = PortalHTTPServer(portal).start()
        try:
            host, port = server.address
            request = urllib.request.Request(
                f"http://{host}:{port}/submit",
                data=(DEFECTS / "missing_class.xmi").read_text().encode(),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 422
            payload = json.loads(excinfo.value.read())
            assert payload["status"] == "rejected"
            assert any(f["code"] == "CN202" for f in payload["findings"])
        finally:
            server.stop()
