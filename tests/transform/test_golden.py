"""Golden-file snapshot tests: generated artifacts are byte-stable.

The XMI export and the XSLT-produced CNX descriptor for the guiding
example are checked against committed snapshots.  Any intentional change
to id allocation, attribute ordering, indentation, or the stylesheet
shows up as a reviewable diff here rather than as silent drift.
"""

from pathlib import Path

from repro.apps.floyd.model import build_fig3_model
from repro.core.transform.xmi2cnx import xmi_to_cnx_text
from repro.core.xmi import write_graph

DATA = Path(__file__).parent.parent / "data"


def test_fig3_xmi_snapshot():
    generated = write_graph(build_fig3_model(n_workers=5))
    assert generated == (DATA / "fig3_model.xmi").read_text()


def test_fig2_cnx_snapshot():
    xmi = write_graph(build_fig3_model(n_workers=5))
    generated = xmi_to_cnx_text(xmi, log="CN_Client1047909210005.log")
    assert generated == (DATA / "fig2_descriptor.cnx").read_text()


def test_snapshots_parse():
    from repro.analysis import validate_cnx
    from repro.core.cnx import parse
    from repro.core.xmi import read_graphs

    graphs = read_graphs((DATA / "fig3_model.xmi").read_text())
    assert graphs[0].name == "TransClosure"
    doc = parse((DATA / "fig2_descriptor.cnx").read_text())
    validate_cnx(doc)
    assert doc.client.jobs[0].task_names()[0] == "tctask0"
