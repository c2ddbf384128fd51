"""SARIF export: emitted documents validate, the validator bites."""

import copy
import json

from repro.check import (
    Baseline,
    Suppression,
    lint_source,
    sarif_to_json,
    to_sarif,
    validate_sarif,
)
from repro.check.findings import RULES
from textwrap import dedent

BAD = dedent(
    """\
    import time

    async def leaky():
        time.sleep(0.1)
    """
)


def result_with_suppression():
    findings = lint_source(BAD, "pkg/fix.py")
    baseline = Baseline(suppressions=[Suppression(
        code="RC101", path="pkg/fix.py", symbol="leaky", reason="test"
    )])
    return findings, baseline.apply(findings)


class TestEmission:
    def test_emitted_document_validates(self):
        findings = lint_source(BAD, "pkg/fix.py")
        result = Baseline(suppressions=[]).apply(findings)
        doc = to_sarif(result, tool_version="9")
        assert validate_sarif(doc) == []
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check"
        assert run["tool"]["driver"]["version"] == "9"

    def test_rule_catalog_is_complete(self):
        result = Baseline(suppressions=[]).apply([])
        doc = to_sarif(result)
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == sorted(RULES)
        assert all(r["shortDescription"]["text"] for r in rules)

    def test_active_finding_shape(self):
        findings = lint_source(BAD, "pkg/fix.py")
        doc = to_sarif(Baseline(suppressions=[]).apply(findings))
        res = doc["runs"][0]["results"][0]
        assert res["ruleId"] == "RC101"
        assert res["level"] == "error"
        assert "[leaky]" in res["message"]["text"]
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "pkg/fix.py"
        assert loc["region"]["startLine"] == 4
        assert loc["region"]["startColumn"] >= 1  # SARIF is 1-based
        assert "suppressions" not in res

    def test_suppressed_finding_is_kept_and_marked(self):
        _, result = result_with_suppression()
        assert result.ok
        doc = to_sarif(result)
        assert validate_sarif(doc) == []
        results = doc["runs"][0]["results"]
        assert len(results) == 1
        sup = results[0]["suppressions"]
        assert sup[0]["kind"] == "external"
        assert ".repro-check.toml" in sup[0]["justification"]

    def test_json_round_trip(self):
        findings = lint_source(BAD, "pkg/fix.py")
        payload = sarif_to_json(Baseline(suppressions=[]).apply(findings))
        doc = json.loads(payload)
        assert validate_sarif(doc) == []
        assert doc["version"] == "2.1.0"


class TestValidator:
    def make_valid(self):
        findings = lint_source(BAD, "pkg/fix.py")
        return to_sarif(Baseline(suppressions=[]).apply(findings))

    def test_not_an_object(self):
        assert validate_sarif([]) == ["document is not an object"]

    def test_wrong_version(self):
        doc = self.make_valid()
        doc["version"] = "1.0.0"
        assert any("version" in e for e in validate_sarif(doc))

    def test_missing_runs(self):
        assert any("runs" in e for e in validate_sarif({"version": "2.1.0"}))

    def test_unknown_rule_id(self):
        doc = self.make_valid()
        doc["runs"][0]["results"][0]["ruleId"] = "RC999"
        assert any("RC999" in e for e in validate_sarif(doc))

    def test_missing_message_text(self):
        doc = self.make_valid()
        doc["runs"][0]["results"][0]["message"] = {}
        assert any("message.text" in e for e in validate_sarif(doc))

    def test_missing_uri(self):
        doc = self.make_valid()
        loc = doc["runs"][0]["results"][0]["locations"][0]
        del loc["physicalLocation"]["artifactLocation"]["uri"]
        assert any("uri" in e for e in validate_sarif(doc))

    def test_zero_based_position_rejected(self):
        doc = self.make_valid()
        loc = doc["runs"][0]["results"][0]["locations"][0]
        loc["physicalLocation"]["region"]["startColumn"] = 0
        assert any("startColumn" in e for e in validate_sarif(doc))

    def test_duplicate_rule_ids_rejected(self):
        doc = self.make_valid()
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        rules.append(copy.deepcopy(rules[0]))
        assert any("duplicate" in e for e in validate_sarif(doc))

    def test_missing_driver_name(self):
        doc = self.make_valid()
        del doc["runs"][0]["tool"]["driver"]["name"]
        assert any("driver.name" in e for e in validate_sarif(doc))
