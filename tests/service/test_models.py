"""Wire-contract tests for the service request/response models."""

from __future__ import annotations

import pytest

from repro.service.models import (
    DEFAULT_PRIORITY,
    DEFAULT_TENANT,
    STATUS_CANCELLED,
    STATUS_FAILED,
    STATUS_QUARANTINED,
    STATUS_QUEUED,
    STATUS_RUNNING,
    STATUS_SUCCEEDED,
    TERMINAL_STATUSES,
    JobEvent,
    ServiceJob,
    SubmitRequest,
    ValidationError,
    new_job_id,
)


def make_job(**overrides) -> ServiceJob:
    fields = dict(
        job_id="job-abc",
        tenant="t",
        priority=10,
        experiment_id="ok",
        payload={"job_id": "job-abc", "params": {}},
        cache_key="deadbeef",
    )
    fields.update(overrides)
    return ServiceJob(**fields)


class TestSubmitRequest:
    def test_minimal_body_gets_defaults(self):
        req = SubmitRequest.from_dict({"experiment": "fig5"})
        assert req.experiment == "fig5"
        assert req.tenant == DEFAULT_TENANT
        assert req.priority == DEFAULT_PRIORITY
        assert req.quick is False and req.observe is False
        assert req.replicas is None and req.fault_plan is None

    def test_full_body_round_trips(self):
        req = SubmitRequest.from_dict(
            {
                "experiment": "ensemble",
                "tenant": "  team-a  ",
                "priority": 0,
                "quick": True,
                "observe": True,
                "replicas": 4,
                "fault_plan": "storm",
                "tuned": False,
                "deadline_seconds": 30,
            }
        )
        assert req.tenant == "team-a"  # whitespace stripped
        assert req.priority == 0
        assert req.replicas == 4
        assert req.tuned is False
        assert req.deadline_seconds == 30.0

    def test_rejects_non_object_body(self):
        with pytest.raises(ValidationError, match="JSON object"):
            SubmitRequest.from_dict([1, 2])

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown field.*timeout"):
            SubmitRequest.from_dict({"experiment": "x", "timeout": 5})

    def test_rejects_a_force_path(self):
        with pytest.raises(
            ValidationError, match=r"^unknown field\(s\): force_path$"
        ):
            SubmitRequest.from_dict({"experiment": "fig9", "force_path": "cell"})

    def test_requires_experiment(self):
        with pytest.raises(ValidationError, match="experiment"):
            SubmitRequest.from_dict({})
        with pytest.raises(ValidationError, match="experiment"):
            SubmitRequest.from_dict({"experiment": ""})

    @pytest.mark.parametrize("priority", [-1, 100, "5", 5.0, True])
    def test_rejects_out_of_band_priorities(self, priority):
        with pytest.raises(ValidationError, match="priority"):
            SubmitRequest.from_dict({"experiment": "x", "priority": priority})

    @pytest.mark.parametrize("replicas", [0, -2, "4", True])
    def test_rejects_bad_replicas(self, replicas):
        with pytest.raises(ValidationError, match="replicas"):
            SubmitRequest.from_dict({"experiment": "x", "replicas": replicas})

    def test_rejects_blank_tenant(self):
        with pytest.raises(ValidationError, match="tenant"):
            SubmitRequest.from_dict({"experiment": "x", "tenant": "   "})

    def test_rejects_non_bool_flags(self):
        with pytest.raises(ValidationError, match="quick"):
            SubmitRequest.from_dict({"experiment": "x", "quick": 1})
        with pytest.raises(ValidationError, match="observe"):
            SubmitRequest.from_dict({"experiment": "x", "observe": "yes"})

    def test_deadline_seconds_accepted(self):
        req = SubmitRequest.from_dict(
            {"experiment": "x", "deadline_seconds": 2.5}
        )
        assert req.deadline_seconds == 2.5

    @pytest.mark.parametrize("deadline", [0, -1, "5", True, float("nan")])
    def test_rejects_bad_deadlines(self, deadline):
        with pytest.raises(ValidationError, match="deadline_seconds"):
            SubmitRequest.from_dict(
                {"experiment": "x", "deadline_seconds": deadline}
            )


class TestJobEvent:
    def test_detail_omitted_when_empty(self):
        bare = JobEvent(seq=0, status=STATUS_QUEUED, at_unix=1.0)
        assert "detail" not in bare.to_dict()
        rich = JobEvent(seq=1, status=STATUS_FAILED, at_unix=2.0, detail="x")
        assert rich.to_dict()["detail"] == "x"


class TestServiceJob:
    def test_new_job_ids_are_unique_and_routable(self):
        ids = {new_job_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(jid.startswith("job-") for jid in ids)

    def test_event_log_is_ordered(self):
        job = make_job()
        job.add_event(STATUS_QUEUED, detail="accepted")
        job.add_event(STATUS_RUNNING)
        assert [e.seq for e in job.events] == [0, 1]
        assert [e.status for e in job.events] == [
            STATUS_QUEUED,
            STATUS_RUNNING,
        ]

    def test_terminal_statuses(self):
        job = make_job()
        assert not job.terminal
        for status in TERMINAL_STATUSES:
            job.status = status
            assert job.terminal
        job.status = STATUS_RUNNING
        assert not job.terminal

    def test_doc_hides_result_fields_until_terminal(self):
        job = make_job(record={"all_passed": True, "wall_seconds": 1.5})
        assert "all_passed" not in job.to_doc()
        job.status = STATUS_SUCCEEDED
        doc = job.to_doc()
        assert doc["all_passed"] is True
        assert doc["wall_seconds"] == 1.5
        assert "traceback" not in doc  # only present when recorded

    def test_doc_carries_traceback_of_failed_jobs(self):
        job = make_job(
            status=STATUS_FAILED,
            record={"traceback": "Boom", "all_passed": None},
        )
        assert job.to_doc()["traceback"] == "Boom"

    def test_doc_events_are_wire_dicts(self):
        job = make_job()
        job.add_event(STATUS_QUEUED)
        job.status = STATUS_CANCELLED
        doc = job.to_doc()
        assert doc["events"][0]["status"] == STATUS_QUEUED
        assert doc["status"] == STATUS_CANCELLED

    def test_quarantined_is_terminal(self):
        job = make_job(status=STATUS_QUARANTINED)
        assert job.terminal

    def test_journal_document_round_trips(self):
        job = make_job(deadline_seconds=12.5)
        doc = job.to_journal()
        rebuilt = ServiceJob.from_journal(doc)
        assert rebuilt.job_id == job.job_id
        assert rebuilt.tenant == job.tenant
        assert rebuilt.priority == job.priority
        assert rebuilt.payload == job.payload
        assert rebuilt.cache_key == job.cache_key
        assert rebuilt.created_unix == job.created_unix
        assert rebuilt.deadline_seconds == 12.5
        assert rebuilt.status == STATUS_QUEUED
        # runtime-only state never crosses the journal
        assert rebuilt.cancel_event is None
        assert rebuilt.preempt_reason is None

    def test_journal_document_omits_unset_deadline(self):
        doc = make_job().to_journal()
        assert "deadline_seconds" not in doc
        assert ServiceJob.from_journal(doc).deadline_seconds is None

    def test_deadline_remaining_counts_from_creation(self):
        job = make_job(created_unix=1000.0, deadline_seconds=5.0)
        assert job.deadline_unix == 1005.0
        assert job.deadline_remaining(now=1002.0) == 3.0
        assert job.deadline_remaining(now=1008.0) == -3.0
        assert make_job().deadline_remaining(now=1.0) is None

    def test_doc_surfaces_deadline_and_hang_preempts(self):
        doc = make_job(deadline_seconds=4.0, hang_preempts=2).to_doc()
        assert doc["deadline_seconds"] == 4.0
        assert doc["hang_preempts"] == 2
        assert "hang_preempts" not in make_job().to_doc()
