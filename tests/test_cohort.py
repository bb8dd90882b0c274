import csv
import random
from datetime import datetime, timedelta

import pytest
from hypothesis import given, strategies as st

from clinnote.cohort import (
    AdmissionRecord,
    CohortStore,
    ReadmissionPair,
    build_readmission_pairs,
    filter_hf_cohort,
    load_tables,
    summarize_cohort,
    write_csv,
    write_jsonl,
)
from clinnote.errors import ConfigError


def _write_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _tables(tmp_path, admissions, diagnoses, notes):
    a = tmp_path / "admissions.csv"
    d = tmp_path / "diagnoses.csv"
    n = tmp_path / "notes.csv"
    _write_csv(a, ["subject_id", "hadm_id", "admit_time", "discharge_time", "dob"],
               admissions)
    _write_csv(d, ["subject_id", "hadm_id", "icd9_code"], diagnoses)
    _write_csv(n, ["subject_id", "hadm_id", "category", "chart_date", "text"], notes)
    return str(a), str(d), str(n)


def _adm(subject, hadm, admit, discharge, dob=""):
    return {"subject_id": subject, "hadm_id": hadm, "admit_time": admit,
            "discharge_time": discharge, "dob": dob}


class TestLoadTables:
    def test_single_row_join(self, tmp_path):
        a, d, n = _tables(
            tmp_path,
            [_adm("S1", "H1", "2100-01-01T00:00:00", "2100-01-05T00:00:00")],
            [{"subject_id": "S1", "hadm_id": "H1", "icd9_code": "42822"}],
            [{"subject_id": "S1", "hadm_id": "H1", "category": "Discharge summary",
              "chart_date": "2100-01-05T00:00:00", "text": "note body"}],
        )
        store = load_tables(a, d, n)
        assert len(store.admissions) == 1
        rec = store.admissions["H1"]
        assert rec.icd9_codes == ["42822"]
        assert rec.discharge_note == "note body"

    def test_no_note_rows(self, tmp_path):
        a, d, n = _tables(
            tmp_path,
            [_adm("S1", "H1", "2100-01-01T00:00:00", "2100-01-05T00:00:00")],
            [], [],
        )
        store = load_tables(a, d, n)
        assert store.admissions["H1"].discharge_note is None

    def test_latest_note_wins(self, tmp_path):
        a, d, n = _tables(
            tmp_path,
            [_adm("S1", "H1", "2100-01-01T00:00:00", "2100-01-05T00:00:00")],
            [],
            [
                {"subject_id": "S1", "hadm_id": "H1", "category": "Discharge summary",
                 "chart_date": "2100-01-04T00:00:00", "text": "early"},
                {"subject_id": "S1", "hadm_id": "H1", "category": "Discharge summary",
                 "chart_date": "2100-01-05T00:00:00", "text": "late"},
            ],
        )
        store = load_tables(a, d, n)
        assert store.admissions["H1"].discharge_note == "late"

    def test_blank_discharge_text_is_no_note(self, tmp_path):
        a, d, n = _tables(
            tmp_path,
            [_adm("S1", "H1", "2100-01-01T00:00:00", "2100-01-05T00:00:00"),
             _adm("S2", "H2", "2100-01-01T00:00:00", "2100-01-05T00:00:00")],
            [],
            [
                {"subject_id": "S1", "hadm_id": "H1", "category": "Discharge summary",
                 "chart_date": "2100-01-04T00:00:00", "text": "early"},
                {"subject_id": "S1", "hadm_id": "H1", "category": "Discharge summary",
                 "chart_date": "2100-01-05T00:00:00", "text": " \n\t "},
                {"subject_id": "S2", "hadm_id": "H2", "category": "Discharge summary",
                 "chart_date": "2100-01-05T00:00:00", "text": "   "},
            ],
        )
        store = load_tables(a, d, n)
        assert store.admissions["H1"].discharge_note == "early"  # the blank one is no rival
        assert store.admissions["H2"].discharge_note is None
        assert store.note_counts == {"H1": 2, "H2": 1}

    def test_multiline_note_text(self, tmp_path):
        a, d, n = _tables(
            tmp_path,
            [_adm("S1", "H1", "2100-01-01T00:00:00", "2100-01-05T00:00:00")],
            [],
            [{"subject_id": "S1", "hadm_id": "H1", "category": "Discharge summary",
              "chart_date": "2100-01-05T00:00:00", "text": "line one\nline two"}],
        )
        store = load_tables(a, d, n)
        assert store.admissions["H1"].discharge_note == "line one\nline two"

    def test_malformed_row_collected(self, tmp_path):
        a, d, n = _tables(
            tmp_path,
            [_adm("S1", "H1", "not-a-date", "2100-01-05T00:00:00"),
             _adm("S1", "H2", "2100-02-01T00:00:00", "2100-02-05T00:00:00")],
            [], [],
        )
        store = load_tables(a, d, n)
        assert len(store.admissions) == 1
        assert len(store.rejects) == 1
        assert store.rejects[0]["line"] == 2

    def test_dob_is_kept_per_patient_from_accepted_rows(self, tmp_path):
        a, d, n = _tables(
            tmp_path,
            [_adm("S1", "H1", "2100-01-01T00:00:00", "2100-01-05T00:00:00", "2030-01-01"),
             _adm("S1", "H2", "2100-02-01T00:00:00", "2100-02-05T00:00:00"),
             _adm("S1", "H3", "2100-03-01T00:00:00", "2100-03-05T00:00:00", "2040-01-01"),
             _adm("S2", "H4", "2100-04-01T00:00:00", "2100-04-05T00:00:00", "not-a-date")],
            [], [],
        )
        store = load_tables(a, d, n)
        assert sorted(store.admissions) == ["H1", "H2", "H3"]  # H4's dob rejects its row
        assert [r["line"] for r in store.rejects] == [5]
        assert store.dob_by_subject == {"S1": datetime(2040, 1, 1)}  # the last non-empty

    def test_reject_line_is_the_file_line_a_record_starts_on(self, tmp_path):
        a, d, n = _tables(
            tmp_path,
            [_adm("S1", "H1", "2100-01-01T00:00:00", "2100-01-05T00:00:00")],
            [],
            [{"subject_id": "S1", "hadm_id": "H1", "category": "Discharge summary",
              "chart_date": "2100-01-05T00:00:00", "text": "one\ntwo\nthree\nfour"},
             {"subject_id": "S1", "hadm_id": "H1", "category": "Discharge summary",
              "chart_date": "not-a-date", "text": "late"}],
        )
        with open(n) as fh:
            assert fh.read().splitlines()[5].startswith("S1,H1,Discharge summary,not-a-date")
        store = load_tables(a, d, n)
        assert store.rejects == [{"file": n, "line": 6,
                                  "error": "Invalid isoformat string: 'not-a-date'"}]
        assert store.admissions["H1"].discharge_note == "one\ntwo\nthree\nfour"

    @pytest.mark.parametrize("short", ["admissions", "diagnoses", "notes"])
    def test_short_row_collected(self, tmp_path, short):
        a, d, n = _tables(
            tmp_path,
            [_adm("S1", "H1", "2100-01-01T00:00:00", "2100-01-05T00:00:00")],
            [{"subject_id": "S1", "hadm_id": "H1", "icd9_code": "42822"}],
            [{"subject_id": "S1", "hadm_id": "H1", "category": "Discharge summary",
              "chart_date": "2100-01-05T00:00:00", "text": "note body"}],
        )
        path = {"admissions": a, "diagnoses": d, "notes": n}[short]
        with open(path, "a") as fh:
            fh.write("S1\n")
        store = load_tables(a, d, n)
        width = {"admissions": 5, "diagnoses": 3, "notes": 5}[short]
        assert store.rejects == [{"file": path, "line": 3,
                                  "error": f"row has 1 of the header's {width} fields"}]
        rec = store.admissions["H1"]
        assert (rec.icd9_codes, rec.discharge_note) == (["42822"], "note body")

    def test_unquoted_comma_in_note_rejected_not_truncated(self, tmp_path):
        a, d, n = _tables(
            tmp_path,
            [_adm("S1", "H1", "2100-01-01T00:00:00", "2100-01-05T00:00:00")],
            [{"subject_id": "S1", "hadm_id": "H1", "icd9_code": "42822"}],
            [{"subject_id": "S1", "hadm_id": "H1", "category": "Discharge summary",
              "chart_date": "2100-01-04T00:00:00", "text": "one\ntwo"}],
        )
        with open(n, "a") as fh:
            fh.write("S1,H1,Discharge summary,2100-01-05T00:00:00,BP 120/80, HR 72, on lasix\n")
        store = load_tables(a, d, n)
        assert store.rejects == [{"file": n, "line": 4,
                                  "error": "row has 7 fields, more than the header's 5"}]
        assert store.admissions["H1"].discharge_note == "one\ntwo"

    @pytest.mark.parametrize("long", ["admissions", "diagnoses", "notes"])
    def test_long_row_collected(self, tmp_path, long):
        a, d, n = _tables(
            tmp_path,
            [_adm("S1", "H1", "2100-01-01T00:00:00", "2100-01-05T00:00:00")],
            [{"subject_id": "S1", "hadm_id": "H1", "icd9_code": "42822"}],
            [{"subject_id": "S1", "hadm_id": "H1", "category": "Discharge summary",
              "chart_date": "2100-01-05T00:00:00", "text": "note body"}],
        )
        path = {"admissions": a, "diagnoses": d, "notes": n}[long]
        width = {"admissions": 5, "diagnoses": 3, "notes": 5}[long]
        with open(path, "a") as fh:
            fh.write(",".join(["S2", "H2"] + ["x"] * width) + "\n")
        store = load_tables(a, d, n)
        assert store.rejects == [{"file": path, "line": 3, "error":
                                  f"row has {width + 2} fields, more than the header's {width}"}]
        assert set(store.admissions) == {"H1"}
        rec = store.admissions["H1"]
        assert (rec.icd9_codes, rec.discharge_note) == (["42822"], "note body")

    def test_missing_column_fatal(self, tmp_path):
        a = tmp_path / "admissions.csv"
        _write_csv(a, ["subject_id", "hadm_id"], [])
        d = tmp_path / "d.csv"
        _write_csv(d, ["subject_id", "hadm_id", "icd9_code"], [])
        n = tmp_path / "n.csv"
        _write_csv(n, ["subject_id", "hadm_id", "category", "chart_date", "text"], [])
        with pytest.raises(ConfigError):
            load_tables(str(a), str(d), str(n))


def _store(records):
    return CohortStore(admissions={r.hadm_id: r for r in records})


def _rec(subject, hadm, admit, discharge, codes=(), note=None):
    return AdmissionRecord(
        subject_id=subject, hadm_id=hadm,
        admit_time=admit, discharge_time=discharge,
        icd9_codes=list(codes), discharge_note=note,
    )


T0 = datetime(2100, 1, 1)


class TestHfFilter:
    @pytest.mark.parametrize("code,kept", [
        ("42822", True), ("40291", True), ("39891", True),
        ("4280", True), ("41401", False), ("4281", True), ("4290", False),
    ])
    def test_code_rules(self, code, kept):
        store = _store([_rec("S1", "H1", T0, T0 + timedelta(days=3), [code])])
        assert (len(filter_hf_cohort(store).admissions) == 1) == kept

    def test_keeps_all_admissions_of_hf_patient(self):
        store = _store([
            _rec("S1", "H1", T0, T0 + timedelta(days=3), ["42822"]),
            _rec("S1", "H2", T0 + timedelta(days=40), T0 + timedelta(days=44), ["4019"]),
            _rec("S2", "H3", T0, T0 + timedelta(days=3), ["4019"]),
        ])
        kept = filter_hf_cohort(store)
        assert set(kept.admissions) == {"H1", "H2"}

    def test_idempotent(self):
        store = _store([
            _rec("S1", "H1", T0, T0 + timedelta(days=3), ["42822"]),
            _rec("S2", "H2", T0, T0 + timedelta(days=3), ["4019"]),
        ])
        once = filter_hf_cohort(store)
        twice = filter_hf_cohort(once)
        assert set(once.admissions) == set(twice.admissions)


class TestReadmissionPairs:
    def _pair_for_interval(self, days):
        discharge = T0 + timedelta(days=5)
        store = _store([
            _rec("S1", "H1", T0, discharge),
            _rec("S1", "H2", discharge + timedelta(days=days),
                 discharge + timedelta(days=days + 3)),
        ])
        pairs = build_readmission_pairs(store)
        assert len(pairs) == 1
        return pairs[0]

    def test_19_days_label_1(self):
        p = self._pair_for_interval(19.0)
        assert p.interval_days == pytest.approx(19.0)
        assert p.label == 1

    def test_boundary_30_inclusive(self):
        assert self._pair_for_interval(30.0).label == 1

    def test_31_days_label_0(self):
        assert self._pair_for_interval(31.0).label == 0

    def test_no_successor_no_pair(self):
        store = _store([_rec("S1", "H1", T0, T0 + timedelta(days=3))])
        assert build_readmission_pairs(store) == []

    def test_negative_interval_skipped(self):
        store = _store([
            _rec("S1", "H1", T0, T0 + timedelta(days=10)),
            _rec("S1", "H2", T0 + timedelta(days=8), T0 + timedelta(days=12)),
        ])
        assert build_readmission_pairs(store) == []

    @given(st.floats(min_value=0.0, max_value=120.0,
                     allow_nan=False, allow_infinity=False))
    def test_label_flips_exactly_at_30(self, interval):
        p = self._pair_for_interval(interval)
        assert p.label == (1 if interval <= 30.0 else 0)

    def test_pair_set_invariant_to_row_order(self):
        recs = [
            _rec("S1", "H1", T0, T0 + timedelta(days=3)),
            _rec("S1", "H2", T0 + timedelta(days=20), T0 + timedelta(days=24)),
            _rec("S2", "H3", T0, T0 + timedelta(days=2)),
            _rec("S2", "H4", T0 + timedelta(days=50), T0 + timedelta(days=55)),
        ]
        expected = None
        for seed in range(5):
            shuffled = recs[:]
            random.Random(seed).shuffle(shuffled)
            pairs = build_readmission_pairs(_store(shuffled))
            key = {(p.index_hadm_id, p.next_hadm_id, p.label) for p in pairs}
            if expected is None:
                expected = key
            assert key == expected
        assert expected == {("H1", "H2", 1), ("H3", "H4", 0)}


class TestSummary:
    def test_readmission_rate_is_label_mean(self):
        store = _store([
            _rec("S1", "H1", T0, T0 + timedelta(days=4)),
            _rec("S1", "H2", T0 + timedelta(days=10), T0 + timedelta(days=14)),
            _rec("S1", "H3", T0 + timedelta(days=100), T0 + timedelta(days=105)),
            _rec("S2", "H4", T0, T0 + timedelta(days=7)),
            _rec("S2", "H5", T0 + timedelta(days=20), T0 + timedelta(days=25)),
        ])
        pairs = build_readmission_pairs(store)
        summary = summarize_cohort(store, pairs)
        assert summary.readmission_rate == pytest.approx(
            sum(p.label for p in pairs) / len(pairs)
        )

    def test_ages_are_index_admission_ages_from_the_patient_dob(self):
        recs = [
            _rec("S1", "H1", T0, T0 + timedelta(days=4)),
            _rec("S1", "H2", T0 + timedelta(days=10), T0 + timedelta(days=14)),
            _rec("S2", "H3", T0, T0 + timedelta(days=4)),
        ]
        store = CohortStore(admissions={r.hadm_id: r for r in recs},
                            dob_by_subject={"S1": T0 - timedelta(days=3652)})
        summary = summarize_cohort(store, build_readmission_pairs(store))
        assert summary.median_age == pytest.approx(3652 / 365.25)  # H1 only; S2 has no dob
        assert summarize_cohort(_store(recs), []).median_age is None

    def test_three_point_quantiles(self):
        recs = [
            _rec("S1", "H1", T0, T0 + timedelta(days=4)),
            _rec("S2", "H2", T0, T0 + timedelta(days=7)),
            _rec("S3", "H3", T0, T0 + timedelta(days=13)),
        ]
        summary = summarize_cohort(_store(recs), [])
        assert summary.median_los == pytest.approx(7.0)
        q1, q3 = summary.los_iqr
        assert q1 <= summary.median_los <= q3


class TestWriters:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "pairs.csv"
        write_csv(str(path), ReadmissionPair, [ReadmissionPair("1", "10", "11", 19.5, 1)])
        before = path.read_bytes()

        def pairs():  # fails after its first row
            yield ReadmissionPair("2", "20", "21", 3.0, 1)
            raise ValueError("the records fail partway")

        with pytest.raises(ValueError, match="partway"):
            write_csv(str(path), ReadmissionPair, pairs())
        assert path.read_bytes() == before
        assert before == (b"subject_id,index_hadm_id,next_hadm_id,interval_days,label\r\n"
                          b"1,10,11,19.500000,1\r\n")

    def test_cohort_jsonl_bytes(self, tmp_path):
        rec = AdmissionRecord("1", "10", datetime(2020, 1, 1), datetime(2020, 1, 3),
                              ["4280"], "Note text.")
        path = tmp_path / "cohort.jsonl"
        write_jsonl(str(path), [rec])
        assert path.read_text() == (
            '{"admit_time": "2020-01-01T00:00:00", "discharge_note": "Note text.", '
            '"discharge_time": "2020-01-03T00:00:00", "hadm_id": "10", '
            '"icd9_codes": ["4280"], "subject_id": "1"}\n'
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort.jsonl"]
